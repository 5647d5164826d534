"""Network addresses and endpoints.

Addresses are dotted-quad strings as in the paper's environment (the
HNS's canonical use case is mapping a host name to an IP address).
"""

from __future__ import annotations

import dataclasses
import typing

from repro.memo import memoised


@memoised
def _octets(dotted: str) -> typing.Tuple[int, int, int, int]:
    """The four octets of canonical dotted-quad text, or ValueError.

    Canonical means ASCII decimal without leading zeros: one address has
    one spelling, so equal octets imply equal text (and equal keys in
    every table indexed by address).
    """
    parts = dotted.split(".")
    if len(parts) != 4:
        raise ValueError(f"bad address {dotted!r}: need 4 octets")
    octets = []
    for part in parts:
        if not (part.isascii() and part.isdigit()) or (
            part[0] == "0" and part != "0"
        ):
            raise ValueError(f"bad address {dotted!r}: octet {part!r}")
        octets.append(int(part))
        if octets[-1] > 255:
            raise ValueError(f"bad address {dotted!r}: octet {part} out of range")
    a, b, c, d = octets
    return (a, b, c, d)


@dataclasses.dataclass(frozen=True, order=True)
class NetworkAddress:
    """An internet-style host address (dotted quad)."""

    dotted: str

    def __post_init__(self) -> None:
        _octets(self.dotted)  # validates

    @property
    def octets(self) -> typing.Tuple[int, int, int, int]:
        return _octets(self.dotted)

    def __str__(self) -> str:
        return self.dotted


@dataclasses.dataclass(frozen=True, order=True)
class Endpoint:
    """An (address, port) pair a service listens on."""

    address: NetworkAddress
    port: int

    def __post_init__(self) -> None:
        if not 0 < self.port <= 65535:
            raise ValueError(f"bad port {self.port}")

    def __str__(self) -> str:
        return f"{self.address}:{self.port}"


class AddressAllocator:
    """Dispenses unique addresses on a network prefix."""

    def __init__(self, prefix: str = "128.95.1"):
        parts = prefix.split(".")
        if len(parts) != 3 or not all(p.isdigit() and 0 <= int(p) <= 255 for p in parts):
            raise ValueError(f"bad network prefix {prefix!r}")
        self.prefix = prefix
        self._next_host = 1

    def allocate(self) -> NetworkAddress:
        if self._next_host > 254:
            raise RuntimeError(f"network {self.prefix} exhausted")
        address = NetworkAddress(f"{self.prefix}.{self._next_host}")
        self._next_host += 1
        return address


# Well-known ports used by the simulated services (values are arbitrary
# but stable; some mirror real assignments for readability).
WELL_KNOWN_PORTS = {
    "bind": 53,
    "clearinghouse": 2049,
    "portmapper": 111,
    "courier-binder": 5002,
    "hns": 7001,
    "nsm-base": 7100,
    "service-base": 9000,
}
