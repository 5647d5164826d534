"""Ad-hoc discovery wire messages: presence beacons and liveness probes.

Beacons are *signed*: a host that cannot prove it shares the segment
secret cannot claim names.  The signature here is a CRC over the
canonical field encoding keyed with the shared secret — a stand-in with
the right shape (deterministic, cheap, covers every field) rather than
real cryptography, which the simulation does not need.
"""

from __future__ import annotations

import dataclasses
import functools
import typing
import zlib
from typing import Annotated

from repro.broadcast.messages import encode_data
from repro.memo import MEMO_SIZE
from repro.serial.idl import BoolType, StringType, U32Type
from repro.serial.message import WireMessage

#: the well-known port every discovery listener binds
BEACON_PORT = 1112

#: segment-wide shared secret the beacon signature is keyed with
SEGMENT_SECRET = "hcs-adhoc-v1"


def sign_beacon(
    owner: str,
    address: str,
    incarnation: int,
    names: typing.Mapping[str, str],
    secret: str = SEGMENT_SECRET,
) -> int:
    """CRC-keyed signature over the canonical beacon encoding: a pure
    function of the field values, remembered (a broadcast's sender and
    every listener ask for the same one)."""
    return _signature(secret, owner, address, incarnation, tuple(names.items()))


@functools.lru_cache(maxsize=MEMO_SIZE, typed=True)  # typed: str(1) != str(True)
def _signature(
    secret: str, owner: str, address: str, incarnation: int,
    names: typing.Tuple[typing.Tuple[str, str], ...],
) -> int:
    canonical = "|".join(
        (secret, owner, address, str(incarnation), encode_data(dict(names)))
    )
    return zlib.crc32(canonical.encode("utf-8")) & 0xFFFFFFFF


@dataclasses.dataclass
class PresenceBeacon(WireMessage):
    """One host's periodic presence announcement."""

    owner: Annotated[str, StringType(64)]      # host name
    address: Annotated[str, StringType(64)]    # dotted quad
    #: bumped on every restart; last-writer-wins
    incarnation: Annotated[int, U32Type()]
    #: name -> port, as strings
    names: Annotated[typing.Dict[str, str], StringType(255)]
    signature: Annotated[int, U32Type()]

    @classmethod
    def signed(
        cls,
        owner: str,
        address: str,
        incarnation: int,
        names: typing.Mapping[str, str],
        secret: str = SEGMENT_SECRET,
    ) -> "PresenceBeacon":
        return cls(
            owner=owner,
            address=address,
            incarnation=incarnation,
            names=dict(names),
            signature=sign_beacon(owner, address, incarnation, names, secret),
        )

    def verify(self, secret: str = SEGMENT_SECRET) -> bool:
        """Does the signature cover the fields as they are now?  Asked
        afresh by every listener (the verdict is not kept on the beacon,
        which may have changed since another listener asked); the
        signature itself is the memo's."""
        return self.signature == _signature(
            secret, self.owner, self.address, self.incarnation,
            tuple(self.names.items()),
        )


@dataclasses.dataclass
class ProbeRequest(WireMessage):
    """Unicast liveness check before a suspect entry is evicted."""

    name: Annotated[str, StringType(255)]


@dataclasses.dataclass
class ProbeResponse(WireMessage):
    """The suspect's answer: still here (or not advertising that name)."""

    name: Annotated[str, StringType(255)]
    owner: Annotated[str, StringType(64)]
    incarnation: Annotated[int, U32Type()]
    alive: Annotated[bool, BoolType()]
