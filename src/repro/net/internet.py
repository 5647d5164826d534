"""The internetwork topology: segments, hosts, and routing.

The HCS environment is one Ethernet, but the model supports several
segments joined by gateways (each inter-segment hop adds a fixed
forwarding delay), which the scalability ablations use.
"""

from __future__ import annotations

import itertools
import typing

from repro.net.addresses import AddressAllocator, NetworkAddress
from repro.net.errors import NoRouteToHost
from repro.net.ethernet import Ethernet
from repro.net.host import Host
from repro.sim.kernel import Environment


class Internetwork:
    """Registry of hosts and segments plus the routing function."""

    def __init__(
        self,
        env: Environment,
        gateway_hop_ms: float = 8.0,
    ):
        if gateway_hop_ms < 0:
            raise ValueError("gateway hop delay must be non-negative")
        self.env = env
        self.gateway_hop_ms = gateway_hop_ms
        self.segments: typing.List[Ethernet] = []
        self._hosts_by_name: typing.Dict[str, Host] = {}
        # Keyed by dotted text.  A lookup takes ``getattr(address,
        # "dotted", address)`` — the text of a NetworkAddress or of a
        # str — in C, where ``str(address)`` runs a Python ``__str__``.
        self._hosts_by_address: typing.Dict[str, Host] = {}
        self._segment_of: typing.Dict[str, Ethernet] = {}
        self._allocators: typing.Dict[str, AddressAllocator] = {}
        # Per-environment message numbering: ids must be a function of
        # this run alone, or traced loss lines ("lost: Datagram#N ...")
        # would differ between same-seed runs in one process and break
        # the determinism gate.
        self._msg_ids = itertools.count(1)

    def next_msg_id(self) -> int:
        """The next wire-message id (transports stamp each Datagram)."""
        return next(self._msg_ids)

    # ------------------------------------------------------------------
    # Topology construction
    # ------------------------------------------------------------------
    def add_segment(
        self, name: str = "", prefix: str = "", **ether_kwargs: object
    ) -> Ethernet:
        """Create and register a new Ethernet segment."""
        index = len(self.segments)
        name = name or f"ether{index}"
        prefix = prefix or f"128.95.{index + 1}"
        segment = Ethernet(self.env, name=name, **ether_kwargs)  # type: ignore[arg-type]
        self.segments.append(segment)
        self._allocators[name] = AddressAllocator(prefix)
        return segment

    def add_host(
        self,
        name: str,
        segment: typing.Optional[Ethernet] = None,
        system_type: str = "unix",
        **host_kwargs: object,
    ) -> Host:
        """Create a host, allocate it an address, attach it to a segment."""
        if name in self._hosts_by_name:
            raise ValueError(f"duplicate host name {name!r}")
        if segment is None:
            if not self.segments:
                self.add_segment()
            segment = self.segments[0]
        if segment not in self.segments:
            raise ValueError(f"segment {segment.name} not part of this internet")
        address = self._allocators[segment.name].allocate()
        host = Host(
            self.env, name, address, system_type=system_type, **host_kwargs  # type: ignore[arg-type]
        )
        segment.attach(host)
        self._hosts_by_name[name] = host
        self._hosts_by_address[str(address)] = host
        self._segment_of[str(address)] = segment
        return host

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def host_named(self, name: str) -> typing.Optional[Host]:
        return self._hosts_by_name.get(name)

    def host_at(self, address: typing.Union[str, NetworkAddress]) -> typing.Optional[Host]:
        return self._hosts_by_address.get(getattr(address, "dotted", address))

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def _route(
        self,
        src: typing.Union[str, NetworkAddress],
        dst: typing.Union[str, NetworkAddress],
    ) -> typing.Tuple[Ethernet, int]:
        """(first segment, gateway hops) for src -> dst, or NoRouteToHost."""
        src_seg = self._segment_of.get(getattr(src, "dotted", src))
        dst_seg = self._segment_of.get(getattr(dst, "dotted", dst))
        if src_seg is None or dst_seg is None:
            raise NoRouteToHost(f"{src} -> {dst}")
        hops = 0 if src_seg is dst_seg else 1
        return src_seg, hops

    def path_delay(
        self,
        src: typing.Union[str, NetworkAddress],
        dst: typing.Union[str, NetworkAddress],
        size_bytes: int,
    ) -> float:
        """Sampled one-way delay between two attached addresses."""
        segment, hops = self._route(src, dst)
        delay = segment.delay_for(size_bytes)
        if hops:
            dst_seg = self._segment_of[getattr(dst, "dotted", dst)]
            delay += dst_seg.delay_for(size_bytes) + self.gateway_hop_ms * hops
        return delay

    def segment_would_drop(
        self,
        src: typing.Union[str, NetworkAddress],
        dst: typing.Union[str, NetworkAddress],
    ) -> bool:
        """Loss decision for a datagram along the route."""
        segment, hops = self._route(src, dst)
        if segment.would_drop(src, dst):
            return True
        if hops:
            return self._segment_of[getattr(dst, "dotted", dst)].would_drop(src, dst)
        return False

    def same_host(self, a: typing.Union[str, NetworkAddress], b: typing.Union[str, NetworkAddress]) -> bool:
        return str(a) == str(b)
