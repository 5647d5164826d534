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

#: a gateway's forwarding delay between two segments (ms)
GATEWAY_HOP_MS = 8.0


class Internetwork:
    """Registry of hosts and segments plus the routing function."""

    def __init__(self, env: Environment):
        self.env = env
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
        #: The next wire-message id (transports stamp each Datagram):
        #: the counter's own ``__next__``, so a stamp is one C call.
        self.next_msg_id: typing.Callable[[], int] = itertools.count(1).__next__

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
        host = Host(self.env, name, address, system_type=system_type)
        segment.attach(host)
        self._hosts_by_name[name] = host
        self._hosts_by_address[str(address)] = host
        self._segment_of[str(address)] = segment
        return host

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def segment_of(self, address: typing.Union[str, NetworkAddress]) -> Ethernet:
        """The segment ``address`` is attached to, or NoRouteToHost."""
        segment = self._segment_of.get(getattr(address, "dotted", address))
        if segment is None:
            raise NoRouteToHost(str(address))
        return segment

    def hop(
        self,
        src: typing.Union[str, NetworkAddress],
        dst: typing.Union[str, NetworkAddress],
        size_bytes: int,
        lossy: bool = True,
    ) -> typing.Tuple[bool, float]:
        """One message's trip from ``src`` to ``dst``: (lost on the wire,
        sampled one-way delay), or NoRouteToHost.

        The route is resolved once.  A ``lossy`` message (a datagram,
        request or reply alike) draws each segment's loss decision in
        route order, the far one only if the near one kept it.  A
        reliable message (a stream's bytes) draws none, but a partition
        on its route still severs it.  Then every message draws each
        segment's delay, plus a gateway's forwarding delay between two
        segments.
        """
        segment_of = self._segment_of
        src_seg = segment_of.get(getattr(src, "dotted", src))
        dst_seg = segment_of.get(getattr(dst, "dotted", dst))
        if src_seg is None or dst_seg is None:
            raise NoRouteToHost(f"{src} -> {dst}")
        dropped = False
        # A whole segment with no loss configured drops nothing, so its
        # drop rule is asked only when it could say yes.
        if lossy:
            if src_seg._partition_of or src_seg.drop_probability != 0.0:
                dropped = src_seg.would_drop(src, dst)
            if not dropped and src_seg is not dst_seg and (
                dst_seg._partition_of or dst_seg.drop_probability != 0.0
            ):
                dropped = dst_seg.would_drop(src, dst)
        elif src_seg._partition_of or dst_seg._partition_of:
            dropped = src_seg.crosses_partition(src, dst) or (
                src_seg is not dst_seg and dst_seg.crosses_partition(src, dst)
            )
        delay = src_seg.latency.sample(src_seg._jitter, size_bytes)
        if src_seg is dst_seg:
            return dropped, delay
        return dropped, delay + (
            dst_seg.latency.sample(dst_seg._jitter, size_bytes) + GATEWAY_HOP_MS
        )

