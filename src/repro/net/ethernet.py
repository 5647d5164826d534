"""A shared Ethernet segment.

The paper's measurements were taken between MicroVAX-IIs "joined by an
Ethernet" at light load.  The segment charges a latency model per
message (base propagation + per-byte transfer) and can drop messages
with a configured probability for failure-injection experiments.

Partition/heal: :meth:`Ethernet.partition` installs a deterministic
segment-level drop rule — hosts assigned to different sides stop
hearing each other (unicast and broadcast alike) until :meth:`heal`.
The ad-hoc discovery scenarios use this to let membership views
diverge and then watch incarnation numbers reconcile.
"""

from __future__ import annotations

import typing

from repro.memo import first_use
from repro.net.host import Host
from repro.net.messages import Datagram
from repro.sim.kernel import Environment
from repro.sim.latency import ConstantLatency, LatencyModel
from repro.sim.stats import Counter

if typing.TYPE_CHECKING:  # pragma: no cover
    import random


class Ethernet:
    """A broadcast segment connecting a set of hosts."""

    def __init__(
        self,
        env: Environment,
        name: str = "ether0",
        latency: typing.Optional[LatencyModel] = None,
        drop_probability: float = 0.0,
    ):
        if not 0 <= drop_probability < 1:
            raise ValueError(f"bad drop probability {drop_probability}")
        self.env = env
        self.name = name
        # Default: ~1 ms propagation + 10 Mbit/s-ish transfer cost.
        self.latency = latency or ConstantLatency(1.0, per_byte_ms=0.0008)
        self.drop_probability = drop_probability
        # Keyed by dotted text, looked up as ``getattr(address, "dotted",
        # address)`` (see :class:`~repro.net.internet.Internetwork`).
        self._hosts: typing.Dict[str, Host] = {}
        # address -> partition side; empty means the segment is whole.
        self._partition_of: typing.Dict[str, int] = {}

    def attach(self, host: Host) -> None:
        if str(host.address) in self._hosts:
            raise ValueError(f"address {host.address} already on {self.name}")
        self._hosts[str(host.address)] = host

    def detach(self, host: Host) -> None:
        self._hosts.pop(str(host.address), None)

    def host_for(self, address: typing.Union[str, object]) -> typing.Optional[Host]:
        return self._hosts.get(getattr(address, "dotted", address))

    @property
    def hosts(self) -> typing.List[Host]:
        return list(self._hosts.values())

    def carries(self, address: object) -> bool:
        return getattr(address, "dotted", address) in self._hosts

    @first_use
    def _jitter(self) -> "random.Random":
        """This wire's latency stream (seeded from the name, not from
        when it is first drawn)."""
        return self.env.rng.stream(f"ether:{self.name}")

    def transmit_delay(self, datagram: Datagram) -> float:
        """Sample the wire time for one message."""
        return self.latency.sample(self._jitter, datagram.size_bytes)

    # ------------------------------------------------------------------
    # Partition/heal: deterministic segment-level drop rules
    # ------------------------------------------------------------------
    def partition(
        self, *groups: typing.Iterable[typing.Union[Host, str, object]]
    ) -> None:
        """Split the segment: hosts in different groups stop hearing
        each other (unicast and broadcast alike) until :meth:`heal`.

        Each group is a sequence of hosts or addresses.  Hosts not
        assigned to any group keep full connectivity — the rule only
        fires when *both* endpoints are assigned and their sides differ.
        Installing a new partition replaces the previous one.
        """
        if len(groups) < 2:
            raise ValueError("a partition needs at least two groups")
        assignment: typing.Dict[str, int] = {}
        for side, group in enumerate(groups):
            for member in group:
                address = str(
                    member.address if isinstance(member, Host) else member
                )
                if address in assignment:
                    raise ValueError(
                        f"address {address} assigned to two partition groups"
                    )
                assignment[address] = side
        self._partition_of = assignment
        self.env.trace.emit(
            "net",
            f"segment {self.name} partitioned into {len(groups)} groups",
            sizes=[
                sum(1 for side in assignment.values() if side == index)
                for index in range(len(groups))
            ],
        )

    def heal(self) -> None:
        """Remove the partition rule: the segment is whole again."""
        if not self._partition_of:
            return
        self._partition_of = {}
        self.env.trace.emit("net", f"segment {self.name} healed")

    @property
    def partitioned(self) -> bool:
        return bool(self._partition_of)

    def crosses_partition(
        self, src: typing.Union[str, object], dst: typing.Union[str, object]
    ) -> bool:
        """Whether the installed drop rule severs ``src`` -> ``dst``."""
        if not self._partition_of:
            return False
        src_side = self._partition_of.get(getattr(src, "dotted", src))
        dst_side = self._partition_of.get(getattr(dst, "dotted", dst))
        return (
            src_side is not None
            and dst_side is not None
            and src_side != dst_side
        )

    def would_drop(
        self,
        src: typing.Optional[typing.Union[str, object]] = None,
        dst: typing.Optional[typing.Union[str, object]] = None,
    ) -> bool:
        """Loss decision for one message along this wire.

        The deterministic partition rule is consulted first (when both
        endpoints are known), then the configured random drop
        probability.
        """
        if (
            self._partition_of
            and src is not None
            and dst is not None
            and self.crosses_partition(src, dst)
        ):
            self._partition_drops.increment()
            return True
        if self.drop_probability == 0.0:
            return False
        return self._drop_rng.random() < self.drop_probability

    @first_use
    def _partition_drops(self) -> Counter:
        """Bound at the first severed message: no stat until counted."""
        return self.env.stats.counter("net.partition.drops")

    @first_use
    def _drop_rng(self) -> "random.Random":
        """This wire's loss stream (seeded from the name, like :attr:`_jitter`)."""
        return self.env.rng.stream(f"ether-drop:{self.name}")
