"""Secondary (replica) BIND servers.

"While the HNS is logically a single, centralized facility, its
implementation must be distributed and replicated for the usual reasons
of performance, availability, and scalability.  Because the
implementation problems associated with these properties are for the
most part successfully addressed in previous name services, we chose to
ease our implementation effort by making use of an existing name
service" — i.e. BIND's own primary/secondary replication, driven by the
zone-transfer mechanism.

A :class:`SecondaryBindServer` answers queries and zone transfers from
its replica zones, refuses dynamic updates (only the primary accepts
those), and runs a refresh process: every ``refresh_ms`` it probes the
primary's SOA serial and pulls a full AXFR only when the serial moved.
With an enabled :class:`~repro.resolution.ReplicaPolicy`,
the pull becomes an *incremental* transfer: only the journal entries
past the replica's serial travel and are applied in place, with a clean
AXFR fallback when the primary's journal has been truncated.
"""

from __future__ import annotations

import typing

from repro.bind.messages import (
    STATUS_OK,
    NotifyRequest,
    NotifySubscribeRequest,
    NotifySubscribeResponse,
    SerialRequest,
    SerialResponse,
)
from repro.bind.names import DomainName
from repro.bind.primary import PrimaryClient
from repro.bind.server import BindServer
from repro.bind.zone import Zone
from repro.harness.calibration import Calibration, DEFAULT_CALIBRATION
from repro.net.addresses import Endpoint
from repro.net.errors import NetworkError
from repro.net.host import Host
from repro.net.transport import RemoteCallError, Transport
from repro.resolution import ReplicaPolicy


class SecondaryBindServer(BindServer):
    """A replica server refreshed from a primary by zone transfer."""

    def __init__(
        self,
        host: Host,
        primary: Endpoint,
        origins: typing.Sequence[typing.Union[str, DomainName]],
        transport: Transport,
        refresh_ms: float = 60_000.0,
        lookup_cost_ms: typing.Optional[float] = None,
        calibration: Calibration = DEFAULT_CALIBRATION,
        name: str = "",
        replica_policy: ReplicaPolicy = ReplicaPolicy.disabled(),
    ):
        if refresh_ms <= 0:
            raise ValueError("refresh interval must be positive")
        super().__init__(
            host,
            zones=[Zone(origin) for origin in origins],
            lookup_cost_ms=lookup_cost_ms,
            allow_dynamic_update=False,  # secondaries never take updates
            calibration=calibration,
            name=name or f"bind2@{host.name}",
        )
        self.primary = primary
        self.transport = transport
        self.refresh_ms = refresh_ms
        #: disabled keeps the full-AXFR refresh the prototype used
        self.replica_policy = replica_policy
        self.replica_serials: typing.Dict[DomainName, int] = {
            zone.origin: 0 for zone in self.zones
        }
        self._xfer = PrimaryClient(
            host, transport, primary, name=f"{self.name}.xfer"
        )
        self._refresh_process = None
        #: origins with a NOTIFY-triggered pull already in flight
        self._notify_pulls: typing.Set[DomainName] = set()

    # ------------------------------------------------------------------
    def start_refresh(self):
        """Begin the periodic refresh loop (a simulation process)."""
        if self._refresh_process is not None and self._refresh_process.is_alive:
            raise RuntimeError(f"{self.name}: refresh already running")
        self._refresh_process = self.env.process(
            self._refresh_loop(), name=f"{self.name}.refresh"
        )
        return self._refresh_process

    def _refresh_loop(self):
        while True:
            yield from self.refresh_once()
            yield self.env.timeout(self.refresh_ms)

    def refresh_once(self) -> typing.Generator:
        """One refresh pass over all replica zones; returns zones pulled."""
        pulled = 0
        for zone in self.zones:
            try:
                changed = yield from self._refresh_zone(zone)
            except (NetworkError, RemoteCallError):
                # Primary unreachable: keep serving the last good copy.
                self.env.stats.counter(f"bind.{self.name}.refresh_failures").increment()
                continue
            if changed:
                pulled += 1
        return pulled

    def _refresh_zone(
        self, zone: Zone, force_ixfr: bool = False
    ) -> typing.Generator:
        """SOA-serial probe, then a transfer only if the primary moved on.

        The transfer is incremental (IXFR) when the replica policy asks
        for it — or when a NOTIFY push forces it — and the primary's
        journal still covers our serial; otherwise — including every
        first synchronisation — it is a full AXFR installed atomically
        as a fresh zone.
        """
        request = SerialRequest(zone.origin)
        reply = yield self.transport.request(
            self.host, self.primary, request, 48
        )
        if not isinstance(reply, SerialResponse) or reply.status != STATUS_OK:
            return False
        if reply.serial <= self.replica_serials[zone.origin]:
            self.env.stats.counter(f"bind.{self.name}.refresh_skips").increment()
            return False
        if force_ixfr or self.replica_policy.enabled:
            serial, full, deltas, records = (
                yield from self._xfer.incremental_zone_transfer(
                    zone.origin, self.replica_serials[zone.origin]
                )
            )
            if not full:
                # Applying a delta pays the install cost only for the
                # records that actually changed.
                install_cost = self.calibration.xfer_install_per_record_ms * sum(
                    len(d.records) for d in deltas
                )
                if install_cost > 0:
                    yield self.host.cpu.compute(install_cost)
                for delta in deltas:
                    zone.apply_delta(delta)
                self.replica_serials[zone.origin] = serial
                self.env.stats.counter(f"bind.{self.name}.ixfrs").increment()
                self.env.stats.counter(f"bind.{self.name}.refreshes").increment()
                self.env.trace.emit(
                    "bind",
                    f"{self.name}: incrementally refreshed {zone.origin} to "
                    f"serial {serial} ({len(deltas)} deltas)",
                )
                return True
            # Journal truncated: the reply already carries the snapshot.
            self.env.stats.counter(f"bind.{self.name}.axfr_fallbacks").increment()
        else:
            serial, records = yield from self._xfer.zone_transfer(zone.origin)
        # Install the fresh copy atomically.  The replica adopts the
        # primary's serial but discards its (rebuilt, fabricated-serial)
        # journal, so downstream IXFR against this replica falls back to
        # AXFR until real deltas accumulate.
        fresh = Zone(zone.origin, default_ttl=zone.default_ttl)
        for record in records:
            fresh.add(record)
        fresh.serial = serial
        fresh.reset_journal()
        index = self.zones.index(zone)
        self.zones[index] = fresh
        self.replica_serials[zone.origin] = serial
        self.env.stats.counter(f"bind.{self.name}.refreshes").increment()
        self.env.trace.emit(
            "bind",
            f"{self.name}: refreshed {zone.origin} to serial {serial} "
            f"({len(records)} records)",
        )
        return True

    # ------------------------------------------------------------------
    # NOTIFY: the primary pushes serial bumps instead of us polling
    # ------------------------------------------------------------------
    def subscribe_to_primary(self) -> typing.Generator:
        """Subscribe to the primary's NOTIFY push for every replica zone.

        Requires :meth:`listen` first (the push needs somewhere to
        land).  Returns the number of zones the primary accepted; a
        refusal (primary not in NOTIFY mode) just leaves that zone on
        the polling refresh loop.
        """
        if self.endpoint is None:
            raise RuntimeError(f"{self.name}: listen() before subscribing")
        granted = 0
        for zone in self.zones:
            request = NotifySubscribeRequest(
                zone.origin, str(self.endpoint.address), self.endpoint.port
            )
            reply = yield self.transport.request(
                self.host, self.primary, request, 64
            )
            if (
                isinstance(reply, NotifySubscribeResponse)
                and reply.status == STATUS_OK
            ):
                granted += 1
        return granted

    def _handle_notify(self, request: NotifyRequest, responder):
        """The primary says the zone moved: pull the delta right now.

        The pull reuses the refresh path but forces IXFR — a push-
        triggered refresh is exactly the churn-proportional case the
        journal exists for.  Concurrent pushes for the same origin
        coalesce onto the in-flight pull.
        """
        zone = self.zone_named(DomainName(request.origin))
        yield self.host.cpu.compute(1.0)
        if zone is None:
            return
        if request.serial <= self.replica_serials.get(zone.origin, 0):
            return
        if zone.origin in self._notify_pulls:
            return
        self._notify_pulls.add(zone.origin)
        self.env.stats.counter(f"bind.{self.name}.notify_pulls").increment()
        try:
            yield from self._refresh_zone(zone, force_ixfr=True)
        except (NetworkError, RemoteCallError):
            # The polling refresh loop will catch the zone up later.
            self.env.stats.counter(
                f"bind.{self.name}.refresh_failures"
            ).increment()
        finally:
            self._notify_pulls.discard(zone.origin)

    @property
    def is_synchronized(self) -> bool:
        """True once every replica zone has been pulled at least once."""
        return all(serial > 0 for serial in self.replica_serials.values())
