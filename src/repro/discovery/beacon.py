"""Beacon-based presence: the ad-hoc tier's active and passive halves.

The HNS assumes administered name services; this subsystem covers the
hosts that have none — laptops and lab machines that appear on a
segment, advertise what they serve, and vanish without deregistering.

- :class:`BeaconService` is the *active* half: a per-host service that
  periodically broadcasts a signed :class:`PresenceBeacon` (name set +
  address + incarnation number) with a jittered period, answers
  liveness probes, and runs the watchdog sweep over its own cache.
- :class:`DiscoveryCache` is the *passive* half: every listener builds
  a view of the segment purely from overheard beacons.  Each entry
  carries two deadlines — a TTL and a liveness watchdog (a small
  multiple of the advertised beacon period) — and the earlier one wins,
  so a vanished host stops being served long before its TTL would have
  let it go.  Conflicts resolve last-writer-wins on incarnation number.

Eviction is *suspect-before-evict* when the policy asks for it: a
watchdog-lapsed entry is probed once (unicast) before removal, so one
lost beacon does not flap the membership view.
"""

from __future__ import annotations

import collections
import dataclasses
import functools
import hashlib
import typing

from repro.broadcast.locator import LOCATOR_PORT, NameOwnerService
from repro.discovery.messages import (
    BEACON_PORT,
    SEGMENT_SECRET,
    PresenceBeacon,
    ProbeRequest,
    ProbeResponse,
)
from repro.memo import first_use
from repro.net.addresses import Endpoint
from repro.net.errors import HostDown, NoRouteToHost, TransportTimeout
from repro.net.host import Host, Service
from repro.net.transport import DatagramTransport, RemoteCallError
from repro.obs.span import NULL_SPAN
from repro.resolution import DEFAULT_DISCOVERY_POLICY, DiscoveryPolicy
from repro.sim.stats import Counter

#: CPU cost for a listener to verify + absorb one overheard beacon
OBSERVE_COST_MS = 0.4
#: CPU cost to answer a liveness probe
PROBE_COST_MS = 0.5
#: fraction of the beacon period randomised away (named RNG stream per
#: host), so peers never beacon in lockstep
BEACON_JITTER = 0.2
#: how long the watchdog waits for a probe reply
PROBE_TIMEOUT_MS = 250.0


@dataclasses.dataclass
class DiscoveryEntry:
    """One name in a listener's passive membership view."""

    name: str
    owner: str           # host name
    address: str         # dotted quad
    value: str           # advertised data (a port, stringified)
    incarnation: int
    heard_at: float      # env.now of the last accepted beacon
    ttl_deadline: float
    watchdog_deadline: float
    suspect: bool = False

    def deadline(self, liveness: bool) -> float:
        """The effective expiry: watchdog races TTL when liveness is on."""
        if liveness:
            return min(self.ttl_deadline, self.watchdog_deadline)
        return self.ttl_deadline


class DiscoveryCache:
    """Passive per-listener membership view built from overheard beacons.

    Pure state plus deadlines: the owning :class:`BeaconService` runs the
    sweep process and the probes.  ``on_evict`` callbacks let consumers
    (notably :class:`~repro.discovery.nsm.DiscoveryNsm`) drop their own
    derived state the moment liveness eviction fires.
    """

    def __init__(self, env, policy: DiscoveryPolicy = DEFAULT_DISCOVERY_POLICY):
        self.env = env
        self.policy = policy
        self._entries: typing.Dict[str, DiscoveryEntry] = {}
        # owner -> the keys it holds: what its next beacon could retract
        self._held: typing.DefaultDict[str, typing.Set[str]] = collections.defaultdict(set)
        # highest incarnation ever heard per owner: stale-beacon filter
        self._owner_incarnation: typing.Dict[str, int] = {}
        self._on_evict: typing.List[
            typing.Callable[[DiscoveryEntry, str], None]
        ] = []

    # ------------------------------------------------------------------
    def on_evict(
        self, callback: typing.Callable[[DiscoveryEntry, str], None]
    ) -> None:
        """Register ``callback(entry, reason)`` for every eviction."""
        self._on_evict.append(callback)

    def observe(self, beacon: PresenceBeacon) -> int:
        """Absorb one overheard beacon; returns entries added/refreshed.

        Last-writer-wins on incarnation: a beacon older than the highest
        incarnation heard from its owner is dropped whole, and a name
        moves between owners only when the newcomer's incarnation is at
        least as new as the holder's.  A fresh beacon also *retracts*:
        names this owner previously advertised but no longer does are
        evicted immediately.
        """
        owner, address, incarnation = beacon.owner, beacon.address, beacon.incarnation
        if incarnation < self._owner_incarnation.get(owner, 0):
            self.env.stats.counter("discovery.stale_beacons").increment()
            return 0
        self._owner_incarnation[owner] = incarnation
        entries = self._entries
        held = self._held[owner]
        # Retraction: the owner speaks for its own name set.
        retracted = held.difference(map(str.lower, beacon.names))
        if retracted:
            for key in [key for key in entries if key in retracted]:
                self._evict(key, "retracted")
        now = self.env.now
        ttl_deadline = now + self.policy.entry_ttl_ms
        watchdog_deadline = now + self.policy.watchdog_deadline_ms()
        touched = 0
        for name, value in beacon.names.items():
            key = name.lower()
            entry = entries.get(key)
            if entry is not None and entry.owner != owner:
                if incarnation < entry.incarnation:
                    # A different owner already holds the name with a newer
                    # incarnation: the overheard claim lost the write race.
                    self.env.stats.counter("discovery.lww_rejects").increment()
                    continue
                self._held[entry.owner].discard(key)
            entries[key] = DiscoveryEntry(
                name, owner, address, value, incarnation,
                now, ttl_deadline, watchdog_deadline,
            )
            held.add(key)
            touched += 1
        if touched:
            self._observed.increment(touched)
        return touched

    @first_use
    def _observed(self) -> Counter:
        """Bound at the first absorbed name: no stat until counted."""
        return self.env.stats.counter("discovery.observed")

    # ------------------------------------------------------------------
    def lookup(self, name: str) -> typing.Optional[DiscoveryEntry]:
        """Serve ``name`` from the view, or None.

        TTL-expired entries are evicted on the spot.  Watchdog-lapsed
        entries are *misses* but are left in place — the sweep's
        suspect-probe may yet resurrect them — so a query mid-lapse
        falls back to re-query rather than serving a maybe-dead binding.
        """
        key = name.lower()
        entry = self._entries.get(key)
        if entry is None:
            return None
        now = self.env.now
        if now >= entry.ttl_deadline:
            self._evict(key, "ttl")
            return None
        if self.policy.liveness and now >= entry.watchdog_deadline:
            self.env.stats.counter("discovery.watchdog_misses").increment()
            return None
        return entry

    def peek(self, name: str) -> typing.Optional[DiscoveryEntry]:
        """The raw entry, deadlines ignored (for tests and the sweep)."""
        return self._entries.get(name.lower())

    def entries(self) -> typing.List[DiscoveryEntry]:
        return list(self._entries.values())

    def __len__(self) -> int:
        return len(self._entries)

    def remaining_ms(self, entry: DiscoveryEntry) -> float:
        """Time until the effective deadline (may be <= 0)."""
        return entry.deadline(self.policy.liveness) - self.env.now

    # ------------------------------------------------------------------
    def refresh(self, entry: DiscoveryEntry) -> None:
        """A probe confirmed liveness: push the deadlines out."""
        now = self.env.now
        entry.heard_at = now
        entry.ttl_deadline = now + self.policy.entry_ttl_ms
        entry.watchdog_deadline = now + self.policy.watchdog_deadline_ms()
        entry.suspect = False
        self.env.stats.counter("discovery.probe_refreshes").increment()

    def evict(self, name: str, reason: str) -> bool:
        return self._evict(name.lower(), reason)

    def _evict(self, key: str, reason: str) -> bool:
        entry = self._entries.pop(key, None)
        if entry is None:
            return False
        self._held[entry.owner].discard(key)
        self.env.stats.counter("discovery.evictions").increment()
        self.env.stats.counter(f"discovery.evict.{reason}").increment()
        self.env.trace.emit(
            "discovery",
            f"evicted {entry.name} (owner {entry.owner}, {reason})",
            incarnation=entry.incarnation,
        )
        for callback in self._on_evict:
            callback(entry, reason)
        return True

    # ------------------------------------------------------------------
    def membership_digest(self) -> str:
        """Stable digest of the live view: (name, owner, incarnation).

        Two listeners with identical views produce identical digests —
        the convergence check the partition/heal scenario asserts.
        Deadline-expired entries are excluded without being evicted, so
        digesting is read-only (digest-neutral for determinism runs).
        """
        now = self.env.now
        lines = sorted(
            f"{entry.name.lower()}|{entry.owner}|{entry.incarnation}|{entry.address}"
            for entry in self._entries.values()
            if now < entry.deadline(self.policy.liveness)
        )
        raw = "\n".join(lines).encode("utf-8")
        return hashlib.sha256(raw).hexdigest()[:16]


class BeaconService(Service):
    """The active half: beacon loop, probe answering, watchdog sweep.

    Binds :data:`BEACON_PORT`.  Also keeps a co-resident
    :class:`~repro.broadcast.locator.NameOwnerService` (creating one on
    :data:`LOCATOR_PORT` unless the host already has one) mirrored with
    this host's announcements, so the one-shot broadcast locator — the
    re-query fallback on a cache miss — resolves the same names.
    """

    def __init__(
        self,
        host: Host,
        transport: DatagramTransport,
        policy: DiscoveryPolicy = DEFAULT_DISCOVERY_POLICY,
        secret: str = SEGMENT_SECRET,
    ):
        self.host = host
        self.env = host.env
        self.transport = transport
        self.policy = policy
        self.secret = secret
        self.cache = DiscoveryCache(host.env, policy)
        self.incarnation = 1
        self._names: typing.Dict[str, str] = {}
        existing = host.service_at(LOCATOR_PORT)
        if isinstance(existing, NameOwnerService):
            self.owner_service = existing
        else:
            self.owner_service = NameOwnerService(host)
        host.bind(BEACON_PORT, self)
        self.env.process(self._beacon_loop(), name=f"{host.name}.beacon")
        self.env.process(self._watchdog_loop(), name=f"{host.name}.watchdog")

    # ------------------------------------------------------------------
    # Advertisement
    # ------------------------------------------------------------------
    def announce(self, name: str, port: int) -> None:
        """Advertise a name this host serves (carried by every beacon)."""
        if not name:
            raise ValueError("cannot announce the empty name")
        self._names[name] = str(port)
        self.owner_service.own(name, port=port)

    def retract(self, name: str) -> bool:
        """Stop advertising; listeners retract on the next beacon."""
        self.owner_service.disown(name)
        return self._names.pop(name, None) is not None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def restart(self) -> None:
        """Model a host restart: bump the incarnation so listeners'
        last-writer-wins reconciles to the new life."""
        self.incarnation += 1
        self.env.stats.counter("discovery.restarts").increment()

    # ------------------------------------------------------------------
    # Processes
    # ------------------------------------------------------------------
    def _period_ms(self) -> float:
        """Jittered beacon period — desynchronizes the segment's hosts."""
        rng = self.env.rng.stream(f"discovery.beacon:{self.host.name}")
        return self.policy.beacon_period_ms * (
            1.0 - BEACON_JITTER + 2.0 * BEACON_JITTER * rng.random()
        )

    def _beacon_loop(self) -> typing.Generator:
        while True:
            yield self.env.timeout(self._period_ms())
            if not self.host.is_up:
                continue
            beacon = PresenceBeacon.signed(
                owner=self.host.name,
                address=str(self.host.address),
                incarnation=self.incarnation,
                names=self._names,
                secret=self.secret,
            )
            obs = self.env.obs
            with (
                obs.span(
                    "discovery.beacon",
                    owner=self.host.name,
                    incarnation=self.incarnation,
                    names=len(self._names),
                )
                if obs.enabled
                else NULL_SPAN
            ):
                self.env.stats.counter("discovery.beacons_sent").increment()
                # A host hears itself: its own names belong in its own
                # view, or per-host membership digests could never match.
                self.cache.observe(beacon)
                yield from self.transport.broadcast(
                    self.host,
                    BEACON_PORT,
                    beacon,
                    size_bytes=64 + 16 * max(1, len(self._names)),
                    wait_ms=1.0,  # one-way: no replies to gather
                )

    def _watchdog_loop(self) -> typing.Generator:
        """Sweep the passive view; probe suspects before evicting."""
        interval = self.policy.beacon_period_ms
        while True:
            yield self.env.timeout(interval)
            if not self.host.is_up:
                continue
            now = self.env.now
            for entry in self.cache.entries():
                current = self.cache.peek(entry.name)
                if current is not entry:
                    continue  # replaced since the scan snapshot
                if now >= entry.ttl_deadline:
                    self._evict_with_span(entry, "ttl")
                    continue
                if not self.policy.liveness or now < entry.watchdog_deadline:
                    continue
                entry.suspect = True
                self.env.stats.counter("discovery.probes").increment()
                alive = yield from self._probe(entry)
                if alive:
                    self.cache.refresh(entry)
                else:
                    self._evict_with_span(entry, "probe_failed")

    def _probe(self, entry: DiscoveryEntry) -> typing.Generator:
        """One unicast liveness check; False on silence or refusal."""
        try:
            reply = yield self.transport.request(
                self.host,
                Endpoint(entry.address, BEACON_PORT),
                ProbeRequest(entry.name),
                size_bytes=48,
                timeout_ms=PROBE_TIMEOUT_MS,
            )
        except (TransportTimeout, HostDown, NoRouteToHost, RemoteCallError):
            return False
        return (
            isinstance(reply, ProbeResponse)
            and reply.alive
            and reply.incarnation >= entry.incarnation
        )

    def _evict_with_span(self, entry: DiscoveryEntry, reason: str) -> None:
        obs = self.env.obs
        with (
            obs.span(
                "discovery.evict",
                name=entry.name,
                owner=entry.owner,
                reason=reason,
            )
            if obs.enabled
            else NULL_SPAN
        ):
            self.cache.evict(entry.name, reason)

    # ------------------------------------------------------------------
    # Service interface: overheard beacons and liveness probes
    # ------------------------------------------------------------------
    def handle(self, datagram, responder):
        payload = datagram.payload
        if isinstance(payload, PresenceBeacon):
            # Hearing a beacon is one charge, then state: no process.
            self.host.cpu.compute(OBSERVE_COST_MS).callbacks.append(
                functools.partial(self._absorb, payload)
            )
            return None
        if isinstance(payload, ProbeRequest):
            return self._answer_probe(payload.name, responder)
        return None

    def _absorb(self, beacon: PresenceBeacon, _charge) -> None:
        if beacon.verify(self.secret):
            self.cache.observe(beacon)
        else:
            self.env.stats.counter("discovery.bad_signatures").increment()

    def _answer_probe(self, name: str, responder) -> typing.Generator:
        yield self.host.cpu.compute(PROBE_COST_MS)
        responder(
            ProbeResponse(
                name=name,
                owner=self.host.name,
                incarnation=self.incarnation,
                alive=name in self._names,
            ),
            size_bytes=48,
        )
