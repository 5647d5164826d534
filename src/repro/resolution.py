"""Fault-tolerant resolution: the :class:`ResolutionPolicy` API.

The paper leans on replicated meta-storage ("a modified BIND") and
specialized caching for availability, but says little about what a
client should *do* when a lookup fails mid-flight.  This module is that
missing layer: one declarative policy object that every stage of the
resolution path (the meta resolver, ``FindNSM``, ``Import``, the HRPC
runtime) consults to decide

- how many times to try a remote call and with what per-call timeout,
- how long to back off between attempts (a fixed exponential ladder,
  :func:`backoff_ms`, jittered from the simulation's named RNG streams
  so runs stay deterministic),
- whether to cache negative (NXDOMAIN) answers and for how long,
- whether to serve *stale* cached data when the authoritative server is
  unreachable, and for how long past expiry, and
- when to trip a per-target circuit breaker and fail fast instead of
  burning timeouts against a dead server.

The degradation ladder is: fresh cache hit -> retry with backoff ->
stale cache hit -> fail fast (breaker open).  Every rung is observable
in the stats registry (``*.retries``, ``*.stale_hits``,
``*.breaker.*``).

The module sits below :mod:`repro.bind`, :mod:`repro.hrpc`, and
:mod:`repro.core` in the dependency order so all of them can share it.

Its sibling :class:`FastPathPolicy` governs the *performance* side of
the same path: single-flight coalescing of identical in-flight lookups,
refresh-ahead cache renewal, and batched meta lookups.  Both policies
follow the same pattern — a frozen dataclass whose ``.disabled()``
constructor reproduces the paper-faithful prototype behaviour, so
benchmarks can ablate each mechanism independently.
"""

from __future__ import annotations

import dataclasses
import random
import typing

from repro.net.errors import is_transient
from repro.obs.span import NULL_SPAN
from repro.sim.kernel import Environment


@dataclasses.dataclass(frozen=True)
class ResolutionPolicy:
    """Declarative fault-tolerance knobs for the whole resolution path.

    One instance is typically shared by a :class:`~repro.core.metastore.
    MetaStore`, its :class:`~repro.core.hns.HNS`, and the
    :class:`~repro.core.import_call.HrpcImporter` built on top, so the
    layers degrade coherently.
    """

    #: total tries per logical operation (1 = no retry); the delays
    #: between them are :func:`backoff_ms`
    attempts: int = 4
    #: per-call transport timeout; None defers to the transport default
    call_timeout_ms: typing.Optional[float] = 1_000.0
    #: TTL for cached NXDOMAIN answers (0 disables negative caching)
    negative_ttl_ms: float = 30_000.0
    #: how long past expiry a cached answer may be served when the
    #: authoritative server is unreachable (0 disables serve-stale)
    stale_window_ms: float = 120_000.0
    #: consecutive failures that trip a per-target circuit breaker
    #: (0 disables circuit breaking); it re-closes after
    #: :data:`BREAKER_RESET_MS`
    breaker_threshold: int = 3

    def __post_init__(self) -> None:
        if self.attempts < 1:
            raise ValueError("attempts must be >= 1")
        if self.call_timeout_ms is not None and self.call_timeout_ms <= 0:
            raise ValueError("call timeout must be positive or None")
        if self.negative_ttl_ms < 0:
            raise ValueError("negative-cache TTL must be >= 0")
        if self.stale_window_ms < 0:
            raise ValueError("stale window must be >= 0")
        if self.breaker_threshold < 0:
            raise ValueError("breaker threshold must be >= 0")

    # ------------------------------------------------------------------
    @classmethod
    def disabled(cls) -> "ResolutionPolicy":
        """The pre-fault-tolerance behaviour: one try, no caching of
        failures, no stale serving, no breaker.  Benchmarks use this as
        the ablation baseline."""
        return cls(
            attempts=1,
            call_timeout_ms=None,
            negative_ttl_ms=0.0,
            stale_window_ms=0.0,
            breaker_threshold=0,
        )


#: The backoff ladder: first delay, growth per retry, ceiling on any one
#: delay, and the fraction of each delay randomised away.
BACKOFF_BASE_MS = 50.0
BACKOFF_MULTIPLIER = 2.0
BACKOFF_MAX_MS = 2_000.0
BACKOFF_JITTER = 0.5
#: How long a tripped per-target breaker stays open before one probe.
BREAKER_RESET_MS = 30_000.0


def backoff_ms(retry_index: int, rng: random.Random) -> float:
    """Delay before retry ``retry_index`` (0 = first retry); always > 0.

    Exponential in ``retry_index``, capped at :data:`BACKOFF_MAX_MS`,
    with up to :data:`BACKOFF_JITTER` of the delay replaced by a uniform
    draw so synchronised clients do not retry in lockstep.
    """
    if retry_index < 0:
        raise ValueError("retry index must be >= 0")
    delay = min(BACKOFF_BASE_MS * (BACKOFF_MULTIPLIER ** retry_index), BACKOFF_MAX_MS)
    floor = delay * (1.0 - BACKOFF_JITTER)
    return floor + rng.random() * (delay - floor)


#: The policy used throughout the stack unless a caller overrides it.
DEFAULT_RESOLUTION_POLICY = ResolutionPolicy()


@dataclasses.dataclass(frozen=True)
class FastPathPolicy:
    """Performance knobs for the hot resolution path.

    The paper's cold ``FindNSM`` is six strictly sequential data
    mappings, "each of which involves a remote call in the case of a
    cache miss", and every concurrent miss on a host fires its own
    duplicate remote call.  This policy enables the three mechanisms
    that fix that under load:

    - **single-flight coalescing** (``coalesce``): concurrent identical
      ``(owner, rtype)`` lookups on one host share one in-flight remote
      call; followers park on the leader's event and pay only the
      cache-copy cost.  A leader failure propagates the one classified
      error to every follower.
    - **refresh-ahead renewal** (``refresh_ahead_fraction``): a probe
      that hits within the last ``fraction`` of an entry's TTL spawns a
      background renewal, so hot keys never go cold and tail latency
      stays at cache-hit cost.  Renewal failures are silent — the entry
      simply ages out and the :class:`ResolutionPolicy` serve-stale
      ladder takes over.
    - **batched meta lookups** (``batch_meta_lookups``): ``FindNSM``
      fetches mappings 1–3 as one chained multi-question query and the
      NSM-host address as one more — two round trips instead of six.
    """

    #: share one remote call among concurrent identical lookups
    coalesce: bool = True
    #: a hit this close to expiry (as a fraction of the entry's TTL)
    #: triggers a background renewal; 0 disables refresh-ahead
    refresh_ahead_fraction: float = 0.2
    #: resolve FindNSM's meta mappings with chained batch queries
    batch_meta_lookups: bool = True

    def __post_init__(self) -> None:
        if not 0.0 <= self.refresh_ahead_fraction <= 1.0:
            raise ValueError("refresh-ahead fraction must be in [0, 1]")

    @classmethod
    def disabled(cls) -> "FastPathPolicy":
        """The paper's six-sequential-mapping behaviour: no coalescing,
        no refresh-ahead, no batching.  The ablation baseline."""
        return cls(
            coalesce=False,
            refresh_ahead_fraction=0.0,
            batch_meta_lookups=False,
        )


@dataclasses.dataclass(frozen=True)
class ReplicaPolicy:
    """Replica-aware meta reads: how a resolver *exploits* replication.

    The paper replicates the meta store "for the usual reasons of
    performance, availability, and scalability" but the prototype client
    walks its replicas as a static ordered failover list: the primary is
    tried first, every time, and a dead or slow replica is only
    discovered by burning a full timeout against it.  This policy is one
    switch for the mechanisms that make reads replica-aware (their
    constants live in :mod:`repro.bind.replica`):

    - **adaptive replica selection**: per-endpoint EWMA latency and
      in-flight counters; the first replica tried is the better of two
      sampled at random (power-of-two-choices), the rest are ordered by
      score.
    - **per-replica circuit breakers**: an endpoint whose breaker is
      open is skipped up front instead of timed out in order.
    - **hedged queries**: once a lookup has been outstanding for the
      ``HEDGE_QUANTILE`` of the observed per-replica latency
      distribution, the same question is re-issued once to the
      next-best replica; the first answer wins and the loser's result is
      discarded.  Hedging composes with single-flight coalescing (only
      the coalescing leader ever hedges) and with the
      :class:`ResolutionPolicy` retry ladder (each retry round hedges
      independently).

    Reads only: a cache preload is one AXFR either way, and the
    incremental transfers a NOTIFY push triggers follow
    :class:`UpdatePolicy`.
    """

    #: all three mechanisms; False keeps the prototype's static
    #: ``[primary] + secondaries`` walk
    enabled: bool = True

    @classmethod
    def disabled(cls) -> "ReplicaPolicy":
        """The prototype behaviour: static primary-then-secondaries
        failover, no hedging, no per-replica breakers.  The ablation
        baseline."""
        return cls(enabled=False)


@dataclasses.dataclass(frozen=True)
class UpdatePolicy:
    """Write-path knobs: batched dynamic update and cache invalidation.

    The paper's prototype writes one record per round trip and lets
    caches find out about changes only when their TTL runs out — yet
    "evolving systems" (system merges, NSM rebinding waves, mass host
    renumbering) is the paper's core story.  This policy gates the
    production write path:

    - **batched updates** (``batch``): registrations issued within the
      metastore's short coalescing window on one host travel as a
      single ``UpdateBatchRequest`` datagram, with last-writer-wins
      merging of same-owner operations.  An NSM rebinding wave becomes
      one round trip instead of one per mapping.
    - **lease-based invalidation** (``invalidation="lease"``):
      registrations carry a lease the client must keep renewing; when
      the renewals stop, the primary retracts the binding on expiry and
      caps advertised TTLs to the lease remainder so caches never hold
      a binding longer than its owner is known to be alive.
    - **NOTIFY-based invalidation** (``invalidation="notify"``): the
      primary pushes SOA-serial bumps to each subscribed
      :class:`~repro.bind.primary.CacheInstaller`, which pulls just the
      deltas through the IXFR journal and installs them straight into
      its cache.
    """

    #: coalesce concurrent registrations into one batched round trip
    batch: bool = True
    #: how caches learn about changes: "ttl" (wait for expiry),
    #: "lease" (bindings lapse with their owner), or "notify"
    #: (primary pushes serial bumps; subscribers pull IXFR deltas)
    invalidation: str = "ttl"
    #: lease duration granted with each registration (lease mode)
    lease_ms: float = 10_000.0

    def __post_init__(self) -> None:
        if self.invalidation not in ("ttl", "lease", "notify"):
            raise ValueError("invalidation must be ttl, lease, or notify")
        if self.lease_ms <= 0:
            raise ValueError("lease duration must be positive")

    # ------------------------------------------------------------------
    @property
    def leases(self) -> bool:
        """Whether registrations carry (and must renew) leases."""
        return self.invalidation == "lease"

    @property
    def notify(self) -> bool:
        """Whether the primary pushes serial bumps to subscribers."""
        return self.invalidation == "notify"

    @property
    def active(self) -> bool:
        """Whether any part of the pipeline diverges from the prototype.

        When False, registration runs the exact one-record-at-a-time
        code path the prototype uses (bit-identical traces).
        """
        return self.batch or self.invalidation != "ttl"

    @classmethod
    def disabled(cls) -> "UpdatePolicy":
        """The prototype behaviour: one record per round trip, caches
        invalidated only by TTL expiry.  The ablation baseline."""
        return cls(batch=False, invalidation="ttl")


@dataclasses.dataclass(frozen=True)
class DiscoveryPolicy:
    """Ad-hoc discovery knobs: beacons, liveness, and re-query fallback.

    The broadcast tier (:mod:`repro.broadcast`) locates a name with one
    multicast question per lookup — every query taxes every host on the
    segment.  The discovery tier (:mod:`repro.discovery`) amortizes
    that: each host periodically broadcasts a signed presence beacon
    (name set + address + incarnation), every listener folds beacons
    into a passive membership view, and lookups become local table
    probes.  This policy tunes the mechanisms that make the view safe
    to trust:

    - **beaconing** (``beacon_period_ms``): the advertisement cadence,
      jittered per host so a segment of peers never beats in lockstep.
    - **watchdog liveness** (``watchdog_multiplier``): an entry whose
      owner has been silent for ``period x multiplier`` is evicted —
      liveness-driven eviction racing (and normally beating) plain TTL
      expiry.  0 disables the watchdog: entries die by TTL only.

    Two behaviours ride along unconditionally: a watchdog-lapsed entry
    gets one direct unicast probe before eviction, so a host whose
    beacons were merely lost is refreshed, not dropped; and a lookup
    that misses the membership view falls back to a one-shot broadcast
    :class:`~repro.broadcast.NameQuery` before failing.
    """

    #: nominal gap between presence beacons
    beacon_period_ms: float = 1_000.0
    #: TTL stamped on membership entries — the slow eviction path the
    #: watchdog races
    entry_ttl_ms: float = 30_000.0
    #: watchdog deadline = beacon period x this; 0 disables
    #: liveness-driven eviction (entries die by TTL only)
    watchdog_multiplier: float = 3.0
    #: reply window for the broadcast fallback
    broadcast_wait_ms: float = 60.0

    def __post_init__(self) -> None:
        if self.beacon_period_ms <= 0:
            raise ValueError("beacon period must be positive")
        if self.entry_ttl_ms <= 0:
            raise ValueError("entry TTL must be positive")
        if self.watchdog_multiplier < 0:
            raise ValueError("watchdog multiplier must be >= 0")
        if self.broadcast_wait_ms <= 0:
            raise ValueError("broadcast wait window must be positive")

    # ------------------------------------------------------------------
    @property
    def liveness(self) -> bool:
        """Whether watchdog (liveness-driven) eviction is armed."""
        return self.watchdog_multiplier > 0

    def watchdog_deadline_ms(self) -> float:
        """How long after the last beacon an entry is considered live."""
        return self.beacon_period_ms * self.watchdog_multiplier


#: Everything on: what the discovery scenarios and benchmarks opt into.
DEFAULT_DISCOVERY_POLICY = DiscoveryPolicy()


@dataclasses.dataclass(frozen=True)
class PolicySet:
    """One frozen bundle of the resolution-path policies.

    Every layer (:class:`~repro.core.metastore.MetaStore`,
    :class:`~repro.core.hns.HNS`, ``BindResolver``) takes the whole
    policy surface as this one object.  Every slot always holds a policy:
    a mechanism is switched off by its ``.disabled()`` instance, which is
    also the slot's default, so ``PolicySet()`` is the paper's prototype
    end to end and each layer decides once, at construction, which
    stages that leaves it.
    """

    resolution: ResolutionPolicy = ResolutionPolicy.disabled()
    fast_path: FastPathPolicy = FastPathPolicy.disabled()
    replica: ReplicaPolicy = ReplicaPolicy.disabled()
    update: UpdatePolicy = UpdatePolicy.disabled()

    def __post_init__(self) -> None:
        for slot in dataclasses.fields(self):
            if getattr(self, slot.name) is None:
                raise TypeError(
                    f"PolicySet.{slot.name} must be a policy, not None: "
                    f"pass {slot.type}.disabled() to switch it off"
                )

    @classmethod
    def default(cls) -> "PolicySet":
        """What the stack runs with when nothing is specified: fault
        tolerance on, the opt-in mechanisms (fast path, replica
        scheduling, write pipeline) off."""
        return cls(resolution=DEFAULT_RESOLUTION_POLICY)


def retrying(
    env: Environment,
    policy: ResolutionPolicy,
    attempt: typing.Callable[[int], typing.Generator],
    classify: typing.Callable[[BaseException], bool] = is_transient,
    rng_stream: str = "resolution.backoff",
    stat: str = "",
) -> typing.Generator:
    """Drive ``attempt(i)`` up to ``policy.attempts`` times.

    ``attempt`` must return a *fresh* generator per call (generators are
    single-use).  Only exceptions ``classify`` deems transient are
    retried; everything else — and the final exhausted attempt — raises
    to the caller.  Backoff delays are simulated time, jittered from the
    ``rng_stream`` named stream.  ``stat``, if given, names a counter
    incremented once per retry.
    """
    attempts = policy.attempts
    obs = env.obs
    for i in range(attempts):
        try:
            with (
                obs.span("resolution.attempt", op=rng_stream, attempt=i)
                if obs.enabled
                else NULL_SPAN
            ):
                result = yield from attempt(i)
            return result
        except Exception as err:  # noqa: BLE001 - classified below
            if i == attempts - 1 or not classify(err):
                raise
            if stat:
                env.stats.counter(stat).increment()
            yield env.timeout(backoff_ms(i, env.rng.stream(rng_stream)))
    raise AssertionError("unreachable")  # pragma: no cover


class CircuitBreaker:
    """Consecutive-failure circuit breaker over simulated time.

    Closed until ``threshold`` consecutive recorded failures, then open
    for ``reset_ms``; after that, half-open: one probe call is allowed
    through, and its outcome closes or re-opens the circuit.  A
    ``threshold`` of 0 disables the breaker entirely (always closed).
    """

    def __init__(
        self,
        env: Environment,
        target: str,
        threshold: int,
        reset_ms: float,
    ):
        if threshold < 0:
            raise ValueError("threshold must be >= 0")
        self.env = env
        self.target = target
        self.threshold = threshold
        self.reset_ms = reset_ms
        self.consecutive_failures = 0
        self.opened_at: typing.Optional[float] = None
        self._probe_outstanding = False

    # ------------------------------------------------------------------
    @property
    def state(self) -> str:
        """``"closed"``, ``"open"``, or ``"half-open"``."""
        if self.opened_at is None:
            return "closed"
        if self.env.now >= self.opened_at + self.reset_ms:
            return "half-open"
        return "open"

    def allow(self) -> bool:
        """May a call proceed right now?

        In the half-open state only the first caller gets through (the
        probe); concurrent callers are refused until its outcome lands.
        """
        if self.threshold == 0:
            return True
        state = self.state
        if state == "closed":
            return True
        if state == "half-open" and not self._probe_outstanding:
            self._probe_outstanding = True
            return True
        return False

    def record_success(self) -> None:
        """A call to the target completed: close the circuit."""
        self.consecutive_failures = 0
        self.opened_at = None
        self._probe_outstanding = False

    def record_failure(self) -> None:
        """A call to the target failed: maybe trip the circuit."""
        self._probe_outstanding = False
        self.consecutive_failures += 1
        if self.threshold and self.consecutive_failures >= self.threshold:
            self.opened_at = self.env.now


class CircuitBreakerRegistry:
    """Lazily creates one :class:`CircuitBreaker` per target name."""

    def __init__(self, env: Environment, policy: ResolutionPolicy):
        self.env = env
        self.policy = policy
        self._breakers: typing.Dict[str, CircuitBreaker] = {}

    def breaker(self, target: str) -> CircuitBreaker:
        """The breaker guarding ``target``, created on first use."""
        breaker = self._breakers.get(target)
        if breaker is None:
            breaker = CircuitBreaker(
                self.env,
                target,
                self.policy.breaker_threshold,
                BREAKER_RESET_MS,
            )
            self._breakers[target] = breaker
        return breaker

    def states(self) -> typing.Dict[str, str]:
        """target -> breaker state, for observability and tests."""
        return {name: b.state for name, b in self._breakers.items()}
