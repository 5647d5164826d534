"""Adaptive replica selection state for the meta read path.

The :class:`ReplicaScheduler` keeps, per replica endpoint, an EWMA of
observed request latency, an in-flight counter, and a circuit breaker,
and turns them into an ordered try-plan for each exchange:

- endpoints whose breaker is **open** are skipped up front (instead of
  being timed out in static order, which is what the prototype's
  failover list does);
- among the healthy endpoints, the first to try is the better-scored of
  two picked at random (power-of-two-choices, from a named RNG stream
  so runs stay deterministic), and the rest follow in score order;
- a bounded window of recent successful latencies yields the hedge
  delay: the :data:`HEDGE_QUANTILE` of that distribution.

Every counter is mirrored into the stats registry as
``bind.replica.<endpoint>.<counter>`` (``requests``, ``hedges``,
``wins``, ``errors``, ``skipped``), matching the ``cache.<name>.*``
convention; the latency estimate is the state's ``ewma_ms``.
"""

from __future__ import annotations

import collections
import typing

from repro.net.addresses import Endpoint
from repro.resolution import CircuitBreaker
from repro.sim.kernel import Environment

#: weight of the newest latency sample in the per-endpoint EWMA
EWMA_ALPHA = 0.3
#: hedge once a lookup is outstanding past this quantile of the recent
#: successful-latency window
HEDGE_QUANTILE = 0.95
#: consecutive failures that trip a replica's breaker
BREAKER_THRESHOLD = 3
#: score penalty per outstanding request on an endpoint, so load
#: spreads even while latency estimates are equal
INFLIGHT_PENALTY_MS = 25.0
#: extra replicas one exchange hedges onto
MAX_HEDGES = 1
#: successful samples required before hedging arms
HEDGE_MIN_SAMPLES = 8
#: floor and ceiling on the computed hedge delay
HEDGE_MIN_DELAY_MS = 1.0
HEDGE_MAX_DELAY_MS = 1_000.0
#: how long a tripped replica stays skipped before one probe
BREAKER_RESET_MS = 10_000.0


class ReplicaState:
    """Everything the scheduler knows about one replica endpoint."""

    def __init__(self, env: Environment, endpoint: Endpoint):
        self.endpoint = endpoint
        #: stable stat label, e.g. ``"10.0.0.2:530"``
        self.label = str(endpoint)
        #: EWMA of observed latency; None until the first sample
        self.ewma_ms: typing.Optional[float] = None
        #: requests currently outstanding against this endpoint
        self.inflight = 0
        self.breaker = CircuitBreaker(
            env, self.label, BREAKER_THRESHOLD, BREAKER_RESET_MS
        )

    def __repr__(self) -> str:
        ewma = "?" if self.ewma_ms is None else f"{self.ewma_ms:.1f}"
        return (
            f"<ReplicaState {self.label} ewma={ewma}ms "
            f"inflight={self.inflight} breaker={self.breaker.state}>"
        )


class ReplicaScheduler:
    """Orders a resolver's replicas by observed behaviour.

    One scheduler is owned by one :class:`~repro.bind.resolver.
    BindResolver` whose :class:`~repro.resolution.ReplicaPolicy` is
    enabled; the endpoints are its primary followed by its secondaries.
    """

    #: recent successful latencies kept for the hedge-delay quantile
    WINDOW = 128

    def __init__(
        self,
        env: Environment,
        endpoints: typing.Sequence[Endpoint],
        name: str = "resolver",
    ):
        if not endpoints:
            raise ValueError("scheduler needs at least one endpoint")
        self.env = env
        self.name = name
        self.states = [ReplicaState(env, ep) for ep in endpoints]
        self._window: typing.Deque[float] = collections.deque(maxlen=self.WINDOW)

    # ------------------------------------------------------------------
    def _count(self, state: ReplicaState, counter: str, amount: int = 1) -> None:
        self.env.stats.counter(
            f"bind.replica.{state.label}.{counter}"
        ).increment(amount)

    def _score(self, state: ReplicaState) -> float:
        # Untried endpoints score below any measured one so they get
        # explored; in-flight requests push an endpoint down the order.
        base = -1.0 if state.ewma_ms is None else state.ewma_ms
        return base + state.inflight * INFLIGHT_PENALTY_MS

    # ------------------------------------------------------------------
    def plan(self) -> typing.List[ReplicaState]:
        """The ordered list of replicas to try for one exchange."""
        states = list(self.states)
        candidates = states
        healthy = [s for s in states if s.breaker.state != "open"]
        if healthy:
            for state in states:
                if state.breaker.state == "open":
                    self._count(state, "skipped")
            candidates = healthy
        # else: every breaker is open — fall through with the full
        # static order rather than refuse outright.
        if len(candidates) < 2:
            return candidates
        rng = self.env.rng.stream(f"bind.replica.p2c:{self.name}")
        i, j = rng.sample(range(len(candidates)), 2)
        a, b = candidates[i], candidates[j]
        first = a if self._score(a) <= self._score(b) else b
        rest = sorted(
            (s for s in candidates if s is not first), key=self._score
        )
        return [first] + rest

    def hedge_delay_ms(self) -> typing.Optional[float]:
        """How long to wait before hedging, or None to not hedge.

        The :data:`HEDGE_QUANTILE` of the recent successful-latency
        window, clamped to ``[HEDGE_MIN_DELAY_MS, HEDGE_MAX_DELAY_MS]``;
        no hedging until ``HEDGE_MIN_SAMPLES`` samples have accumulated.
        """
        if len(self._window) < HEDGE_MIN_SAMPLES:
            return None
        ordered = sorted(self._window)
        k = (len(ordered) - 1) * HEDGE_QUANTILE
        lo = int(k)
        hi = min(lo + 1, len(ordered) - 1)
        q = ordered[lo] + (ordered[hi] - ordered[lo]) * (k - lo)
        return min(max(q, HEDGE_MIN_DELAY_MS), HEDGE_MAX_DELAY_MS)

    # ------------------------------------------------------------------
    def record_start(self, state: ReplicaState, hedge: bool = False) -> None:
        """A request is being issued to ``state``'s endpoint."""
        state.inflight += 1
        self._count(state, "requests")
        if hedge:
            self._count(state, "hedges")

    def record_success(
        self, state: ReplicaState, latency_ms: float, won: bool
    ) -> None:
        """The endpoint answered after ``latency_ms``; ``won`` marks the
        reply that was actually used (hedge losers answer too)."""
        state.inflight = max(0, state.inflight - 1)
        self._observe(state, latency_ms)
        self._window.append(latency_ms)
        state.breaker.record_success()
        if won:
            self._count(state, "wins")

    def record_failure(self, state: ReplicaState, latency_ms: float) -> None:
        """The request failed (timeout / network error) after
        ``latency_ms`` of wasted waiting — which is real latency signal,
        so it feeds the EWMA too."""
        state.inflight = max(0, state.inflight - 1)
        self._observe(state, latency_ms)
        state.breaker.record_failure()
        self._count(state, "errors")

    def _observe(self, state: ReplicaState, latency_ms: float) -> None:
        if state.ewma_ms is None:
            state.ewma_ms = latency_ms
        else:
            state.ewma_ms = EWMA_ALPHA * latency_ms + (1.0 - EWMA_ALPHA) * state.ewma_ms
