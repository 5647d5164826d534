"""The BIND client resolver.

Two client styles share this class:

- the **conventional resolver** using the standard (hand-coded) BIND
  library routines — this is what a 27 ms name-to-address lookup means;
- the **HRPC interface to BIND** the HNS built, whose request/response
  marshalling comes from the stub compiler (``marshalling="generated"``)
  and which pays an extra per-call Raw-HRPC control overhead.

Either style can run with no cache, a marshalled cache, or a
demarshalled cache — the three columns of Table 3.2.

This class is a read path only: cache probe → coalesce
(:mod:`repro.singleflight`) → retry rounds over a per-round replica
exchange → serve-stale.  Writes and transfers go to the primary alone,
through :class:`~repro.bind.primary.PrimaryClient` (``resolver.primary``),
and what a transfer brings back is written into a cache by
:class:`~repro.bind.primary.CacheInstaller`.
"""

from __future__ import annotations

import typing

from repro.bind.cache import NEGATIVE, CacheEntry, CacheFormat, ResolverCache
from repro.bind.errors import BindError, NameNotFound
from repro.bind.messages import (
    STATUS_NXDOMAIN,
    STATUS_OK,
    BatchQueryRequest,
    BatchQueryResponse,
    BatchQuestion,
    QueryRequest,
    QueryResponse,
    meta_field,
    substitute_label,
)
from repro.bind.names import DomainName
from repro.bind.primary import PrimaryClient, charge
from repro.bind.replica import MAX_HEDGES, ReplicaScheduler, ReplicaState
from repro.bind.rr import ResourceRecord, RRType
from repro.harness.calibration import Calibration, DEFAULT_CALIBRATION
from repro.memo import first_use, memoised
from repro.net.addresses import Endpoint
from repro.net.errors import NetworkError, is_transient
from repro.net.host import Host
from repro.net.transport import Transport
from repro.obs.span import NULL_SPAN
from repro.resolution import PolicySet, backoff_ms
from repro.serial import HandcodedMarshaller, StubCompiler
from repro.singleflight import SingleFlight

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.obs.span import SpanLike
    from repro.sim.events import Event
    from repro.sim.stats import Counter


@memoised
def cache_key(
    name: typing.Union[str, DomainName], rtype: RRType
) -> typing.Tuple[str, int]:
    """Where (name, rtype) lives in the cache: the canonical lower-case
    owner text and the type's wire value."""
    return (str(DomainName(name)), rtype.value)


class BindResolver:
    """Client-side cached lookup against one BIND server and its replicas."""

    def __init__(
        self,
        host: Host,
        transport: Transport,
        server: Endpoint,
        marshalling: str = "handcoded",
        cache: typing.Optional[ResolverCache] = None,
        per_call_overhead_ms: float = 0.0,
        calibration: Calibration = DEFAULT_CALIBRATION,
        name: str = "resolver",
        secondaries: typing.Sequence[Endpoint] = (),
        policies: PolicySet = PolicySet(),
    ):
        if marshalling not in ("handcoded", "generated"):
            raise ValueError(f"unknown marshalling style {marshalling!r}")
        #: the policy bundle; what each slot switches on is decided
        #: below, once: a mechanism that is off is a stage never bound
        self.policies = policies
        self.host = host
        self.env = host.env
        self.transport = transport
        self.server = server
        #: replica servers tried, in order, when the primary is
        #: unreachable (reads only; updates always go to the primary)
        self.secondaries = list(secondaries)
        #: the failover order, each replica with its ``bind.leg`` label
        self._replicas = [
            (endpoint, str(endpoint)) for endpoint in [server] + self.secondaries
        ]
        self.cache = cache
        self.per_call_overhead_ms = per_call_overhead_ms
        self.calibration = calibration
        self.name = name
        self.marshalling = marshalling
        #: what a miss does: fetch for itself, or share one fetch among
        #: concurrent identical misses
        self._miss = (
            self._lead_or_follow
            if policies.fast_path.coalesce
            else self._fetch_alone
        )
        #: a hit this close to expiry (as a fraction of the entry's TTL)
        #: spawns a background renewal; 0 = hits never renew
        self._refresh_fraction = policies.fast_path.refresh_ahead_fraction
        #: the last rung of the degradation ladder: an expired entry
        #: still inside the stale window, when there is one to keep
        self._serve_stale = (
            self._stale_records
            if cache is not None and policies.resolution.stale_window_ms > 0
            else self._nothing_stale
        )
        self._scheduler: typing.Optional[ReplicaScheduler] = None
        #: what one retry round does against the replica set
        self._exchange = self._ordered_exchange
        if policies.replica.enabled:
            self._scheduler = ReplicaScheduler(
                self.env, [server] + self.secondaries, name=self.name
            )
            self._exchange = self._hedged_exchange
        #: the primary-only calls (update, NOTIFY subscribe, AXFR, IXFR)
        self.primary = PrimaryClient(host, transport, server, name=name)
        #: in-flight fetches by cache key, each carrying ``(result,
        #: record_count)``; a follower pays to copy that many records
        self._flights = SingleFlight(
            host,
            "bind",
            name,
            copy_cost=lambda flown: calibration.cache_copy_base_ms
            + calibration.cache_copy_per_record_ms * flown[1],
            cache=cache,
        )
        # Requests are fixed-shape; both client styles use the cheap path
        # (the paper's generated-marshalling pain was on responses).
        self._hand_request = HandcodedMarshaller(QueryRequest.idl_type)
        self._hand_batch_request = HandcodedMarshaller(BatchQueryRequest.idl_type)
        # Responses are demarshalled in this client's style, from the
        # bytes the server sent (``reply.wire``) or a marshalled cache
        # holds; a reply is never encoded on this side.
        styled = (
            StubCompiler().marshaller
            if marshalling == "generated"
            else HandcodedMarshaller
        )
        self._response_m = styled(QueryResponse.idl_type)
        self._batch_response_m = styled(BatchQueryResponse.idl_type)

    @first_use
    def _cache_hits(self) -> "Counter":
        """Bound at the first hit, so the stat exists only once counted."""
        return self.env.stats.counter(f"bind.{self.name}.cache_hits")

    @first_use
    def _remote_lookups(self) -> "Counter":
        """Bound at the first remote fetch, likewise."""
        return self.env.stats.counter(f"bind.{self.name}.remote_lookups")

    # ------------------------------------------------------------------
    def lookup(
        self,
        name: typing.Union[str, DomainName],
        rtype: RRType = RRType.A,
    ) -> typing.Generator:
        """Resolve (name, rtype); returns a list of ResourceRecords.

        Raises :class:`NameNotFound` on NXDOMAIN.  This is a process
        generator: drive it with ``yield from`` inside a simulation.
        """
        key = cache_key(name, rtype)
        obs = self.env.obs
        with (
            obs.span(
                "bind.lookup",
                resolver=self.name,
                owner=key[0],
                rtype=rtype._name_,  # .name is a property: two frames a lookup
            )
            if obs.enabled
            else NULL_SPAN
        ) as span:
            cache = self.cache
            if cache is not None:
                entry, cost = cache.probe(key)
                yield self.host.cpu.compute(cost)
                # hnslint: disable=SIM003 -- entry is captured by value; eviction cannot mutate it, read_hit copies it
                if entry is not None:
                    records, cost = self.read_hit(key, entry, span)
                    yield self.host.cpu.compute(cost)
                    self.hit_landed(key, entry)
                    span.set(outcome="hit")
                    return records
            span.set(outcome="miss")
            records, _count = yield from self._miss(
                key, span, lambda: self._fetch(key, rtype)
            )
            return records

    # A cache hit is two charges, and the frame that yields them writes
    # the steps out itself — no generator sits between it and the cache:
    #
    #     entry, cost = cache.probe(key)
    #     yield cpu.compute(cost)
    #     if entry is not None:
    #         records, cost = resolver.read_hit(key, entry)
    #         yield cpu.compute(cost)
    #         resolver.hit_landed(key, entry)
    #
    # The entry is read at the instant of the probe charge, a negative
    # one raises after that charge, and the hit is counted (and renewed
    # ahead of expiry) once the copy has been paid for.
    def read_hit(
        self,
        key: typing.Tuple[str, int],
        entry: CacheEntry,
        span: "SpanLike" = NULL_SPAN,
    ) -> typing.Tuple[typing.List[ResourceRecord], float]:
        """The records a probed entry holds and the cost of the copy.

        Raises :class:`NameNotFound` when the entry is a cached NXDOMAIN.
        """
        if entry.payload is NEGATIVE:
            span.set(outcome="negative")
            self.env.stats.counter(f"bind.{self.name}.negative_hits").increment()
            raise NameNotFound(f"{key[0]} {RRType(key[1])} (negatively cached)")
        cache = self.cache
        assert cache is not None
        if cache.format is CacheFormat.MARSHALLED:
            return self._read_entry(entry)
        # ResolverCache.hit_cost of a demarshalled entry, inline.
        calibration = cache.calibration
        return list(entry.payload), (
            calibration.cache_copy_base_ms
            + calibration.cache_copy_per_record_ms * entry.record_count
        )

    def hit_landed(self, key: typing.Tuple[str, int], entry: CacheEntry) -> None:
        """Count a paid-for hit; renew ``entry`` in the background when
        it is inside the fast path's refresh window."""
        self._cache_hits.increment()
        fraction = self._refresh_fraction
        if fraction and self.cache.needs_refresh(entry, fraction):
            self._flights.refresh_ahead(
                key,
                entry,
                lambda: self._fetch(key, RRType(key[1]), background=True),
                resolver=self.name,
                owner=key[0],
            )

    def _read_entry(
        self, entry: CacheEntry
    ) -> typing.Tuple[typing.List[ResourceRecord], float]:
        """Materialise a cached record set for a caller.

        Returns ``(records, cost_ms)``: a private copy of the records
        (demarshalled with this client's style when the cache holds wire
        bytes) and what the caller must charge for it.
        """
        cache = self.cache
        assert cache is not None
        if cache.format is CacheFormat.MARSHALLED:
            value, demarshal_cost = self._response_m.decode(entry.payload)
            return (
                QueryResponse.from_idl(value).records,
                cache.hit_cost(entry, demarshal_cost),
            )
        return list(entry.payload), cache.hit_cost(entry)

    # The miss step shared by :meth:`lookup` and :meth:`lookup_batch`,
    # one of these two, picked in the constructor.  Each returns the
    # generator to ``yield from``; like ``fetch()``'s, its value is
    # ``(result, record_count)``.
    def _fetch_alone(
        self,
        key: object,
        span: "SpanLike",
        fetch: typing.Callable[[], typing.Generator],
    ) -> typing.Generator:
        """The prototype's miss: every miss fetches for itself."""
        return fetch()

    def _lead_or_follow(
        self,
        key: object,
        span: "SpanLike",
        fetch: typing.Callable[[], typing.Generator],
    ) -> typing.Generator:
        """The coalescing miss: the first miss on ``key`` runs ``fetch``
        as the flight's leader and concurrent misses park on that flight
        for a copy of its result."""
        flight = self._flights.get(key)
        if flight is not None:
            span.set(outcome="coalesced")
            return self._follow(flight)
        span.set(outcome="miss", role="leader")
        return self._flights.lead(key, fetch())

    def _follow(self, flight: "Event") -> typing.Generator:
        """A follower's miss: the leader's result, copied."""
        result, count = yield from self._flights.follow(flight)
        return list(result), count

    # --- the remote call ----------------------------------------------
    def _fetch(
        self,
        key: typing.Tuple[str, int],
        rtype: RRType,
        background: bool = False,
    ) -> typing.Generator:
        """The full remote-call path: request, failover, serve-stale,
        negative caching, cache insert.  Returns ``(records, count)``."""
        env = self.env
        name = DomainName(key[0])
        obs = env.obs
        with (
            obs.span(
                "bind.fetch",
                resolver=self.name,
                owner=key[0],
                background=background,
            )
            if obs.enabled
            else NULL_SPAN
        ) as span:
            self._remote_lookups.increment()
            try:
                reply = yield from self._request(
                    QueryRequest(name, rtype), self._hand_request, background
                )
            except NetworkError as err:
                # Degradation ladder, rung 3: every replica unreachable and
                # retries exhausted — serve an expired entry if one is still
                # within the stale window.
                stale = yield from self._serve_stale(key, err)
                if stale is None:
                    raise
                span.set(served_stale=True)
                return stale, len(stale)
            if not isinstance(reply, QueryResponse):
                raise BindError(f"unexpected reply {reply!r}")
            # Demarshal the response with this client's style.
            _, demarshal_cost = self._response_m.decode(reply.wire)
            yield charge(self.host, demarshal_cost, background)
            if reply.status == STATUS_NXDOMAIN:
                negative_ttl_ms = self.policies.resolution.negative_ttl_ms
                if self.cache is not None and negative_ttl_ms > 0:
                    insert_cost = self.cache.insert(
                        key, NEGATIVE, 0, negative_ttl_ms
                    )
                    yield charge(self.host, insert_cost, background)
                raise NameNotFound(f"{name} {rtype}")
            if reply.status != STATUS_OK:
                raise BindError(f"status {reply.status} for {name} {rtype}")
            if self.cache is not None and reply.records:
                yield charge(
                    self.host, self.cache.store(key, reply.records), background
                )
            return list(reply.records), len(reply.records)

    def _nothing_stale(
        self, key: typing.Tuple[str, int], err: Exception
    ) -> typing.Generator:
        """The serve-stale rung of a resolver that keeps nothing past
        expiry: no charge, no records."""
        yield from ()
        return None

    def _stale_records(
        self, key: typing.Tuple[str, int], err: Exception
    ) -> typing.Generator:
        """Return expired-but-retained records for ``key``, or None.

        Only transient failures qualify — a permanent error (no route)
        will not be cured by the authoritative server coming back, so
        masking it with stale data would hide a configuration problem.
        """
        if not is_transient(err):
            return None
        assert self.cache is not None
        entry = self.cache.stale_entry(
            key, self.policies.resolution.stale_window_ms
        )
        if entry is None or entry.payload is NEGATIVE:
            return None
        records, hit_cost = self._read_entry(entry)
        yield self.host.cpu.compute(hit_cost)
        self.env.stats.counter(f"bind.{self.name}.stale_hits").increment()
        self.env.trace.emit(
            "bind",
            f"{self.name}: serving stale {key} ({err!r})",
        )
        return records

    def _request(
        self, request: typing.Any, marshaller: typing.Any, background: bool = False
    ) -> typing.Generator:
        """One read request against the replica set, with retry rounds.

        The per-call control overhead and the request marshalling are
        paid once, before the first round.  One *round* is one exchange with the replica set — the
        prototype's static primary-then-secondaries walk, or, with an
        enabled :class:`~repro.resolution.ReplicaPolicy`, the
        replica-aware hedged exchange (picked once, in the
        constructor).  With a :class:`~repro.resolution.ResolutionPolicy`,
        transiently failed rounds repeat up to ``attempts`` times with
        jittered exponential backoff between rounds.  Raises the last
        network error if all rounds fail.
        """
        if self.per_call_overhead_ms:
            yield charge(self.host, self.per_call_overhead_ms, background)
        request_bytes, marshal_cost = marshaller.encode(request)
        yield charge(
            self.host,
            max(marshal_cost, self.calibration.request_marshal_ms),
            background,
        )
        policy = self.policies.resolution
        timeout_ms = policy.call_timeout_ms
        last_error: typing.Optional[Exception] = None
        obs = self.env.obs
        for round_index in range(policy.attempts):
            if round_index:
                self.env.stats.counter(f"bind.{self.name}.retries").increment()
                yield self.env.timeout(
                    backoff_ms(
                        round_index - 1,
                        self.env.rng.stream(f"bind.backoff:{self.name}"),
                    )
                )
            with (
                obs.span("bind.round", round=round_index) if obs.enabled else NULL_SPAN
            ) as rspan:
                try:
                    reply = yield from self._exchange(
                        request, len(request_bytes), timeout_ms
                    )
                    return reply
                except NetworkError as err:
                    rspan.set(error_type=type(err).__name__)
                    last_error = err
                    if not is_transient(err):
                        raise
        assert last_error is not None
        raise last_error

    def _ordered_exchange(
        self, payload: object, size_bytes: int, timeout_ms: typing.Optional[float]
    ) -> typing.Generator:
        """One round of static failover: the primary, then each secondary.

        A plain in-process walk — unlike the hedged exchange it spawns
        no leg processes.  Raises the last leg's network error when
        every replica failed.
        """
        last_error: typing.Optional[Exception] = None
        obs = self.env.obs
        for endpoint, label in self._replicas:
            with (
                obs.span("bind.leg", endpoint=label) if obs.enabled else NULL_SPAN
            ) as leg:
                try:
                    reply = yield self.transport.request(
                        self.host,
                        endpoint,
                        payload,
                        size_bytes,
                        timeout_ms=timeout_ms,
                    )
                except NetworkError as err:
                    leg.set(outcome="error", error_type=type(err).__name__)
                    last_error = err
                    self.env.stats.counter(
                        f"bind.{self.name}.failovers"
                    ).increment()
                    continue
                leg.set(outcome="won")
                return reply
        assert last_error is not None
        raise last_error

    def _hedged_exchange(
        self, payload: object, size_bytes: int, timeout_ms: typing.Optional[float]
    ) -> typing.Generator:
        """One round against the replica set, with hedging.

        The scheduler's best replica is tried first.  If no answer has
        arrived after the hedge delay (a quantile of recent latencies),
        the same request is re-issued to the next replica in the plan —
        first answer wins, the loser's reply is discarded
        (its latency still feeds the scheduler).  A failed leg falls
        through to the next unplanned replica immediately, exactly like
        the static failover walk; the exchange fails only when every
        planned replica has failed.
        """
        env = self.env
        scheduler = self._scheduler
        assert scheduler is not None
        queue = scheduler.plan()
        # Legs run as their own processes; the caller's span context must
        # travel into them explicitly.
        obs = env.obs
        obs_parent = obs.current()
        result = env.event()
        # The result may be failed with nobody parked on it (e.g. the
        # last leg fails while the winner already returned) — that must
        # never surface at the kernel.
        result.defuse()
        pending = {"outstanding": 0}

        def launch(state: ReplicaState, hedge: bool) -> None:
            pending["outstanding"] += 1
            scheduler.record_start(state, hedge=hedge)
            if hedge:
                env.stats.counter(f"bind.{self.name}.hedges").increment()

            def leg() -> typing.Generator:
                start = env.now
                with (
                    obs.span(
                        "bind.leg",
                        parent=obs_parent,
                        endpoint=state.label,
                        hedge=hedge,
                    )
                    if obs.enabled
                    else NULL_SPAN
                ) as lspan:
                    try:
                        reply = yield self.transport.request(
                            self.host,
                            state.endpoint,
                            payload,
                            size_bytes,
                            timeout_ms=timeout_ms,
                        )
                    except NetworkError as err:
                        lspan.set(
                            outcome="error", error_type=type(err).__name__
                        )
                        pending["outstanding"] -= 1
                        scheduler.record_failure(state, env.now - start)
                        if result.triggered:
                            return
                        env.stats.counter(
                            f"bind.{self.name}.failovers"
                        ).increment()
                        if queue:
                            launch(queue.pop(0), hedge=False)
                        elif pending["outstanding"] == 0:
                            result.fail(err)
                        return
                    except Exception as err:
                        # Application-level failure (e.g. a RemoteCallError
                        # from the server): the replica *answered*, so it is
                        # healthy — but no other replica will answer better.
                        lspan.set(outcome="app_error")
                        pending["outstanding"] -= 1
                        scheduler.record_success(
                            state, env.now - start, won=False
                        )
                        if not result.triggered:
                            result.fail(err)
                        return
                    pending["outstanding"] -= 1
                    won = not result.triggered
                    lspan.set(outcome="won" if won else "lost")
                    scheduler.record_success(state, env.now - start, won=won)
                    if won:
                        result.succeed(reply)

            env.process(leg(), name=f"bind.{self.name}.leg:{state.label}")

        launch(queue.pop(0), hedge=False)
        hedges_left = MAX_HEDGES
        while not result.triggered:
            delay = (
                scheduler.hedge_delay_ms()
                if hedges_left > 0 and queue
                else None
            )
            if delay is None:
                # Nothing left to hedge onto: just wait the result out
                # (raises the failure if every leg failed).
                reply = yield result
                return reply
            timer = env.timeout(delay)
            yield env.any_of([result, timer])
            if result.triggered:
                break
            hedges_left -= 1
            launch(queue.pop(0), hedge=True)
        return result.value

    # ------------------------------------------------------------------
    def lookup_batch(
        self, questions: typing.Sequence[BatchQuestion]
    ) -> typing.Generator:
        """Send several (possibly chained) questions in one round trip.

        Returns one :class:`QueryResponse` per question, in question
        order; per-question failures travel as answer statuses, never
        exceptions.  Successful answers are inserted into the cache
        under their *answer* owner name (chained questions only learn
        their owner server-side).  Identical concurrent batches coalesce
        like single lookups when the fast path enables it.
        """
        questions = list(questions)
        key = ("batch",) + tuple(
            (q.name, q.rtype.value, q.chain_from, q.chain_field)
            for q in questions
        )
        obs = self.env.obs
        with (
            obs.span("bind.batch", resolver=self.name, questions=len(questions))
            if obs.enabled
            else NULL_SPAN
        ) as span:
            answers, _count = yield from self._miss(
                key, span, lambda: self._fetch_batch(questions)
            )
            return answers

    def _fetch_batch(
        self, questions: typing.List[BatchQuestion]
    ) -> typing.Generator:
        """One batched exchange; returns ``(answers, total_records)``."""
        env = self.env
        env.stats.counter(f"bind.{self.name}.batch_lookups").increment()
        try:
            # One per-call overhead for the whole batch: with six sequential
            # mappings this control cost is paid six times; here, once.
            reply = yield from self._request(
                BatchQueryRequest(questions), self._hand_batch_request
            )
        except NetworkError as err:
            # The same rung 3 as a single lookup, one question at a time.
            answers = yield from self._stale_answers(questions, err)
            if answers is None:
                raise
            return answers, sum(len(a.records) for a in answers)
        if not isinstance(reply, BatchQueryResponse):
            raise BindError(f"unexpected reply {reply!r}")
        # Demarshal the whole response with this client's style.
        _, demarshal_cost = self._batch_response_m.decode(reply.wire)
        yield self.host.cpu.compute(demarshal_cost)
        total_records = 0
        cache = self.cache
        negative_ttl_ms = self.policies.resolution.negative_ttl_ms
        for question, answer in zip(questions, reply.answers):
            total_records += len(answer.records)
            if cache is None:
                continue
            if answer.status == STATUS_OK and answer.records:
                owner_key = (
                    str(answer.records[0].name),
                    question.rtype.value,
                )
                yield self.host.cpu.compute(
                    cache.store(owner_key, answer.records)
                )
            elif (
                answer.status == STATUS_NXDOMAIN
                and question.chain_from < 0
                and negative_ttl_ms > 0
            ):
                # Only literal questions know their owner client-side.
                owner_key = cache_key(question.name, question.rtype)
                insert_cost = cache.insert(
                    owner_key, NEGATIVE, 0, negative_ttl_ms
                )
                yield self.host.cpu.compute(insert_cost)
        return reply.answers, total_records

    def _stale_answers(
        self, questions: typing.List[BatchQuestion], err: Exception
    ) -> typing.Generator:
        """Answer a whole batch from stale entries, or None.

        The chain is walked client-side the way the server walks it:
        a chained question's owner comes from the (stale) answer it
        depends on.  All or nothing — a batch with one question left
        unanswered fails like the exchange did.
        """
        answers: typing.List[QueryResponse] = []
        for question in questions:
            owner = question.name
            if question.chain_from >= 0:
                if question.chain_from >= len(answers):
                    return None  # forward reference: the server SERVFAILs it
                value = meta_field(
                    answers[question.chain_from].records[0].data,
                    question.chain_field,
                )
                if value is None:
                    return None
                owner = substitute_label(owner, value)
            records = yield from self._serve_stale(
                cache_key(owner, question.rtype), err
            )
            if not records:
                return None
            answers.append(QueryResponse(STATUS_OK, records))
        return answers

    def lookup_address(self, name: typing.Union[str, DomainName]) -> typing.Generator:
        """Name-to-address convenience: returns a dotted-quad string."""
        records = yield from self.lookup(name, RRType.A)
        return records[0].address
