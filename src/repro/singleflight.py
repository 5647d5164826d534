"""Single-flight coalescing and refresh-ahead, once.

Concurrent misses on one key share one piece of work: the first caller
*leads* (runs the work), later callers *follow* (park on the leader's
event and pay only a copy).  A hit on an entry near expiry spawns a
background *renewal* that registers itself as the key's flight, so a
miss arriving before the renewal lands joins it instead of fetching
again.  :class:`~repro.bind.resolver.BindResolver` and
:class:`~repro.core.nsm.NamingSemanticsManager` both run this; they
differ only in what the constructor takes.
"""

from __future__ import annotations

import typing

from repro.net.host import Host
from repro.obs.span import NULL_SPAN
from repro.sim.events import Event

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.bind.cache import CacheEntry, ResolverCache
    from repro.obs.span import SpanLike

Work = typing.Generator[Event, typing.Any, typing.Any]


class SingleFlight:
    """The in-flight work of one cache, keyed like the cache.

    ``label`` (``"bind"`` or ``"nsm"``) prefixes the jitter RNG stream,
    the renewal span and the stat names; ``owner`` is the resolver or
    NSM name inside the stat names.  ``copy_cost`` prices a follower's
    copy of the leader's result.  ``cache`` is where coalesced joins and
    renewals are counted; it is required for :meth:`refresh_ahead` only.
    """

    def __init__(
        self,
        host: Host,
        label: str,
        owner: str,
        copy_cost: typing.Callable[[typing.Any], float],
        cache: typing.Optional["ResolverCache"] = None,
    ) -> None:
        self.host = host
        self.env = host.env
        self.cache = cache
        self._copy_cost = copy_cost
        self._jitter_stream = f"{label}.refresh_jitter"
        self._refresh_span = f"{label}.refresh"
        self._coalesced_stat = f"{label}.{owner}.coalesced"
        self._refresh_failures_stat = f"{label}.{owner}.refresh_failures"
        #: key -> the event the work's result (or failure) lands on
        self._flights: typing.Dict[object, Event] = {}

    def get(self, key: object) -> typing.Optional[Event]:
        """The flight currently underway for ``key``, if any."""
        return self._flights.get(key)

    def _open(self, key: object) -> Event:
        event = self.env.event()
        # A failure must reach followers but never the kernel: there may
        # legitimately be nobody parked on the flight.
        event.defuse()
        self._flights[key] = event
        return event

    def lead(self, key: object, work: Work) -> Work:
        """Run ``work`` as the flight for ``key``; returns its result.

        Followers that joined while it ran receive the same result or
        the same exception — one classified error propagates to everyone.
        """
        result = yield from self._land(self._open(key), key, work)
        return result

    def _land(self, event: Event, key: object, work: Work) -> Work:
        """Run ``work`` and close the flight with how it ended."""
        try:
            result = yield from work
        except BaseException as err:
            self._flights.pop(key, None)
            event.fail(err)
            raise
        self._flights.pop(key, None)
        event.succeed(result)
        return result

    def follow(self, flight: Event) -> Work:
        """Park on a flight; pay only the copy cost.  The result is the
        leader's own object: copy it before handing it on."""
        if self.cache is not None:
            self.cache.record_coalesced()
        else:
            self.env.stats.counter(self._coalesced_stat).increment()
        result = yield flight
        yield self.host.cpu.compute(self._copy_cost(result))
        return result

    def refresh_ahead(
        self,
        key: object,
        entry: "CacheEntry",
        work: typing.Callable[[], Work],
        **span_attrs: typing.Any,
    ) -> None:
        """Spawn ``work()`` as a background renewal of ``entry``.

        For a hit the cache says :meth:`~repro.bind.cache.ResolverCache.
        needs_refresh`; a no-op while a renewal (or a coalesced miss) is
        already underway for ``key``.
        """
        cache = self.cache
        assert cache is not None
        if key in self._flights:
            return
        # Register the flight synchronously so every later probe — and
        # any miss arriving before the renewal lands — sees it.
        event = self._open(key)
        cache.record_refresh()
        # Defer the renewal by a jittered slice of the remaining TTL:
        # the triggering hit keeps its hit latency (the host CPU is a
        # FIFO device, so an immediate renewal's call overhead would
        # head-of-line-block it), and entries inserted together do not
        # renew in one synchronized burst.  At most half the remaining
        # window is spent deferring, leaving the other half for the
        # work itself to land before expiry.
        defer_ms = self.env.rng.stream(self._jitter_stream).uniform(
            0.0, max(0.0, entry.expires_at - self.env.now) / 2.0
        )
        # Causal link: the renewal runs as its own process, so the span
        # context of the triggering hit must travel explicitly.
        parent = self.env.obs.current()
        self.env.process(
            self._renew(event, key, work, defer_ms, parent, span_attrs)
        )

    def _renew(
        self,
        event: Event,
        key: object,
        work: typing.Callable[[], Work],
        defer_ms: float,
        parent: typing.Optional["SpanLike"],
        span_attrs: typing.Dict[str, typing.Any],
    ) -> Work:
        """The background renewal process for one cache entry.

        Failures are deliberately silent: the requesting client already
        has a fresh answer, and the still-resident entry remains
        available to the serve-stale ladder.  Coalesced followers (cold
        misses that joined this flight) do see the failure — for them it
        is a real lookup failure.
        """
        if defer_ms > 0:
            yield self.env.timeout(defer_ms)
        obs = self.env.obs
        with (
            obs.span(self._refresh_span, parent=parent, **span_attrs)
            if obs.enabled
            else NULL_SPAN
        ) as span:
            try:
                yield from self._land(event, key, work())
            except Exception:
                span.set(outcome="failed")
                self.env.stats.counter(self._refresh_failures_stat).increment()
                return
            span.set(outcome="renewed")
