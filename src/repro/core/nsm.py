"""The NSM framework.

"Each NSM understands the semantics of naming for a particular query
class and a particular name service. ... The NSMs are neither HNS nor
application code per se.  Rather, they are code managed by the HNS and
shared by the applications."

An NSM is ordinary Python (a generator-based ``query``); it can be

- **linked in** to any process (client, agent, or the HNS itself) and
  called locally at essentially zero call cost, or
- **served remotely** behind an :class:`~repro.hrpc.server.HrpcServer`
  program via :func:`serve_nsm`, where it is shared by all clients (and
  so sees a higher cache-hit fraction — the other side of equation (1)).

:class:`NsmStub` gives clients one calling convention for both cases:
it dispatches on whether FindNSM returned a :class:`LocalNsmBinding` or
a remote :class:`~repro.hrpc.binding.HRPCBinding`.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.bind import CacheFormat, ResolverCache, UpdateOp
from repro.core.names import HNSName
from repro.core.queryclass import query_class_named
from repro.harness.calibration import Calibration, DEFAULT_CALIBRATION
from repro.hrpc.binding import HRPCBinding
from repro.hrpc.runtime import HrpcRuntime
from repro.hrpc.server import HrpcServer
from repro.memo import first_use
from repro.net.host import Host
from repro.obs.span import NULL_SPAN
from repro.resolution import FastPathPolicy
from repro.singleflight import SingleFlight

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.obs.span import SpanLike
    from repro.sim.stats import Counter


@dataclasses.dataclass
class NsmResult:
    """A standardized query result: the query class fixes the fields."""

    query_class: str
    value: typing.Dict[str, object]
    from_cache: bool = False

    def __post_init__(self) -> None:
        query_class_named(self.query_class).validate_result(self.value)


class NamingSemanticsManager:
    """Base class for all NSMs.

    Subclasses set :attr:`query_class` and :attr:`name_service` and
    implement :meth:`resolve`, the native-protocol work.  The base class
    provides the result cache (hits skip the native work entirely),
    standardization cost accounting and the query class's required
    parameters check.
    """

    query_class: str = ""
    #: the HostAddress rule.  "Further recursion is avoided by linking
    #: instances of the NSMs that perform this mapping directly with the
    #: HNS": such an NSM pays no translate, standardize or hit-extra
    #: cost, and keys its results by local host name
    statically_linked: bool = False

    def __init__(
        self,
        host: Host,
        name_service: str,
        name: str = "",
        calibration: Calibration = DEFAULT_CALIBRATION,
        cached: bool = True,
        fast_path: FastPathPolicy = FastPathPolicy.disabled(),
    ):
        if not self.query_class:
            raise TypeError("NSM subclasses must set query_class")
        self._required_params = query_class_named(self.query_class).required_params
        self.host = host
        self.env = host.env
        self.name_service = name_service
        self.name = name or f"{self.query_class}-{name_service}"
        self.calibration = calibration
        # Per-instance cost knobs.  Defaults model a full-featured NSM
        # (name translation + result standardization + cached-result
        # revalidation); lightweight NSMs — notably the statically
        # linked HostAddress ones — zero them out.
        self.translate_cost_ms = calibration.nsm_translate_ms
        self.standardize_cost_ms = calibration.nsm_standardize_ms
        self.cache_hit_extra_ms = calibration.nsm_cache_hit_extra_ms
        if self.statically_linked:
            # A host-address answer needs no translation or restructuring;
            # linked-in instances must cost exactly the native lookup on a
            # miss and a bare cache hit otherwise.
            self.translate_cost_ms = 0.0
            self.standardize_cost_ms = 0.0
            self.cache_hit_extra_ms = 0.0
        self.cache: typing.Optional[ResolverCache] = (
            ResolverCache(
                host.env,
                name=f"nsm:{self.name}",
                fmt=CacheFormat.DEMARSHALLED,
                calibration=calibration,
            )
            if cached
            else None
        )
        #: what a miss does: one native call of its own, or a share in
        #: the one already underway for the same key (``fast_path`` is
        #: read here, once)
        self._miss = (
            self._lead_or_follow if fast_path.coalesce else self._native_query
        )
        #: a hit this close to expiry (as a fraction of the entry's TTL)
        #: spawns a background renewal; 0 = hits never renew
        self._refresh_fraction = fast_path.refresh_ahead_fraction
        #: in-flight native queries by cache key, each carrying the
        #: leader's :class:`NsmResult`; a follower copies one record
        self._flights = SingleFlight(
            host,
            "nsm",
            self.name,
            copy_cost=lambda _result: calibration.cache_copy_base_ms
            + calibration.cache_copy_per_record_ms,
            cache=self.cache,
        )

    @first_use
    def _cache_hits(self) -> "Counter":
        """Bound at the first hit, so the stat exists only once counted."""
        return self.env.stats.counter(f"nsm.{self.name}.cache_hits")

    # ------------------------------------------------------------------
    def resolve(
        self, hns_name: HNSName, params: typing.Mapping[str, object]
    ) -> typing.Generator:
        """Do the native work; returns (result dict, ttl_ms).

        Subclasses translate the individual name to the local name,
        interrogate the local name service with its own protocol, and
        return data in the query class's standard format.
        """
        raise NotImplementedError

    def translate_name(self, hns_name: HNSName) -> str:
        """Individual name -> local name (identity by default).

        "the individual name ... in the simplest case is identical to
        the name of the entity in its local name service."
        """
        return hns_name.name

    def _cache_key(
        self, hns_name: HNSName, params: typing.Mapping[str, object]
    ) -> object:
        if self.statically_linked:
            # Keyed by local host name so preloaded entries (which know
            # only the host name, not the context) hit.
            return ("hostaddr", self.translate_name(hns_name))
        return (str(hns_name), tuple(sorted((k, str(v)) for k, v in params.items())))

    # ------------------------------------------------------------------
    def query(
        self, hns_name: HNSName, **params: object
    ) -> typing.Generator:
        """The query-class interface: identical across all NSMs.

        Returns an :class:`NsmResult`.
        """
        obs = self.env.obs
        with (
            obs.span(
                "nsm.query",
                nsm=self.name,
                query_class=self.query_class,
                name=str(hns_name),
            )
            if obs.enabled
            else NULL_SPAN
        ) as span:
            cache = self.cache
            if cache is None:
                result = yield from self._native_query(
                    hns_name, params, None, span
                )
                return result
            key = self._cache_key(hns_name, params)
            entry, probe_cost = cache.probe(key)
            yield self.host.cpu.compute(probe_cost)
            # hnslint: disable=SIM003 -- entry is captured by value; its payload is copied before it escapes
            if entry is not None:
                span.set(outcome="hit")
                yield self.host.cpu.compute(
                    cache.hit_cost(entry) + self.cache_hit_extra_ms
                )
                self._cache_hits.increment()
                fraction = self._refresh_fraction
                if fraction and cache.needs_refresh(entry, fraction):
                    self._flights.refresh_ahead(
                        key,
                        entry,
                        lambda: self._native_query(hns_name, params, key),
                        nsm=self.name,
                    )
                return NsmResult(
                    self.query_class, dict(entry.payload), from_cache=True
                )
            result = yield from self._miss(hns_name, params, key, span)
            return result

    def _lead_or_follow(
        self,
        hns_name: HNSName,
        params: typing.Mapping[str, object],
        key: object,
        span: "SpanLike",
    ) -> typing.Generator:
        """The coalescing miss step (the prototype's is :meth:`_native_query`
        itself; the constructor picks): lead the native call for ``key``,
        or park on the one underway and pay only the copy."""
        flight = self._flights.get(key)
        if flight is not None:
            span.set(outcome="coalesced")
            result = yield from self._flights.follow(flight)
            return NsmResult(
                self.query_class, dict(result.value), from_cache=True
            )
        span.set(outcome="native", role="leader")
        result = yield from self._flights.lead(
            key, self._native_query(hns_name, params, key)
        )
        return result

    def _native_query(
        self,
        hns_name: HNSName,
        params: typing.Mapping[str, object],
        key: typing.Optional[object],
        span: "SpanLike" = NULL_SPAN,
    ) -> typing.Generator:
        """The cache-miss path: translate, resolve natively, insert.
        ``span`` is the query it answers alone, when there is one."""
        span.set(outcome="native")
        obs = self.env.obs
        with obs.span("nsm.native", nsm=self.name) if obs.enabled else NULL_SPAN:
            self.env.stats.counter(
                f"nsm.{self.name}.native_queries"
            ).increment()
            if self.translate_cost_ms:
                yield self.host.cpu.compute(self.translate_cost_ms)
            for param in self._required_params:
                if not params.get(param):
                    raise ValueError(
                        f"{self.query_class} query requires a {param!r} parameter"
                    )
            value, ttl_ms = yield from self.resolve(hns_name, params)
            if self.standardize_cost_ms:
                yield self.host.cpu.compute(self.standardize_cost_ms)
            result = NsmResult(self.query_class, dict(value))
            if self.cache is not None and key is not None:
                insert_cost = self.cache.insert(key, dict(value), 1, ttl_ms)
                yield self.host.cpu.compute(insert_cost)
            if self.env.trace.enabled:
                self.env.trace.emit(
                    "nsm", f"{self.name}: resolved {hns_name}", params=dict(params)
                )
            return result


# ----------------------------------------------------------------------
# Local vs remote invocation
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class LocalNsmBinding:
    """FindNSM's answer when the chosen NSM is linked into this process."""

    nsm: NamingSemanticsManager

    @property
    def program(self) -> str:
        return f"nsm.{self.nsm.name}"

    def describe(self) -> str:
        return f"LocalNsmBinding({self.nsm.name})"


def serve_nsm(server: HrpcServer, nsm: NamingSemanticsManager) -> str:
    """Expose ``nsm`` as program ``nsm.<name>`` with procedure ``query``.

    Returns the program name.  "registering an NSM with the HNS extends
    the functionality of all machines at once" — remote NSMs are the
    manageable choice.
    """
    if nsm.host is not server.host:
        raise ValueError(
            f"NSM {nsm.name} lives on {nsm.host.name}, "
            f"server on {server.host.name}; colocate them first"
        )
    program_name = f"nsm.{nsm.name}"

    def query_proc(ctx, hns_name_text: str, params: dict):
        result = yield from nsm.query(HNSName.parse(hns_name_text), **params)
        return {"query_class": result.query_class, "value": result.value}

    server.program(program_name).procedure("query", query_proc)
    return program_name


class LeaseKeeper:
    """Client-side half of lease-based invalidation.

    A write made under an :class:`~repro.resolution.UpdatePolicy` with
    ``invalidation="lease"`` stays registered only as long as its owner
    keeps renewing it; this process re-submits every tracked binding at
    ``lease_ms * renew_fraction`` so a healthy owner never lets a lease
    lapse — while a crashed or retired owner's bindings retract at the
    server within one lease, without any explicit unregister.
    """

    def __init__(
        self,
        env,
        renew: typing.Callable[[typing.List[UpdateOp]], typing.Generator],
        lease_ms: float,
        renew_fraction: float = 0.5,
        name: str = "leases",
    ):
        if lease_ms <= 0:
            raise ValueError("lease_ms must be positive")
        if not 0 < renew_fraction < 1:
            raise ValueError("renew_fraction must be in (0, 1)")
        self.env = env
        self.name = name
        self.interval_ms = lease_ms * renew_fraction
        self._renew = renew
        self._ops: typing.Dict[object, UpdateOp] = {}
        self._process = None
        self._running = True

    def track(self, key: object, op: UpdateOp) -> None:
        """Keep ``op`` alive: re-registered every renewal interval."""
        self._ops[key] = op
        self.env.stats.counter("nsm.lease.tracked").increment()
        if self._process is None or not self._process.is_alive:
            self._running = True
            self._process = self.env.process(
                self._loop(), name=f"{self.name}.lease_renewal"
            )

    def release(self, key: object) -> None:
        """Stop renewing one binding (it expires at the server)."""
        self._ops.pop(key, None)

    def stop(self) -> None:
        """Stop renewing everything — models the owner going away."""
        self._running = False
        self._ops.clear()
        self.env.stats.counter("nsm.lease.stops").increment()

    def _loop(self) -> typing.Generator:
        while self._running and self._ops:
            yield self.env.timeout(self.interval_ms)
            if not self._running or not self._ops:
                return
            try:
                yield from self._renew(list(self._ops.values()))
            except Exception:
                # A missed renewal is not fatal: the next tick retries,
                # and the server-side lease only lapses after lease_ms.
                self.env.stats.counter("nsm.lease.renewal_failures").increment()
            else:
                self.env.stats.counter("nsm.lease.renewals").increment()


class NsmStub:
    """Uniform client-side calling convention for any NSM binding.

    "the client can call the NSM that the HNS designates without regard
    to the name service that NSM uses" — nor, here, to whether it is
    local or remote.
    """

    def __init__(
        self,
        host: Host,
        runtime: typing.Optional[HrpcRuntime] = None,
        calibration: Calibration = DEFAULT_CALIBRATION,
        local_nsms: typing.Optional[
            typing.Mapping[str, NamingSemanticsManager]
        ] = None,
    ):
        self.host = host
        self.env = host.env
        self.runtime = runtime
        self.calibration = calibration
        # NSMs linked into *this* process: if FindNSM (possibly running
        # remotely) designates one of these, the stub short-circuits to
        # the local copy instead of calling across the network.
        self.local_nsms: typing.Dict[str, NamingSemanticsManager] = dict(
            local_nsms or {}
        )

    def link_local(self, nsm: NamingSemanticsManager) -> None:
        self.local_nsms[nsm.name] = nsm

    def call(
        self,
        binding: typing.Union[LocalNsmBinding, HRPCBinding],
        hns_name: HNSName,
        **params: object,
    ) -> typing.Generator:
        """Invoke the NSM's ``query``; returns an :class:`NsmResult`."""
        if isinstance(binding, HRPCBinding):
            local = self.local_nsms.get(binding.metadata.get("nsm", ""))
            if local is not None:
                binding = LocalNsmBinding(local)
        if isinstance(binding, LocalNsmBinding):
            # "C(local call) is effectively zero".
            if self.calibration.local_call_ms:
                yield self.host.cpu.compute(self.calibration.local_call_ms)
            result = yield from binding.nsm.query(hns_name, **params)
            return result
        if self.runtime is None:
            raise ValueError("remote NSM binding but no HRPC runtime supplied")
        raw = yield from self.runtime.call(
            binding,
            "query",
            str(hns_name),
            dict(params),
            arg_size_bytes=hns_name.wire_size() + 96,
        )
        return NsmResult(raw["query_class"], dict(raw["value"]))
