"""The HNS library: ``FindNSM``.

"The primary HNS function is the call to locate an NSM, FindNSM.  This
call maps a context and query class to the information, called an HRPC
Binding, needed for making an HRPC call to the NSM.  FindNSM is
implemented as the following sequence of mappings:

1. Context -> Name Service Name
2. Name Service Name, Query Class -> NSM Name
3. NSM Name -> HRPC Binding for the NSM"

Mapping 3 contains the NSM's *host name*; translating it to an address
is "itself an HNS naming operation", adding mappings 1 and 2 for the
host's context and a call to a HostAddress NSM.  "Further recursion is
avoided by linking instances of the NSMs that perform this mapping
directly with the HNS."  That makes six data mappings per cold FindNSM,
"each of which involves a remote call in the case of a cache miss" —
and each TTL-cached, keyed by locality of "query class and name system
type", which is the specialized caching scheme of the title.

The HNS is "a collection of library routines": link an :class:`HNS`
into any process, or wrap it with :func:`serve_hns` to expose it as a
remote HRPC service — the colocation spectrum of Table 3.1.
"""

from __future__ import annotations

import typing

from repro.core.errors import HnsError, NsmNotFound
from repro.core.metastore import META_ORIGIN, MetaStore, NsmRecord, decode_fields
from repro.core.names import HNSName
from repro.core.nsm import LocalNsmBinding, NamingSemanticsManager
from repro.core.queryclass import query_class_named
from repro.harness.calibration import Calibration, DEFAULT_CALIBRATION
from repro.hrpc.binding import HRPCBinding
from repro.hrpc.server import HrpcServer
from repro.memo import first_use, memoised
from repro.net.addresses import Endpoint, NetworkAddress
from repro.bind.errors import NameNotFound
from repro.bind.resolver import cache_key
from repro.bind.rr import RRType
from repro.obs.span import NULL_SPAN
from repro.sim.events import Event

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.sim.stats import Counter

HOST_ADDRESS_QC = "HostAddress"
#: the meta address records' type, read on every hit without an enum lookup
_UNSPEC = RRType.UNSPEC

#: FindNSM's answer: either a handle for a remote HRPC call, or a
#: reference to an NSM linked into this very process.
NsmBindingLike = typing.Union[HRPCBinding, LocalNsmBinding]

#: A ``FindNSM`` in flight: a simulation process generator whose return
#: value is the binding.  Drive it with ``yield from`` (or
#: ``env.process``); the :class:`NsmBindingLike` contract is the API
#: boundary NSM stubs program against.
FindNsmCall = typing.Generator[Event, typing.Any, NsmBindingLike]

#: Host resolution in flight (mappings 4-6), returning the NSM host's
#: network address as text.
HostResolveCall = typing.Generator[Event, typing.Any, str]


@memoised
def remote_binding(
    address: str, record: NsmRecord, nsm_name: str, ns_name: str
) -> HRPCBinding:
    """FindNSM's answer for a remotely called NSM: the NSM's record at
    its host's address.  Every caller shares it, so its metadata is
    read-only; an address or record that fails validation raises."""
    return HRPCBinding(
        endpoint=Endpoint(NetworkAddress(address), record.port),
        program=record.program,
        suite=record.suite,
        system_type="unix",
        metadata={"nsm": nsm_name, "name_service": ns_name},
    )


class HNS:
    """One instance of the HNS library, linked into some process."""

    def __init__(
        self,
        metastore: MetaStore,
        calibration: Calibration = DEFAULT_CALIBRATION,
    ):
        self.metastore = metastore
        self.host = metastore.host
        self.env = metastore.env
        self.calibration = calibration
        # The metastore's PolicySet configures the whole stack; FindNSM
        # reads only its ``fast_path``.
        self.policies = metastore.policies
        #: how FindNSM reaches the NSM's record and its host's address:
        #: the paper's six sequential mappings, or two batched round trips
        #: (the second one the NSM host's meta address record)
        self._batched = self.policies.fast_path.batch_meta_lookups
        self._meta_mappings = (
            metastore.find_nsm_bundle if self._batched else self._sequential_mappings
        )
        # Statically linked HostAddress NSMs, one per name service:
        # these cut the FindNSM recursion.
        self._host_address_nsms: typing.Dict[str, NamingSemanticsManager] = {}
        # NSMs linked into the same process as this HNS instance; when
        # FindNSM selects one of these, the client gets a local binding.
        self._local_nsms: typing.Dict[str, NamingSemanticsManager] = {}

    @first_use
    def _find_nsm_count(self) -> "Counter":
        """Bound at the first FindNSM, so the stat exists only once counted."""
        return self.env.stats.counter("hns.find_nsm")

    # ------------------------------------------------------------------
    # Linking
    # ------------------------------------------------------------------
    def link_host_address_nsm(
        self, name_service: str, nsm: NamingSemanticsManager
    ) -> None:
        """Statically link the HostAddress NSM for ``name_service``."""
        if nsm.query_class != HOST_ADDRESS_QC:
            raise ValueError(
                f"{nsm.name} is a {nsm.query_class} NSM, not {HOST_ADDRESS_QC}"
            )
        if nsm.host is not self.host:
            raise ValueError(
                f"statically linked NSM must share the HNS's process host"
            )
        self._host_address_nsms[name_service] = nsm

    def link_local_nsm(self, nsm: NamingSemanticsManager) -> None:
        """Link an NSM into this process (the colocated-NSM arrangements)."""
        if nsm.host is not self.host:
            raise ValueError("locally linked NSM must share the HNS's host")
        self._local_nsms[nsm.name] = nsm

    # ------------------------------------------------------------------
    # FindNSM
    # ------------------------------------------------------------------
    def find_nsm(self, hns_name: HNSName, query_class: str) -> FindNsmCall:
        """Locate the NSM for (context of ``hns_name``, ``query_class``).

        Returns an :class:`HRPCBinding` (or :class:`LocalNsmBinding` for
        a linked-in NSM).  The caller then calls the NSM itself — the
        HNS never calls NSMs on the client's behalf, since each query
        class has its own interface.
        """
        query_class_named(query_class)  # fail fast on unknown classes
        env = self.env
        obs = env.obs
        with (
            obs.span(
                "hns.find_nsm",
                context=hns_name.context,
                name=hns_name.name,
                query_class=query_class,
            )
            if obs.enabled
            else NULL_SPAN
        ) as span:
            self._find_nsm_count.increment()
            # Fixed library bookkeeping.
            yield self.host.cpu.compute(self.calibration.hns_fixed_ms)
            ns_name, nsm_name, record = yield from self._meta_mappings(
                hns_name.context, query_class
            )
            if span.recording:
                span.set(ns=ns_name, nsm=nsm_name)
            if env.trace.enabled:
                env.trace.emit(
                    "hns",
                    f"FindNSM({hns_name.context}, {query_class}) -> {nsm_name}",
                    name_service=ns_name,
                )
            if record.port == 0:
                # An NSM only available linked-in: usable iff this process
                # has it.  No host resolution is possible or needed.
                local = self._local_nsms.get(nsm_name)
                if local is None:
                    raise NsmNotFound(
                        f"NSM {nsm_name} is not remotely callable and is not "
                        f"linked into this process"
                    )
                span.set(outcome="local")
                return LocalNsmBinding(local)
            # The prototype resolves the host even when a local copy will
            # be used — the six-mapping cost structure of the paper's
            # measurements.
            if not self._batched:
                address = yield from self._resolve_nsm_host(record)
            else:
                # The batched path reads the host's meta address record
                # (what preloading warms) in this frame, in the hit idiom
                # of docs/architecture.md section 2, rule 4; a miss goes
                # straight to the resolver's miss step.  A host registered
                # without one falls back to mappings 4-6, so the two
                # paths answer alike.
                with (
                    obs.span("hns.resolve_host_fast", host=record.host_name)
                    if obs.enabled
                    else NULL_SPAN
                ) as host_span:
                    try:
                        with (
                            obs.span("meta.host_address", host=record.host_name)
                            if obs.enabled
                            else NULL_SPAN
                        ) as addr_span:
                            metastore = self.metastore
                            resolver = metastore.resolver
                            cpu = self.host.cpu
                            key = cache_key(
                                f"{metastore.host_label(record.host_name)}"
                                f".addr.{META_ORIGIN}",
                                _UNSPEC,
                            )
                            entry, cost = metastore.cache.probe(key)
                            yield cpu.compute(cost)
                            # hnslint: disable=SIM003 -- the hit idiom: entry is captured by value, read_hit copies the payload
                            if entry is not None:
                                records, cost = resolver.read_hit(key, entry, addr_span)
                                yield cpu.compute(cost)
                                resolver.hit_landed(key, entry)
                                if addr_span.recording:
                                    addr_span.set(outcome="hit")
                            else:
                                addr_span.set(outcome="miss")
                                records, _count = yield from resolver._miss(
                                    key,
                                    addr_span,
                                    lambda: resolver._fetch(key, RRType.UNSPEC),
                                )
                            address = decode_fields(records[0].data)["addr"]
                            if addr_span.recording:
                                addr_span.set(addr=address)
                    except NameNotFound:
                        host_span.set(fallback=True)
                        env.stats.counter("hns.fast_path.addr_fallbacks").increment()
                        address = yield from self._resolve_nsm_host(record)
            binding = remote_binding(address, record, nsm_name, ns_name)
            local = self._local_nsms.get(nsm_name)
            if local is not None:
                if span.recording:
                    span.set(outcome="local")
                return LocalNsmBinding(local)
            if span.recording:
                span.set(outcome="remote")
            return binding

    # Mappings 1-3, picked in the constructor: the meta store's chained
    # batch, or this.  Either returns ``(name service name, NSM name,
    # NsmRecord)``.
    def _sequential_mappings(
        self, context: str, query_class: str
    ) -> typing.Generator:
        """The prototype's three meta lookups, one round trip each."""
        # Mapping 1: context -> name service name.
        ns_name = yield from self.metastore.context_to_name_service(context)
        # Mapping 2: (name service, query class) -> NSM name.
        nsm_name = yield from self.metastore.nsm_name_for(ns_name, query_class)
        # Mapping 3: NSM name -> NSM binding information.
        record = yield from self.metastore.nsm_record(nsm_name)
        return ns_name, nsm_name, record

    def _resolve_nsm_host(self, record: NsmRecord) -> HostResolveCall:
        """Mappings 4-6: host name -> network address.

        4. host context -> name service name        (meta lookup)
        5. (name service, HostAddress) -> NSM name  (meta lookup)
        6. the statically linked HostAddress NSM's native lookup.
        """
        obs = self.env.obs
        with (
            obs.span("hns.resolve_host", host=record.host_name)
            if obs.enabled
            else NULL_SPAN
        ):
            host_ns = yield from self.metastore.context_to_name_service(
                record.host_context
            )
            yield from self.metastore.nsm_name_for(host_ns, HOST_ADDRESS_QC)
            nsm = self._host_address_nsms.get(host_ns)
            if nsm is None:
                raise HnsError(
                    f"no statically linked HostAddress NSM for name service "
                    f"{host_ns!r} (needed to resolve {record.host_name})"
                )
            result = yield from nsm.query(
                HNSName(record.host_context, record.host_name)
            )
            return typing.cast(str, result.value["address"])

    # ------------------------------------------------------------------
    def preload(self) -> typing.Generator:
        """Preload the meta cache by zone transfer (~390 ms for ~2 KB).

        Also warms the statically linked HostAddress NSM caches from the
        NSM-host address records carried in the meta zone, which is what
        "guarantee[s] HNS cache hits".
        """
        count = yield from self.metastore.preload()
        # Warm the host-address NSM caches from the transferred
        # `<label>.addr.hns` records (cache format is demarshalled, so
        # payloads are ResourceRecord lists).
        from repro.bind.cache import CacheFormat

        if self.metastore.cache.format is not CacheFormat.DEMARSHALLED:
            return count
        for _owner, entry in self.metastore.cache.warm_entries(
            f".addr.{META_ORIGIN}"
        ):
            fields = decode_fields(entry.payload[0].data)
            for nsm in self._host_address_nsms.values():
                nsm.cache.insert(
                    ("hostaddr", fields["host"]),
                    {"address": fields["addr"]},
                    1,
                    self.calibration.meta_ttl_ms,
                )
        return count


class HnsService:
    """The HNS wrapped as a remote HRPC service (program ``hns``)."""

    PROGRAM = "hns"

    def __init__(self, hns: HNS, server: HrpcServer):
        if hns.host is not server.host:
            raise ValueError("HNS instance and server must share a host")
        self.hns = hns
        self.server = server

        def find_nsm_proc(ctx, hns_name_text: str, query_class: str):
            binding = yield from hns.find_nsm(
                HNSName.parse(hns_name_text), query_class
            )
            if isinstance(binding, LocalNsmBinding):
                raise HnsError(
                    f"FindNSM selected {binding.nsm.name}, which is linked "
                    "into the HNS server process and not callable remotely"
                )
            return binding

        server.program(self.PROGRAM).procedure("FindNSM", find_nsm_proc)


def serve_hns(hns: HNS, server: HrpcServer) -> HnsService:
    """Expose ``hns`` on ``server`` as program ``hns``."""
    return HnsService(hns, server)
