"""The HNS meta-naming store.

"Although all data associated with individually nameable entities is
kept in the underlying name services, the HNS maintains additional
meta-naming information needed for managing the global name space.
This information consists of the names and binding information for each
name service and each NSM, the names of all contexts, and the mappings
from contexts to name services. ... we use a version of BIND, modified
to support both dynamic updates and also data of unspecified type."

Layout of the meta zone (origin ``hns``):

====================================  =====================================
owner name                            data (``key=value;...`` in UNSPEC)
====================================  =====================================
``<context>.ctx.hns``                 ``ns=<name service name>``
``<qclass>.<ns>.q.hns``               ``nsm=<nsm name>``
``<nsm>.nsm.hns``                     ``host=..;hostctx=..;prog=..;suite=..;port=..``
``<ns>.ns.hns``                       ``type=..;host=..;port=..``
``<host>.addr.hns``  (A record)       network address of an NSM host
====================================  =====================================

Every mapping is one BIND lookup through the HNS's Raw-HRPC interface to
the meta server, cached demarshalled with TTL invalidation.
"""

from __future__ import annotations

import dataclasses
import types
import typing

from repro.bind import (
    BindResolver,
    CacheFormat,
    CacheInstaller,
    DomainName,
    NameNotFound,
    ResolverCache,
    ResourceRecord,
    RRType,
    UpdateMode,
    UpdateOp,
)
from repro.core.errors import ContextNotFound, HnsError, NsmNotFound

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.core.nsm import LeaseKeeper
    from repro.sim.events import Event
from repro.harness.calibration import Calibration, DEFAULT_CALIBRATION
from repro.hrpc.suites import suite_named
from repro.memo import memoised
from repro.net.addresses import Endpoint
from repro.net.host import Host
from repro.net.transport import Transport
from repro.obs.span import NULL_SPAN
from repro.bind.messages import STATUS_OK, BatchQuestion
from repro.bind.resolver import cache_key
from repro.resolution import PolicySet

META_ORIGIN = "hns"
#: how long the first writer holds a batch open for followers
BATCH_WINDOW_MS = 5.0
#: operations per batch datagram (the wire format's cap)
MAX_BATCH_OPS = 64
#: a lease is renewed when this fraction of it has elapsed
LEASE_RENEW_FRACTION = 0.5


def encode_fields(**fields: object) -> bytes:
    """Encode meta fields as ``key=value;...`` (the UNSPEC data)."""
    for key, value in fields.items():
        text = str(value)
        if "=" in key or ";" in key or ";" in text or "=" in text:
            raise ValueError(f"field {key}={text!r} contains reserved characters")
    return ";".join(f"{k}={v}" for k, v in sorted(fields.items())).encode("utf-8")


@memoised
def decode_fields(data: bytes) -> typing.Mapping[str, str]:
    """Decode ``key=value;...`` meta-record data (a read-only mapping)."""
    out: typing.Dict[str, str] = {}
    text = data.decode("utf-8")
    if text:
        for part in text.split(";"):
            key, sep, value = part.partition("=")
            if not sep:
                raise ValueError(f"malformed meta record field {part!r}")
            out[key] = value
    return types.MappingProxyType(out)


def _mapping_error(
    failed: int,
    context: str,
    query_class: str,
    ns_name: typing.Optional[str],
    nsm_name: typing.Optional[str],
) -> HnsError:
    """What the sequential path raises when mapping ``failed`` (0-2) has
    no answer, given what the mappings before it found."""
    if failed == 0:
        return ContextNotFound(context)
    if failed == 1:
        return NsmNotFound(f"{query_class} on {ns_name or context}")
    return NsmNotFound(nsm_name or f"{query_class} on {ns_name}")


class _Mapping(typing.NamedTuple):
    """How one of the three sequential mappings answers
    (:meth:`MetaStore._mapping`)."""

    #: the ``meta.*`` span it runs under
    span: str
    #: the record field it answers with, also set on the span; ``None``
    #: answers the whole :class:`NsmRecord`
    field: typing.Optional[str]
    #: what a missing record raises, built from the subject
    missing: typing.Type[HnsError]


_CONTEXT_TO_NS = _Mapping("meta.context_to_ns", "ns", ContextNotFound)
_NSM_NAME = _Mapping("meta.nsm_name", "nsm", NsmNotFound)
_NSM_RECORD = _Mapping("meta.nsm_record", None, NsmNotFound)


@dataclasses.dataclass(frozen=True)
class NameServiceRecord:
    """Descriptor of one underlying name service."""

    name: str
    kind: str          # "bind" or "clearinghouse"
    host_name: str     # where its server runs
    port: int

    def to_fields(self) -> bytes:
        return encode_fields(type=self.kind, host=self.host_name, port=self.port)

    @classmethod
    def from_fields(cls, name: str, data: bytes) -> "NameServiceRecord":
        fields = decode_fields(data)
        return cls(name, fields["type"], fields["host"], int(fields["port"]))


@dataclasses.dataclass(frozen=True)
class NsmRecord:
    """Binding information for one NSM, as stored in the meta zone."""

    name: str
    query_class: str
    name_service: str
    host_name: str     # host the NSM process runs on
    host_context: str  # context in which that host name is resolvable
    program: str       # HRPC program name
    suite: str         # protocol suite for calling it
    port: int          # 0 if the NSM is only available linked-in

    def to_fields(self) -> bytes:
        return encode_fields(
            qc=self.query_class,
            ns=self.name_service,
            host=self.host_name,
            hostctx=self.host_context,
            prog=self.program,
            suite=self.suite,
            port=self.port,
        )

    @classmethod
    @memoised
    def from_fields(cls, name: str, data: bytes) -> "NsmRecord":
        fields = decode_fields(data)
        suite_named(fields["suite"])  # validate early
        return cls(
            name=name,
            query_class=fields["qc"],
            name_service=fields["ns"],
            host_name=fields["host"],
            host_context=fields["hostctx"],
            program=fields["prog"],
            suite=fields["suite"],
            port=int(fields["port"]),
        )


@dataclasses.dataclass
class DirectoryListing:
    """The parsed contents of the meta zone."""

    serial: int
    #: context (lowercased label) -> name service name
    contexts: typing.Dict[str, str] = dataclasses.field(default_factory=dict)
    #: (name service label, query class label) -> NSM name
    query_mappings: typing.Dict[typing.Tuple[str, str], str] = dataclasses.field(
        default_factory=dict
    )
    #: NSM label -> record
    nsms: typing.Dict[str, "NsmRecord"] = dataclasses.field(default_factory=dict)
    #: name service label -> record
    name_services: typing.Dict[str, "NameServiceRecord"] = dataclasses.field(
        default_factory=dict
    )
    #: NSM host name -> address
    nsm_hosts: typing.Dict[str, str] = dataclasses.field(default_factory=dict)

    def render(self) -> str:
        lines = [f"meta zone serial {self.serial}"]
        lines.append("name services:")
        for label, record in sorted(self.name_services.items()):
            lines.append(f"  {record.name} ({record.kind}) @ {record.host_name}:{record.port}")
        lines.append("contexts:")
        for context, ns in sorted(self.contexts.items()):
            lines.append(f"  {context} -> {ns}")
        lines.append("NSMs:")
        for label, record in sorted(self.nsms.items()):
            lines.append(
                f"  {record.name}: {record.query_class} on {record.name_service} "
                f"@ {record.host_name}:{record.port} ({record.suite})"
            )
        return "\n".join(lines)


@dataclasses.dataclass
class _OpenBatch:
    """A coalescing window in progress on one store.

    Ops are keyed by ``(owner, rtype)`` so a later registration of the
    same owner inside the window simply overwrites the earlier one —
    last writer wins, exactly what a rebinding wave wants.
    """

    done: "Event"
    ops: typing.Dict[typing.Tuple[str, int], UpdateOp] = dataclasses.field(
        default_factory=dict
    )


class MetaStore:
    """Client-side access to the meta zone, with the HNS cache.

    One instance per HNS instance; where the instance lives (client
    process, agent, HNS server) determines whose CPU pays and how much
    sharing the cache sees — the colocation tradeoff.
    """

    def __init__(
        self,
        host: Host,
        transport: Transport,
        meta_server: Endpoint,
        calibration: Calibration = DEFAULT_CALIBRATION,
        cache_format: CacheFormat = CacheFormat.DEMARSHALLED,
        cache: typing.Optional[ResolverCache] = None,
        secondaries: typing.Sequence[Endpoint] = (),
        policies: PolicySet = PolicySet.default(),
    ):
        self.host = host
        self.env = host.env
        self.calibration = calibration
        #: the one policy bundle of this store and its resolver: the
        #: reads follow ``resolution``, ``fast_path`` and ``replica``
        #: (in the resolver), the writes below follow ``update``
        self.policies = policies
        #: the coalescing window currently open on this store, if any
        self._open_batch: typing.Optional[_OpenBatch] = None
        #: client-side renewal agent for leased registrations
        self._lease_keeper: typing.Optional["LeaseKeeper"] = None
        self.cache = (
            cache
            if cache is not None
            else ResolverCache(
                host.env,
                name=f"hns-meta@{host.name}",
                fmt=cache_format,
                calibration=calibration,
                stale_retention_ms=policies.resolution.stale_window_ms,
            )
        )
        # Each meta mapping is a remote call through the Raw HRPC
        # interface to the modified BIND; the per-call control cost is
        # calibrated to match the raw suite's CPU overhead.
        self.resolver = BindResolver(
            host,
            transport,
            meta_server,
            marshalling="generated",
            cache=self.cache,
            per_call_overhead_ms=calibration.hrpc_meta_call_ms,
            calibration=calibration,
            name=f"meta@{host.name}",
            secondaries=secondaries,
            policies=policies,
        )
        #: writes, NOTIFY subscription and transfers go to the primary alone
        self.primary = self.resolver.primary
        #: what follows the primary into the cache: preload and NOTIFY pulls
        self.installer = CacheInstaller(self.primary, self.cache, calibration)

    # ------------------------------------------------------------------
    # Mapping lookups (each is "one data mapping" in the paper's terms)
    # ------------------------------------------------------------------
    def context_to_name_service(self, context: str) -> typing.Generator:
        """Mapping 1: context -> name service name."""
        return self._mapping(
            _CONTEXT_TO_NS,
            f"{context}.ctx.{META_ORIGIN}",
            context,
            mapping=1,
            context=context,
        )

    def nsm_name_for(self, name_service: str, query_class: str) -> typing.Generator:
        """Mapping 2: (name service, query class) -> NSM name."""
        return self._mapping(
            _NSM_NAME,
            f"{query_class}.{name_service}.q.{META_ORIGIN}",
            f"{query_class} on {name_service}",
            mapping=2,
            ns=name_service,
            query_class=query_class,
        )

    def nsm_record(self, nsm_name: str) -> typing.Generator:
        """Mapping 3: NSM name -> NSM binding information."""
        return self._mapping(
            _NSM_RECORD, f"{nsm_name}.nsm.{META_ORIGIN}", nsm_name, mapping=3, nsm=nsm_name
        )

    def _mapping(
        self, kind: _Mapping, owner: str, subject: str, **attrs: object
    ) -> typing.Generator:
        """One sequential mapping: ``owner``'s meta record, answered as
        ``kind`` says, under ``kind``'s span carrying ``attrs``.

        The one frame of a mapping, hit or miss: it writes the hit idiom
        out itself (docs/architecture.md section 2, rule 4), and a miss
        goes straight to the resolver's miss step, as
        ``BindResolver.lookup`` does.  ``subject`` names what was not
        found, and ``NsmRecord``'s name for mapping 3.
        """
        resolver = self.resolver
        cpu = self.host.cpu
        obs = self.env.obs
        with (obs.span(kind.span, **attrs) if obs.enabled else NULL_SPAN) as span:
            key = cache_key(owner, RRType.UNSPEC)
            entry, cost = self.cache.probe(key)
            yield cpu.compute(cost)
            try:
                # hnslint: disable=SIM003 -- the hit idiom: entry is captured by value, read_hit copies the payload
                if entry is not None:
                    records, cost = resolver.read_hit(key, entry, span)
                    yield cpu.compute(cost)
                    resolver.hit_landed(key, entry)
                    span.set(outcome="hit")
                else:
                    span.set(outcome="miss")
                    records, _count = yield from resolver._miss(
                        key, span, lambda: resolver._fetch(key, RRType.UNSPEC)
                    )
            except NameNotFound as err:
                raise kind.missing(subject) from err
            data = records[0].data
            if kind.field is None:
                return NsmRecord.from_fields(subject, data)
            answer = decode_fields(data)[kind.field]
            span.set(**{kind.field: answer})
            return answer

    def find_nsm_bundle(
        self, context: str, query_class: str
    ) -> typing.Generator:
        """Mappings 1-3 in at most one (chained, batched) round trip.

        Returns ``(name_service_name, nsm_name, NsmRecord)`` — exactly
        what the sequential ``context_to_name_service`` /
        ``nsm_name_for`` / ``nsm_record`` trio produces, but the cache
        misses travel as one multi-question query whose later questions
        chain on the earlier answers server-side.  Fully cached prefixes
        are probed locally, so a warm client sends nothing at all.
        """
        resolver = self.resolver
        cache = self.cache
        cpu = self.host.cpu
        obs = self.env.obs
        with (
            obs.span("meta.bundle", context=context, query_class=query_class)
            if obs.enabled
            else NULL_SPAN
        ) as span:
            ns_name: typing.Optional[str] = None
            nsm_name: typing.Optional[str] = None
            # The cached prefix, one hit (a probe and a copy charge) per
            # mapping; ``stage`` is the mapping (0-2) ``owner`` answers.
            stage = 0
            owner = f"{context}.ctx.{META_ORIGIN}"
            while True:
                key = cache_key(owner, RRType.UNSPEC)
                entry, cost = cache.probe(key)
                yield cpu.compute(cost)
                # hnslint: disable=SIM003 -- the hit idiom: entry is captured by value, read_hit copies the payload
                if entry is None:
                    break
                try:
                    records, cost = resolver.read_hit(key, entry)
                except NameNotFound as err:
                    raise _mapping_error(
                        stage, context, query_class, ns_name, nsm_name
                    ) from err
                yield cpu.compute(cost)
                resolver.hit_landed(key, entry)
                data = records[0].data
                if stage == 2:
                    span.set(ns=ns_name, nsm=nsm_name, cached=True)
                    return ns_name, nsm_name, NsmRecord.from_fields(nsm_name, data)
                if stage == 0:
                    ns_name = decode_fields(data)["ns"]
                    owner = f"{query_class}.{ns_name}.q.{META_ORIGIN}"
                else:
                    nsm_name = decode_fields(data)["nsm"]
                    owner = f"{nsm_name}.nsm.{META_ORIGIN}"
                stage += 1
            # One chained batch for the missing suffix: ``owner`` first,
            # each later mapping chained on the answer before it.
            chained = (
                (f"{query_class}.*.q.{META_ORIGIN}", "ns"),
                (f"*.nsm.{META_ORIGIN}", "nsm"),
            )
            questions = [BatchQuestion(owner, RRType.UNSPEC)] + [
                BatchQuestion(
                    template, RRType.UNSPEC, chain_from=i, chain_field=field
                )
                for i, (template, field) in enumerate(chained[stage:])
            ]
            answers = yield from resolver.lookup_batch(questions)
            for offset, answer in enumerate(answers):
                if answer.status != STATUS_OK or not answer.records:
                    raise _mapping_error(
                        stage + offset, context, query_class, ns_name, nsm_name
                    )
            if stage == 0:
                ns_name = decode_fields(answers[0].records[0].data)["ns"]
            if stage < 2:
                nsm_name = decode_fields(answers[1 - stage].records[0].data)["nsm"]
            assert ns_name is not None and nsm_name is not None
            span.set(ns=ns_name, nsm=nsm_name, cached=False)
            return (
                ns_name,
                nsm_name,
                NsmRecord.from_fields(nsm_name, answers[-1].records[0].data),
            )

    def name_service_record(self, ns_name: str) -> typing.Generator:
        """Descriptor lookup (used by admin tooling and NSM bootstrap)."""
        owner = f"{ns_name}.ns.{META_ORIGIN}"
        try:
            records = yield from self.resolver.lookup(owner, RRType.UNSPEC)
        except NameNotFound as err:
            raise HnsError(f"unknown name service {ns_name!r}") from err
        return NameServiceRecord.from_fields(ns_name, records[0].data)

    @staticmethod
    @memoised
    def host_label(host_name: str) -> str:
        """Sanitise a (possibly dotted or colon-ed) host name to a label."""
        return "".join(c if c.isalnum() else "-" for c in host_name.lower())

    # ------------------------------------------------------------------
    # Registration (dynamic updates to the modified BIND)
    # ------------------------------------------------------------------
    def _put(self, owner: str, data: bytes, rtype: RRType = RRType.UNSPEC) -> typing.Generator:
        record = ResourceRecord(
            owner, rtype, self.calibration.meta_ttl_ms, data  # type: ignore[arg-type]
        )
        obs = self.env.obs
        with (
            obs.span("meta.register", store=f"meta@{self.host.name}", owner=owner)
            if obs.enabled
            else NULL_SPAN
        ) as span:
            policy = self.policies.update
            if not policy.active:
                # The prototype write path: one record, one round trip.
                serial = yield from self.primary.update(
                    UpdateMode.REPLACE, owner, rtype, [record]
                )
                # Registration supersedes whatever the cache held for this
                # owner (cache keys are canonical lowercase domain names).
                self.cache.invalidate((str(DomainName(owner)), rtype.value))
                return serial
            op = UpdateOp(
                UpdateMode.REPLACE,
                DomainName(owner),
                rtype,
                lease_ms=policy.lease_ms if policy.leases else 0.0,
                records=(record,),
            )
            serial = yield from self._submit_op(op)
            span.set(batched=policy.batch, serial=serial)
            if policy.leases:
                self._leases().track((str(op.name), rtype.value), op)
            return serial

    # --- the batched write pipeline -----------------------------------
    def _submit_op(self, op: UpdateOp) -> typing.Generator:
        """Route one write through the update pipeline.

        With batching on, the first concurrent writer opens a
        coalescing window, sleeps it out, and flushes everything that
        accumulated as one (or a few, if over the wire cap) batched
        round trips; writers that arrive while the window is open merge
        their op in and park on the leader's event.
        """
        if not self.policies.update.batch:
            # No coalescing, but leases/NOTIFY still need the batch
            # message (it is the one that carries the lease field).
            serial, _ = yield from self.primary.update_batch([op])
            self._invalidate_for(op)
            return serial
        key = (str(op.name), op.rtype.value)
        batch = self._open_batch
        if batch is not None:
            # Follower: merge (last writer wins on the same owner) and
            # wait for the leader's flush.
            batch.ops[key] = op
            self.env.stats.counter("hns.meta.coalesced_writes").increment()
            serial = yield batch.done
            return serial
        event = self.env.event()
        # The flush may fail with nobody parked on the batch.
        event.defuse()
        batch = _OpenBatch(done=event)
        batch.ops[key] = op
        self._open_batch = batch
        yield self.env.timeout(BATCH_WINDOW_MS)
        self._open_batch = None
        ops = list(batch.ops.values())
        try:
            serial = yield from self._send_batched(ops)
        except BaseException as err:
            batch.done.fail(err)
            raise
        for queued in ops:
            self._invalidate_for(queued)
        self.env.trace.emit(
            "hns",
            f"meta@{self.host.name}: flushed {len(ops)} coalesced "
            f"writes (serial {serial})",
        )
        batch.done.succeed(serial)
        return serial

    def _send_batched(self, ops: typing.List[UpdateOp]) -> typing.Generator:
        """One round trip per :data:`MAX_BATCH_OPS` of ``ops`` (a flushed
        window, or every tracked lease re-asserted); returns the last
        serial."""
        serial = 0
        for start in range(0, len(ops), MAX_BATCH_OPS):
            chunk = ops[start:start + MAX_BATCH_OPS]
            serial, _ = yield from self.primary.update_batch(chunk)
        return serial

    def _invalidate_for(self, op: UpdateOp) -> None:
        self.cache.invalidate((str(op.name), op.rtype.value))

    # --- leases -------------------------------------------------------
    def _leases(self) -> "LeaseKeeper":
        """The renewal agent, created on first leased registration."""
        if self._lease_keeper is None:
            from repro.core.nsm import LeaseKeeper

            self._lease_keeper = LeaseKeeper(
                self.env,
                self._send_batched,
                lease_ms=self.policies.update.lease_ms,
                renew_fraction=LEASE_RENEW_FRACTION,
                name=f"meta@{self.host.name}",
            )
        return self._lease_keeper

    def stop_lease_renewal(self) -> None:
        """Stop renewing (models this registrar dying): the primary
        retracts every binding we held when its lease runs out."""
        if self._lease_keeper is not None:
            self._lease_keeper.stop()

    # --- NOTIFY -------------------------------------------------------
    def subscribe_invalidation(self) -> typing.Generator:
        """Subscribe this store's cache to the primary's NOTIFY push.

        Pushed serial bumps pull IXFR deltas straight into the cache,
        so re-registrations elsewhere stop being served here long
        before their TTL would have expired.  Returns the zone serial
        the subscription starts from.
        """
        serial = yield from self.installer.subscribe_notify(META_ORIGIN)
        return serial

    def register_context(self, context: str, name_service: str) -> typing.Generator:
        yield from self._put(
            f"{context}.ctx.{META_ORIGIN}", encode_fields(ns=name_service)
        )

    def register_query_mapping(
        self, name_service: str, query_class: str, nsm_name: str
    ) -> typing.Generator:
        yield from self._put(
            f"{query_class}.{name_service}.q.{META_ORIGIN}",
            encode_fields(nsm=nsm_name),
        )

    def register_nsm(self, record: NsmRecord) -> typing.Generator:
        yield from self._put(f"{record.name}.nsm.{META_ORIGIN}", record.to_fields())

    def register_name_service(self, record: NameServiceRecord) -> typing.Generator:
        yield from self._put(f"{record.name}.ns.{META_ORIGIN}", record.to_fields())

    def register_nsm_host_address(self, host_name: str, address: str) -> typing.Generator:
        owner = f"{self.host_label(host_name)}.addr.{META_ORIGIN}"
        yield from self._put(owner, encode_fields(host=host_name, addr=address))

    def unregister(self, owner: str, rtype: RRType = RRType.UNSPEC) -> typing.Generator:
        if self.policies.update.active:
            op = UpdateOp(UpdateMode.DELETE, DomainName(owner), rtype)
            # Released first: a renewal tick while the DELETE is in
            # flight would re-add the binding behind it.
            if self._lease_keeper is not None:
                self._lease_keeper.release((str(op.name), rtype.value))
            yield from self._submit_op(op)
            return
        yield from self.primary.update(UpdateMode.DELETE, owner, rtype)
        self.cache.invalidate((str(DomainName(owner)), rtype.value))

    # ------------------------------------------------------------------
    def directory(self) -> typing.Generator:
        """Browse the whole federation: one zone transfer, parsed.

        Returns a :class:`DirectoryListing` of every registered context,
        name service, query mapping, and NSM — the administrator's view
        of the global name space.
        """
        serial, records = yield from self.primary.zone_transfer(META_ORIGIN)
        listing = DirectoryListing(serial=serial)
        suffixes = {
            "ctx": 2,  # <context>.ctx.hns
            "q": 3,    # <qclass>.<ns>.q.hns
            "nsm": 2,  # <nsm>.nsm.hns
            "ns": 2,   # <ns>.ns.hns
            "addr": 2, # <hostlabel>.addr.hns
        }
        for record in records:
            labels = record.name.labels
            if len(labels) < 3 or labels[-1] != META_ORIGIN:
                continue
            kind = labels[-2]
            if kind not in suffixes or len(labels) != suffixes[kind] + 1:
                continue
            fields = decode_fields(record.data)
            if kind == "ctx":
                listing.contexts[labels[0]] = fields["ns"]
            elif kind == "q":
                listing.query_mappings[(labels[1], labels[0])] = fields["nsm"]
            elif kind == "nsm":
                listing.nsms[labels[0]] = NsmRecord.from_fields(labels[0], record.data)
            elif kind == "ns":
                listing.name_services[labels[0]] = NameServiceRecord.from_fields(
                    labels[0], record.data
                )
            elif kind == "addr":
                listing.nsm_hosts[fields["host"]] = fields["addr"]
        return listing

    def preload(self) -> typing.Generator:
        """Zone-transfer the whole meta zone into the cache.

        Returns the number of records loaded (~2 KB in the prototype,
        costing ~390 ms).
        """
        count = yield from self.installer.preload(META_ORIGIN)
        return count
