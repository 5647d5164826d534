"""The canned HCS testbed and colocation-stack builder.

``build_testbed`` stands up the whole environment of Section 3:

- MicroVAX-class hosts on one lightly loaded Ethernet;
- the modified meta-BIND (dynamic update + UNSPEC data);
- a public BIND serving ``cs.washington.edu`` (hosts, mail TXT, file
  TXT records);
- a Clearinghouse serving the ``hcs:uw`` domain for the Xerox side;
- a Sun host (``fiji``) running the portmapper and a target Sun RPC
  service, and an XDE host (``dlion``) running the Courier binder and a
  Courier service;
- meta-zone registrations for both name services, their contexts, and
  all their NSMs, written through the dynamic-update path.

``build_stack`` then wires the client side for any of the five
colocation arrangements of Table 3.1.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.bind import BindServer, ResourceRecord, Zone
from repro.clearinghouse import (
    CHName,
    ClearinghouseServer,
    Credentials,
)
from repro.core.admin import HnsAdministrator
from repro.core.colocation import Arrangement, ColocationStack
from repro.core.hns import HNS, serve_hns
from repro.core.import_call import (
    HrpcImporter,
    LocalFinder,
    RemoteFinder,
    serve_agent,
)
from repro.core.metastore import MetaStore
from repro.core.nsm import NamingSemanticsManager, NsmStub, serve_nsm
from repro.core.nsms.bind import BindBindingNSM, BindHostAddressNSM, BindNSM
from repro.core.nsms.clearinghouse import (
    ClearinghouseBindingNSM,
    ClearinghouseHostAddressNSM,
    ClearinghouseNSM,
)
from repro.harness.calibration import Calibration, DEFAULT_CALIBRATION
from repro.hcsfs.fileserver import FILE_PROGRAM
from repro.hrpc import (
    CourierBinder,
    HRPCBinding,
    HrpcRuntime,
    HrpcServer,
    Portmapper,
)
from repro.net import DatagramTransport, Internetwork, StreamTransport
from repro.net.addresses import WELL_KNOWN_PORTS, Endpoint
from repro.net.host import Host
from repro.resolution import (
    DEFAULT_RESOLUTION_POLICY,
    FastPathPolicy,
    PolicySet,
    ReplicaPolicy,
    UpdatePolicy,
)
from repro.sim import ConstantLatency, Environment, Interrupt

# Fixed well-known deployment constants for the testbed.
BIND_NS = "BIND-cs"
CH_NS = "CH-hcs"
BIND_CONTEXT = "BIND-cs"
CH_CONTEXT = "CH-hcs"
SRV_CONTEXT = "BIND-srv"
NSM_PORT = WELL_KNOWN_PORTS["nsm-base"]
HNS_PORT = WELL_KNOWN_PORTS["hns"]
AGENT_PORT = WELL_KNOWN_PORTS["hns"] + 1
TARGET_SERVICE = "DesiredService"
TARGET_PORT = 9999
COURIER_SERVICE = "PrintService"
COURIER_PORT = 6001
CREDENTIALS = Credentials("hcs", "hcs-secret")
#: (query class, name service) -> the registered NSM's port, as an offset
#: from ``NSM_PORT``; ``build_testbed`` registers them in this order
NSM_PORT_OFFSETS: typing.Dict[typing.Tuple[str, str], int] = {
    ("HRPCBinding", BIND_NS): 0,
    ("HostAddress", BIND_NS): 1,
    ("MailboxLocation", BIND_NS): 2,
    ("FileService", BIND_NS): 3,
    ("HRPCBinding", CH_NS): 4,
    ("HostAddress", CH_NS): 5,
    ("MailboxLocation", CH_NS): 6,
    ("FileService", CH_NS): 7,
}
_Nsm = typing.TypeVar("_Nsm", bound=NamingSemanticsManager)


@dataclasses.dataclass
class HcsTestbed:
    """Everything standing after :func:`build_testbed`."""

    env: Environment
    internet: Internetwork
    calibration: Calibration
    udp: DatagramTransport
    tcp: StreamTransport
    # hosts
    client: Host
    meta_host: Host
    public_host: Host
    fiji: Host
    june: Host
    dlion: Host
    ch_host: Host
    nsm_host: Host
    hns_host: Host
    agent_host: Host
    # services
    meta_server: BindServer
    meta_endpoint: Endpoint
    public_server: BindServer
    public_endpoint: Endpoint
    ch_server: ClearinghouseServer
    ch_endpoint: Endpoint

    def make_nsm(
        self, nsm_class: typing.Type[_Nsm], host: Host, **kwargs: typing.Any
    ) -> _Nsm:
        """An ``nsm_class`` NSM on ``host``, over its family's name
        service here: the public BIND over UDP, or the Clearinghouse
        over TCP.  ``kwargs`` go to the NSM (``cached``, ``fast_path``)."""
        if issubclass(nsm_class, BindNSM):
            return nsm_class(
                host,
                BIND_NS,
                self.udp,
                self.public_endpoint,
                calibration=self.calibration,
                **kwargs,
            )
        if issubclass(nsm_class, ClearinghouseNSM):
            return nsm_class(
                host,
                CH_NS,
                self.tcp,
                self.ch_endpoint,
                CREDENTIALS,
                calibration=self.calibration,
                **kwargs,
            )
        raise TypeError(f"the testbed runs no name service for {nsm_class.__name__}")

    def make_metastore(
        self,
        host: Host,
        secondaries: typing.Sequence[Endpoint] = (),
        policies: PolicySet = PolicySet.default(),
    ) -> MetaStore:
        return MetaStore(
            host,
            self.udp,
            self.meta_endpoint,
            calibration=self.calibration,
            secondaries=secondaries,
            policies=policies,
        )

    def make_hns(
        self,
        host: Host,
        secondaries: typing.Sequence[Endpoint] = (),
        policies: PolicySet = PolicySet.default(),
    ) -> HNS:
        """An HNS library instance with its statically linked NSMs."""
        hns = HNS(
            self.make_metastore(
                host, secondaries=secondaries, policies=policies
            ),
            calibration=self.calibration,
        )
        fast_path = policies.fast_path
        hns.link_host_address_nsm(
            BIND_NS,
            self.make_nsm(BindHostAddressNSM, host, fast_path=fast_path),
        )
        hns.link_host_address_nsm(
            CH_NS,
            self.make_nsm(ClearinghouseHostAddressNSM, host, fast_path=fast_path),
        )
        return hns


def _run(env: Environment, gen) -> object:
    return env.run(until=env.process(gen))


def build_testbed(
    seed: int = 0,
    calibration: Calibration = DEFAULT_CALIBRATION,
    update_policy: UpdatePolicy = UpdatePolicy.disabled(),
) -> HcsTestbed:
    """Stand up the full HCS environment and register the meta data.

    ``update_policy`` configures the meta server's write pipeline
    (batched updates, leases, NOTIFY fan-out); the default keeps the
    prototype's one-record-per-round-trip dynamic update.  The initial
    registration always runs the legacy path, so testbed setup is
    identical across modes.
    """
    env = Environment(seed=seed)
    internet = Internetwork(env)
    segment = internet.add_segment(
        latency=ConstantLatency(
            calibration.wire_base_ms, calibration.wire_per_byte_ms
        )
    )
    udp = DatagramTransport(internet)
    tcp = StreamTransport(internet)

    client = internet.add_host("client", segment)
    meta_host = internet.add_host("metans", segment)
    public_host = internet.add_host("ns0", segment)
    fiji = internet.add_host("fiji", segment, system_type="sun")
    june = internet.add_host("june", segment)
    dlion = internet.add_host("dlion", segment, system_type="xde")
    ch_host = internet.add_host("chserver", segment, system_type="xde")
    nsm_host = internet.add_host("nsmhost", segment)
    hns_host = internet.add_host("hnshost", segment)
    agent_host = internet.add_host("agenthost", segment)

    # --- the modified meta-BIND ------------------------------------------
    meta_server = BindServer(
        meta_host,
        zones=[Zone("hns")],
        lookup_cost_ms=calibration.meta_bind_lookup_ms,
        allow_dynamic_update=True,
        calibration=calibration,
        name="meta-bind",
        update_policy=update_policy,
        transport=udp,
    )
    meta_endpoint = meta_server.listen()

    # --- the public BIND ---------------------------------------------------
    zone = Zone("cs.washington.edu")
    for host in (
        fiji, june, public_host, nsm_host, hns_host, agent_host, client, dlion,
    ):
        zone.add(
            ResourceRecord.a_record(
                f"{host.name}.cs.washington.edu", str(host.address)
            )
        )
    zone.add(
        ResourceRecord.text_record(
            "schwartz.cs.washington.edu",
            "mailhost=june.cs.washington.edu;mailbox=schwartz",
        )
    )
    zone.add(
        ResourceRecord.text_record(
            "src.projects.cs.washington.edu",
            "server=fiji.cs.washington.edu;volume=/projects/src",
        )
    )
    public_server = BindServer(
        public_host, zones=[zone], calibration=calibration, name="public-bind"
    )
    public_endpoint = public_server.listen()

    # --- the Clearinghouse ---------------------------------------------------
    ch_server = ClearinghouseServer(ch_host, calibration=calibration)
    ch_server.credentials.enroll(CREDENTIALS.user, CREDENTIALS.secret)
    ch_server.database.register(
        CHName.parse("dlion:hcs:uw"),
        {"address": bytes(dlion.address.octets)},
    )
    ch_server.database.register(
        CHName.parse("levy:hcs:uw"),
        {"mailboxes": b"dlion:hcs:uw|levy"},
    )
    ch_server.database.register(
        CHName.parse("docs:hcs:uw"),
        {"fileservice": b"dlion:hcs:uw|/docs"},
    )
    ch_endpoint = ch_server.listen()

    # --- native binding protocols and target services -----------------------
    portmapper = Portmapper(fiji, calibration=calibration)
    portmapper.listen()
    portmapper.register_local(TARGET_SERVICE, TARGET_PORT)
    portmapper.register_local(FILE_PROGRAM, TARGET_PORT)
    target_server = HrpcServer(fiji, name="target")

    def ping(ctx, *args):
        yield ctx.host.cpu.compute(0.5)
        return ("pong",) + args

    target_server.program(TARGET_SERVICE).procedure("ping", ping)
    target_server.program(FILE_PROGRAM).procedure("ping", ping)
    target_server.listen(TARGET_PORT)

    binder = CourierBinder(dlion, calibration=calibration)
    binder.listen()
    binder.advertise_local(COURIER_SERVICE, COURIER_PORT)
    binder.advertise_local(FILE_PROGRAM, COURIER_PORT)
    courier_server = HrpcServer(dlion, name="courier-target")
    courier_server.program(COURIER_SERVICE).procedure("ping", ping)
    courier_server.program(FILE_PROGRAM).procedure("ping", ping)
    courier_server.listen(COURIER_PORT)

    testbed = HcsTestbed(
        env=env,
        internet=internet,
        calibration=calibration,
        udp=udp,
        tcp=tcp,
        client=client,
        meta_host=meta_host,
        public_host=public_host,
        fiji=fiji,
        june=june,
        dlion=dlion,
        ch_host=ch_host,
        nsm_host=nsm_host,
        hns_host=hns_host,
        agent_host=agent_host,
        meta_server=meta_server,
        meta_endpoint=meta_endpoint,
        public_server=public_server,
        public_endpoint=public_endpoint,
        ch_server=ch_server,
        ch_endpoint=ch_endpoint,
    )

    # --- meta-zone registration via the dynamic-update path ------------------
    admin = HnsAdministrator(testbed.make_metastore(meta_host))

    def register_everything():
        yield from admin.register_name_service(
            BIND_NS, "bind", f"{public_host.name}.cs.washington.edu", 53
        )
        yield from admin.register_name_service(
            CH_NS, "clearinghouse", "chserver:hcs:uw", ch_endpoint.port
        )
        yield from admin.register_context(BIND_CONTEXT, BIND_NS)
        yield from admin.register_context(CH_CONTEXT, CH_NS)
        # The infrastructure hosts (NSM servers etc.) live in their own
        # context on the same BIND service — "more than one context ...
        # stored on the same name service" — so a cold FindNSM really
        # does miss on all six mappings, as in the paper's measurements.
        yield from admin.register_context(SRV_CONTEXT, BIND_NS)
        nsm_fqdn = f"{nsm_host.name}.cs.washington.edu"
        for (query_class, ns), offset in NSM_PORT_OFFSETS.items():
            nsm_name = f"{query_class}-{ns}"
            yield from admin.register_nsm(
                nsm_name=nsm_name,
                query_class=query_class,
                name_service=ns,
                host_name=nsm_fqdn,
                host_context=SRV_CONTEXT,
                program=f"nsm.{nsm_name}",
                suite="sunrpc",
                port=NSM_PORT + offset,
                host_address=str(nsm_host.address),
            )

    _run(env, register_everything())
    return testbed


# ----------------------------------------------------------------------
# Colocation stacks
# ----------------------------------------------------------------------
#: arrangement -> (HNS remote?, binding NSM remote?).  Four of Table
#: 3.1's rows are these two independent placements; the agent row
#: (both behind one remote process) is the special case.
_PLACEMENTS: typing.Dict[Arrangement, typing.Tuple[bool, bool]] = {
    Arrangement.ALL_LOCAL: (False, False),
    Arrangement.REMOTE_HNS: (True, False),
    Arrangement.REMOTE_NSMS: (False, True),
    Arrangement.ALL_REMOTE: (True, True),
}


def build_stack(
    testbed: HcsTestbed,
    arrangement: Arrangement,
    name_service: str = BIND_NS,
    policies: PolicySet = PolicySet.default(),
) -> ColocationStack:
    """Wire the client side for one Table 3.1 arrangement.

    ``policies`` is the whole policy surface as one
    :class:`~repro.resolution.PolicySet` (``PolicySet()`` is the
    prototype everywhere; a mechanism is switched off by its
    ``.disabled()`` policy, never by ``None``).  Its ``resolution`` slot
    configures the fault-tolerance layer of every stage (meta resolver,
    HNS, importer); ``ResolutionPolicy.disabled()`` there gives the
    prototype's die-on-error behaviour (the benchmarks' ablation
    baseline).  ``fast_path`` configures the performance layer
    (coalescing, refresh-ahead, batched meta lookups) of the HNS in the
    stack, ``replica`` the replica-aware meta reads (adaptive selection,
    hedging, incremental transfer), ``update`` the write pipeline
    (batched registration, leases, NOTIFY-driven invalidation).
    """
    policy = policies.resolution
    client = testbed.client
    runtime = HrpcRuntime(client, testbed.internet)
    cal = testbed.calibration

    def binding_nsm_for(host: Host) -> NamingSemanticsManager:
        if name_service == BIND_NS:
            return testbed.make_nsm(BindBindingNSM, host)
        return testbed.make_nsm(ClearinghouseBindingNSM, host)

    if arrangement is Arrangement.AGENT:
        agent_host = testbed.agent_host
        hns = testbed.make_hns(agent_host, policies=policies)
        nsm = binding_nsm_for(agent_host)
        hns.link_local_nsm(nsm)
        agent_stub = NsmStub(agent_host, calibration=cal)
        agent_stub.link_local(nsm)
        server = HrpcServer(agent_host, name="agent")
        serve_agent(hns, server, agent_stub)
        server.listen(AGENT_PORT)
        agent_binding = HRPCBinding(
            Endpoint(agent_host.address, AGENT_PORT), "hnsagent", suite="sunrpc"
        )
        importer = HrpcImporter.via_agent(
            client, agent_binding, runtime, calibration=cal, policy=policy
        )
        return ColocationStack(
            arrangement, client, importer, hns, nsm, (agent_host,)
        )

    if arrangement not in _PLACEMENTS:
        raise ValueError(f"unknown arrangement {arrangement!r}")
    remote_hns, remote_nsms = _PLACEMENTS[arrangement]

    # Where FindNSM runs: linked into the client, or a service of its own.
    hns_host = testbed.hns_host if remote_hns else client
    hns = testbed.make_hns(hns_host, policies=policies)
    finder: typing.Union[LocalFinder, RemoteFinder]
    if remote_hns:
        hns_server = HrpcServer(hns_host, name="hns-service")
        serve_hns(hns, hns_server)
        hns_server.listen(HNS_PORT)
        hns_binding = HRPCBinding(
            Endpoint(hns_host.address, HNS_PORT), "hns", suite="sunrpc"
        )
        finder = RemoteFinder(runtime, hns_binding, policy=policy)
    else:
        finder = LocalFinder(hns)

    # Where the binding NSM runs: linked into the client (and so into a
    # client-side HNS too), or served from the NSM host.
    nsm_host = testbed.nsm_host if remote_nsms else client
    nsm = binding_nsm_for(nsm_host)
    stub = NsmStub(client, runtime, calibration=cal)
    if remote_nsms:
        nsm_server = HrpcServer(nsm_host, name="nsm-service")
        serve_nsm(nsm_server, nsm)
        nsm_server.listen(
            NSM_PORT + NSM_PORT_OFFSETS[nsm.query_class, nsm.name_service]
        )
    else:
        stub.link_local(nsm)
        if not remote_hns:
            hns.link_local_nsm(nsm)

    importer = HrpcImporter.direct(
        client, finder, stub, calibration=cal, policy=policy
    )
    return ColocationStack(
        arrangement,
        client,
        importer,
        hns,
        nsm,
        tuple(host for host in (hns_host, nsm_host) if host is not client),
    )


# ----------------------------------------------------------------------
# The scenario registry (determinism checking, smoke runs)
# ----------------------------------------------------------------------
#: name -> builder(seed) -> Environment.  Each builder stands up the
#: testbed, enables tracing, drives a small representative workload to
#: completion, and returns the environment so callers can digest the
#: trace (``env.trace.digest()``) and stats.  The scenario pass
#: (``python -m repro.analysis --scenarios``) runs every entry six
#: times per seed and fails on any replay digest mismatch.
SCENARIOS: "typing.Dict[str, typing.Callable[[int], Environment]]" = {}


def scenario(name: str) -> typing.Callable:
    """Register a scenario builder under ``name``."""

    def decorate(builder: typing.Callable[[int], Environment]):
        if name in SCENARIOS:
            raise ValueError(f"duplicate scenario {name!r}")
        SCENARIOS[name] = builder
        return builder

    return decorate


def _import_scenario(arrangement: Arrangement) -> typing.Callable[[int], Environment]:
    """A cold-then-warm Import through one colocation arrangement."""

    def build(seed: int) -> Environment:
        from repro.core.names import HNSName

        testbed = build_testbed(seed=seed)
        stack = build_stack(testbed, arrangement)
        env = testbed.env
        env.trace.enabled = True
        name = HNSName(BIND_CONTEXT, "fiji.cs.washington.edu")

        def do():
            yield from stack.importer.import_binding(TARGET_SERVICE, name)

        env.run(until=env.process(do()))
        env.run(until=env.process(do()))
        return env

    return build


for _arrangement in Arrangement:
    SCENARIOS[f"import_{_arrangement.name.lower()}"] = _import_scenario(
        _arrangement
    )


@scenario("fast_path_coalescing")
def _fast_path_scenario(seed: int) -> Environment:
    """Concurrent same-name imports under the fast path (coalescing)."""
    from repro.core.names import HNSName

    testbed = build_testbed(seed=seed)
    stack = build_stack(
        testbed,
        Arrangement.ALL_LOCAL,
        policies=PolicySet(
            resolution=DEFAULT_RESOLUTION_POLICY, fast_path=FastPathPolicy()
        ),
    )
    env = testbed.env
    env.trace.enabled = True
    name = HNSName(BIND_CONTEXT, "fiji.cs.washington.edu")

    def one_import():
        yield from stack.importer.import_binding(TARGET_SERVICE, name)

    def drive():
        waiters = [env.process(one_import()) for _ in range(4)]
        yield env.all_of(waiters)

    env.run(until=env.process(drive()))
    return env


@scenario("replica_scheduling")
def _replica_scenario(seed: int) -> Environment:
    """Meta reads through the adaptive replica scheduler (hedging on)."""
    from repro.core.names import HNSName

    testbed = build_testbed(seed=seed)
    stack = build_stack(
        testbed,
        Arrangement.ALL_LOCAL,
        policies=PolicySet(
            resolution=DEFAULT_RESOLUTION_POLICY, replica=ReplicaPolicy()
        ),
    )
    env = testbed.env
    env.trace.enabled = True
    name = HNSName(BIND_CONTEXT, "june.cs.washington.edu")

    def do():
        yield from stack.hns.find_nsm(name, "HostAddress")

    env.run(until=env.process(do()))
    env.run(until=env.process(do()))
    return env


@scenario("zipf_workload")
def _workload_scenario(seed: int) -> Environment:
    """A Zipf query stream over the HNS — exercises the named RNG paths."""
    from repro.core.names import HNSName
    from repro.workloads.generator import QueryWorkload

    testbed = build_testbed(seed=seed)
    stack = build_stack(testbed, Arrangement.ALL_LOCAL)
    env = testbed.env
    env.trace.enabled = True
    population = [
        (HNSName(BIND_CONTEXT, f"{host}.cs.washington.edu"), "HostAddress", {})
        for host in ("fiji", "june", "ns0", "client")
    ]
    workload = QueryWorkload(
        env, population, mean_interarrival_ms=40.0, zipf_s=1.1
    )

    def drive():
        for query in workload.generate(12):
            if query.at_ms > env.now:
                yield env.timeout(query.at_ms - env.now)
            yield from stack.hns.find_nsm(query.hns_name, query.query_class)

    env.run(until=env.process(drive()))
    return env


@scenario("traced_cold_import")
def _traced_scenario(seed: int) -> Environment:
    """A cold-then-warm Import with span tracing and metrics enabled.

    The returned environment carries the spans (``env.obs.spans``) and
    the ``obs.span.*`` histograms, so exporters and the critical-path
    analyzer have something real to chew on.  Registered like any other
    scenario, it also proves tracing survives the determinism gate.
    """
    from repro.core.names import HNSName
    from repro.obs import SpanMetrics

    testbed = build_testbed(seed=seed)
    stack = build_stack(testbed, Arrangement.ALL_LOCAL)
    env = testbed.env
    env.trace.enabled = True
    env.obs.enable(metrics=SpanMetrics(env))
    name = HNSName(BIND_CONTEXT, "fiji.cs.washington.edu")

    def do():
        yield from stack.importer.import_binding(TARGET_SERVICE, name)

    env.run(until=env.process(do()))
    env.run(until=env.process(do()))
    return env


@scenario("registration_storm")
def _registration_storm_scenario(seed: int) -> Environment:
    """A system merge: a whole name service's NSM fleet registers at
    once, with the batched write pipeline coalescing the storm."""
    testbed = build_testbed(seed=seed, update_policy=UpdatePolicy())
    env = testbed.env
    env.trace.enabled = True
    admin = HnsAdministrator(
        testbed.make_metastore(
            testbed.agent_host,
            policies=PolicySet(
                resolution=DEFAULT_RESOLUTION_POLICY, update=UpdatePolicy()
            ),
        )
    )
    nsm_fqdn = f"{testbed.nsm_host.name}.cs.washington.edu"

    def register_one(query_class: str, offset: int):
        nsm_name = f"{query_class}-BIND-eng"
        yield from admin.register_nsm(
            nsm_name=nsm_name,
            query_class=query_class,
            name_service="BIND-eng",
            host_name=nsm_fqdn,
            host_context=SRV_CONTEXT,
            program=f"nsm.{nsm_name}",
            suite="sunrpc",
            port=NSM_PORT + 8 + offset,
            host_address=str(testbed.nsm_host.address),
        )

    def drive():
        yield from admin.register_name_service(
            "BIND-eng",
            "bind",
            f"{testbed.public_host.name}.cs.washington.edu",
            53,
        )
        yield from admin.register_context("BIND-eng", "BIND-eng")
        wave = [
            env.process(register_one(query_class, offset))
            for offset, query_class in enumerate(
                ("HRPCBinding", "HostAddress", "MailboxLocation", "FileService")
            )
        ]
        yield env.all_of(wave)

    env.run(until=env.process(drive()))
    return env


@scenario("nsm_rebinding_wave")
def _rebinding_wave_scenario(seed: int) -> Environment:
    """A fleet of NSMs rebinds to a new host while a warm reader holds
    their old records; NOTIFY-driven invalidation pulls the IXFR deltas
    into the reader's cache long before TTL expiry would."""
    update = UpdatePolicy(invalidation="notify")
    testbed = build_testbed(seed=seed, update_policy=update)
    env = testbed.env
    env.trace.enabled = True
    writer = testbed.make_metastore(
        testbed.agent_host,
        policies=PolicySet(resolution=DEFAULT_RESOLUTION_POLICY, update=update),
    )
    reader = testbed.make_metastore(testbed.client)
    admin = HnsAdministrator(writer)
    rebinding = ("HRPCBinding", "HostAddress", "MailboxLocation", "FileService")

    def rebind_one(query_class: str, offset: int):
        nsm_name = f"{query_class}-{BIND_NS}"
        yield from admin.register_nsm(
            nsm_name=nsm_name,
            query_class=query_class,
            name_service=BIND_NS,
            host_name="june.cs.washington.edu",
            host_context=SRV_CONTEXT,
            program=f"nsm.{nsm_name}",
            suite="sunrpc",
            port=NSM_PORT + offset,
            host_address=str(testbed.june.address),
        )

    def drive():
        # Warm the reader, then subscribe its cache to NOTIFY pushes.
        for query_class in rebinding[:2]:
            yield from reader.nsm_record(f"{query_class}-{BIND_NS}")
        yield from reader.subscribe_invalidation()
        wave = [
            env.process(rebind_one(query_class, offset))
            for offset, query_class in enumerate(rebinding)
        ]
        yield env.all_of(wave)
        yield env.timeout(200.0)
        record = yield from reader.nsm_record(f"HRPCBinding-{BIND_NS}")
        assert record.host_name == "june.cs.washington.edu", record

    env.run(until=env.process(drive()))
    return env


@scenario("mass_renumbering")
def _mass_renumbering_scenario(seed: int) -> Environment:
    """Mass host renumbering under leases: the registrar rewrites every
    NSM-host address, keeps the leases alive a while, then dies — and
    the primary retracts the whole batch when the leases lapse."""
    update = UpdatePolicy(invalidation="lease", lease_ms=2_000.0)
    testbed = build_testbed(seed=seed, update_policy=update)
    env = testbed.env
    env.trace.enabled = True
    store = testbed.make_metastore(
        testbed.agent_host,
        policies=PolicySet(resolution=DEFAULT_RESOLUTION_POLICY, update=update),
    )
    movers = (testbed.fiji, testbed.june, testbed.nsm_host, testbed.hns_host)

    def drive():
        wave = [
            env.process(
                store.register_nsm_host_address(
                    f"{host.name}.cs.washington.edu", f"10.9.0.{10 + index}"
                )
            )
            for index, host in enumerate(movers)
        ]
        yield env.all_of(wave)
        # The renewal loop keeps the new addresses alive...
        yield env.timeout(5_000.0)
        store.stop_lease_renewal()
        # ...until the registrar goes away and the leases lapse.
        yield env.timeout(4_000.0)

    env.run(until=env.process(drive()))
    assert env.stats.counters().get("bind.update.lease_expirations", 0) >= 1
    return env


def build_million_client_zipf(
    seed: int = 0,
    clients: int = 1_000_000,
    contexts: int = 10_000,
    mean_interarrival_ms: float = 0.05,
    lookup_min_ms: float = 5.0,
    lookup_max_ms: float = 40.0,
    ttl_ms: float = 30_000.0,
    sweep_interval_ms: float = 60_000.0,
    zipf_s: float = 1.1,
) -> Environment:
    """The million-client regime: Zipf-distributed context lookups.

    A closed-form model of the load the ROADMAP's north star implies —
    a very large client population resolving names Zipf-distributed
    over contexts, against a shared TTL cache.  It deliberately skips
    the full testbed (no sockets, no servers): the point is the
    *kernel*, and the event mix spans the queue's whole range —
    ``delay == 0`` cache hits, millisecond-scale lookups, and
    minute-scale TTL sweeps.  The registered scenario below runs a
    sampled size so the scenario pass's six runs stay fast; the
    perf ledger's ``mclient_zipf`` workload (``benchmarks/e2e``) times
    the kernel under this kind of load at depth.

    Clients arrive at exponential interarrivals and live only as long
    as their one request, so the live-process count stays bounded by
    (arrival rate x lookup time) — a million clients never means a
    million suspended generators.
    """
    from bisect import bisect_left as _bisect_left

    env = Environment(seed=seed)
    stats = env.stats
    requests = stats.counter("sim.mclient.requests")
    hits = stats.counter("sim.mclient.cache_hits")
    misses = stats.counter("sim.mclient.cache_misses")
    evictions = stats.counter("sim.mclient.ttl_evictions")
    arrivals = env.rng.stream("mclient.arrivals")
    picks = env.rng.stream("mclient.zipf")
    lookups = env.rng.stream("mclient.lookup")

    # Zipf over context ranks: cumulative weights + bisect per draw.
    cums: typing.List[float] = []
    total = 0.0
    for rank in range(1, contexts + 1):
        total += rank ** -zipf_s
        cums.append(total)

    cache: typing.Dict[int, float] = {}
    state = {"completed": 0}
    done = env.event()

    def client(context_id: int):
        requests.increment()
        expiry = cache.get(context_id)
        if expiry is not None and expiry > env.now:
            hits.increment()
            # Cache hit: zero-delay turnaround.
            yield env.timeout(0.0)
        else:
            misses.increment()
            yield env.timeout(lookups.uniform(lookup_min_ms, lookup_max_ms))
            cache[context_id] = env.now + ttl_ms
        state["completed"] += 1
        if state["completed"] == clients:
            done.succeed(None)

    def sweeper():
        # Periodic TTL sweep: the far-future end of the event mix.
        try:
            while True:
                yield env.timeout(sweep_interval_ms)
                now = env.now
                expired = [ctx for ctx, exp in cache.items() if exp <= now]
                for ctx in expired:
                    del cache[ctx]
                evictions.increment(len(expired))
        except Interrupt:
            pass

    def drive():
        sweep_proc = env.process(sweeper(), name="ttl-sweeper")
        expo = arrivals.expovariate
        rate = 1.0 / mean_interarrival_ms
        draw = picks.random
        for _ in range(clients):
            yield env.timeout(expo(rate))
            env.process(client(_bisect_left(cums, draw() * total)))
        yield done
        sweep_proc.interrupt()

    env.run(until=env.process(drive(), name="mclient-driver"))
    return env


@scenario("million_client_zipf")
def _million_client_scenario(seed: int) -> Environment:
    """Sampled million-client run for the determinism gate.

    Same builder, scaled down (~2k clients over 256 contexts) so the
    checker's repeated runs stay fast.  The summary trace record folds
    the hit/miss split into the digest alongside the counters.
    """
    env = build_million_client_zipf(
        seed=seed,
        clients=2_000,
        contexts=256,
        mean_interarrival_ms=0.5,
        ttl_ms=300.0,
        sweep_interval_ms=400.0,
    )
    env.trace.enabled = True
    env.trace.emit(
        "mclient",
        "run complete",
        requests=env.stats.counters()["sim.mclient.requests"],
        hits=env.stats.counters()["sim.mclient.cache_hits"],
        misses=env.stats.counters()["sim.mclient.cache_misses"],
    )
    return env


def iter_scenarios() -> typing.Iterator[typing.Tuple[str, typing.Callable]]:
    """Registered scenarios in a stable order."""
    for name in sorted(SCENARIOS):
        yield name, SCENARIOS[name]


# Ad-hoc discovery scenarios live in their own module; importing it
# registers them.  Bottom import: adhoc.py needs @scenario from here.
from repro.workloads import adhoc as _adhoc  # noqa: E402,F401

