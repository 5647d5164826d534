"""The HRPC ``Import`` call: the first HNS application.

"In its simplest form, a client calls the HNS using heterogeneous RPC,
passing the HNS name and query class.  ... The client then calls the
NSM using the query specific interface, which includes the original HNS
name."  Import wraps that two-step dance (plus the fixed HRPC machinery
of component selection, stub setup, and result marshalling) behind one
call that returns a ready-to-use :class:`HRPCBinding`.

Importers are built with :meth:`HrpcImporter.direct` (the two-step
protocol runs in this process) or :meth:`HrpcImporter.via_agent` (both
steps delegated to a remote agent — Table 3.1 row 2).  Either mode
tries the whole Import up to ``ResolutionPolicy.attempts`` times, with
jittered backoff after a transient failure.  No layer under it retries:
an HRPC call is one transport exchange and a meta read is one exchange
with the replica set, each transport absorbing datagram loss with its
own tries.
"""

from __future__ import annotations

import typing

from repro.core.errors import HnsError
from repro.core.hns import HNS, FindNsmCall
from repro.core.names import HNSName
from repro.core.nsm import NsmResult, NsmStub
from repro.harness.calibration import Calibration, DEFAULT_CALIBRATION
from repro.hrpc.binding import HRPCBinding
from repro.hrpc.runtime import HrpcRuntime
from repro.net.errors import is_transient
from repro.net.host import Host
from repro.obs.span import NULL_SPAN
from repro.resolution import DEFAULT_RESOLUTION_POLICY, ResolutionPolicy, backoff_ms
from repro.sim.events import Event

BINDING_QC = "HRPCBinding"

#: An ``Import`` in flight: a simulation process generator returning
#: the ready-to-use binding for the requested service.
ImportCall = typing.Generator[Event, typing.Any, HRPCBinding]

#: the named RNG stream an Import's backoff delays are drawn from
BACKOFF_STREAM = "hrpc.import.backoff"


class LocalFinder:
    """FindNSM through an HNS library linked into this process."""

    def __init__(self, hns: HNS):
        self.hns = hns

    def find(self, hns_name: HNSName, query_class: str) -> FindNsmCall:
        """Run ``FindNSM`` in-process; returns the NSM binding."""
        return self.hns.find_nsm(hns_name, query_class)


class RemoteFinder:
    """FindNSM via an HRPC call to a remote HNS service."""

    def __init__(self, runtime: HrpcRuntime, hns_binding: HRPCBinding):
        self.runtime = runtime
        self.hns_binding = hns_binding

    def find(self, hns_name: HNSName, query_class: str) -> FindNsmCall:
        """Call the remote HNS service's ``FindNSM`` procedure."""
        return self.runtime.call(
            self.hns_binding,
            "FindNSM",
            str(hns_name),
            query_class,
            arg_size_bytes=hns_name.wire_size() + 32,
        )


def result_to_binding(result: NsmResult) -> HRPCBinding:
    """Build the client's Binding from a standardized NSM result."""
    value = result.value
    return HRPCBinding(
        endpoint=value["endpoint"],  # type: ignore[arg-type]
        program=typing.cast(str, value["program"]),
        suite=typing.cast(str, value["suite"]),
        system_type=typing.cast(str, value.get("system_type", "unix")),
    )


class HrpcImporter:
    """Client-side Import.

    Construct with :meth:`direct` — the importer runs FindNSM and the
    NSM call from this process — or :meth:`via_agent` — both steps are
    delegated to a remote agent (Table 3.1 row 2).  The bare
    constructor only carries the common state; an unwired importer
    raises on use.
    """

    def __init__(
        self,
        client_host: Host,
        *,
        calibration: Calibration = DEFAULT_CALIBRATION,
        policy: ResolutionPolicy = DEFAULT_RESOLUTION_POLICY,
    ):
        self.client_host = client_host
        self.env = client_host.env
        self.calibration = calibration
        self.policy = policy
        self.finder: typing.Optional[
            typing.Union[LocalFinder, RemoteFinder]
        ] = None
        self.nsm_stub: typing.Optional[NsmStub] = None
        self.agent_binding: typing.Optional[HRPCBinding] = None
        self.runtime: typing.Optional[HrpcRuntime] = None

    # ------------------------------------------------------------------
    # Construction (the public API)
    # ------------------------------------------------------------------
    @classmethod
    def direct(
        cls,
        client_host: Host,
        finder: typing.Union[LocalFinder, RemoteFinder],
        nsm_stub: NsmStub,
        calibration: Calibration = DEFAULT_CALIBRATION,
        policy: ResolutionPolicy = DEFAULT_RESOLUTION_POLICY,
    ) -> "HrpcImporter":
        """An importer running the two-step protocol from this process."""
        importer = cls(client_host, calibration=calibration, policy=policy)
        importer.finder = finder
        importer.nsm_stub = nsm_stub
        return importer

    @classmethod
    def via_agent(
        cls,
        client_host: Host,
        agent_binding: HRPCBinding,
        runtime: HrpcRuntime,
        calibration: Calibration = DEFAULT_CALIBRATION,
        policy: ResolutionPolicy = DEFAULT_RESOLUTION_POLICY,
    ) -> "HrpcImporter":
        """An importer delegating both steps to a remote agent.

        "a single process remote from the client acted as the client's
        agent" — the client pays one HRPC call per try; the agent's own
        HNS and NSM stacks run the rest, and a transient failure there
        comes back to be tried again here.
        """
        importer = cls(client_host, calibration=calibration, policy=policy)
        importer.agent_binding = agent_binding
        importer.runtime = runtime
        return importer

    # ------------------------------------------------------------------
    def import_binding(
        self, service_name: str, hns_name: HNSName
    ) -> ImportCall:
        """``Import(ServiceName, HostName) -> ResultBinding``."""
        if not service_name:
            raise ValueError("Import requires a service name")
        if self.finder is None and self.agent_binding is None:
            raise HnsError(
                "importer is not wired: build it with HrpcImporter.direct()"
                " or HrpcImporter.via_agent()"
            )
        env = self.env
        obs = env.obs
        with (
            obs.span(
                "hrpc.import",
                service=service_name,
                name=str(hns_name),
                mode="agent" if self.agent_binding is not None else "direct",
            )
            if obs.enabled
            else NULL_SPAN
        ):
            env.stats.counter("hrpc.imports").increment()
            # The fixed HRPC import machinery: component selection, stub
            # instantiation, final marshalling of the Binding to the
            # caller.
            yield self.client_host.cpu.compute(
                self.calibration.import_fixed_ms
            )
            # One try: FindNSM + the NSM call, or the one call to the agent.
            once = self._direct_once if self.agent_binding is None else self._agent_once
            binding = yield from self._tried(lambda: once(service_name, hns_name))
            if not isinstance(binding, HRPCBinding):
                raise HnsError(f"Import produced a non-binding {binding!r}")
            if env.trace.enabled:
                env.trace.emit(
                    "import",
                    f"Import({service_name}, {hns_name}) -> {binding.describe()}",
                )
            return binding

    def _tried(self, attempt: typing.Callable[[], ImportCall]) -> ImportCall:
        """Drive ``attempt()`` up to ``policy.attempts`` times.

        The resolution path's one retry loop.  ``attempt`` must return a
        fresh generator per call (generators are single-use).  Only
        failures :func:`~repro.net.errors.is_transient` accepts are tried
        again, :func:`~repro.resolution.backoff_ms` later; anything else
        — and the last try's failure — raises to the caller.
        """
        env = self.env
        obs = env.obs
        attempts = self.policy.attempts
        for i in range(attempts):
            try:
                with (
                    obs.span("resolution.attempt", attempt=i)
                    if obs.enabled
                    else NULL_SPAN
                ):
                    result = yield from attempt()
                return result
            except Exception as err:  # noqa: BLE001 - classified below
                if i == attempts - 1 or not is_transient(err):
                    raise
                env.stats.counter("hrpc.import_retries").increment()
                yield env.timeout(backoff_ms(i, env.rng.stream(BACKOFF_STREAM)))
        raise AssertionError("unreachable")  # pragma: no cover

    def _direct_once(self, service_name: str, hns_name: HNSName) -> ImportCall:
        assert self.finder is not None and self.nsm_stub is not None
        nsm_binding = yield from self.finder.find(hns_name, BINDING_QC)
        result = yield from self.nsm_stub.call(
            nsm_binding, hns_name, service=service_name
        )
        return result_to_binding(result)

    def _agent_once(self, service_name: str, hns_name: HNSName) -> ImportCall:
        assert self.runtime is not None and self.agent_binding is not None
        return self.runtime.call(
            self.agent_binding,
            "Import",
            service_name,
            str(hns_name),
            arg_size_bytes=hns_name.wire_size() + len(service_name) + 32,
        )


def serve_agent(
    hns: HNS,
    server,
    nsm_stub: NsmStub,
    program_name: str = "hnsagent",
) -> str:
    """Expose an Import-performing agent (Table 3.1 row 2).

    "a single process remote from the client acted as the client's
    agent, making local calls to the HNS and then to the NSM.  This
    structure provides a mixture of colocation efficiency and ease of
    NSM update."
    """

    def import_proc(ctx, service_name: str, hns_name_text: str):
        hns_name = HNSName.parse(hns_name_text)
        # The agent-side root: the client's span context does not cross
        # the simulated wire, so the agent's work traces as its own
        # trace rooted here.
        obs = hns.env.obs
        with (
            obs.span("hns.agent_import", service=service_name, name=hns_name_text)
            if obs.enabled
            else NULL_SPAN
        ):
            nsm_binding = yield from hns.find_nsm(hns_name, BINDING_QC)
            result = yield from nsm_stub.call(
                nsm_binding, hns_name, service=service_name
            )
            return result_to_binding(result)

    server.program(program_name).procedure("Import", import_proc)
    return program_name
