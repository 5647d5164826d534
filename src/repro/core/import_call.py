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
consults a :class:`~repro.resolution.ResolutionPolicy`: transient
transport failures are retried with jittered backoff, and a per-NSM
circuit breaker fails fast once an NSM is known dead.
"""

from __future__ import annotations

import typing

from repro.core.errors import HnsError, NsmUnavailable
from repro.core.hns import HNS, FindNsmCall
from repro.core.names import HNSName
from repro.core.nsm import LocalNsmBinding, NsmResult, NsmStub
from repro.harness.calibration import Calibration, DEFAULT_CALIBRATION
from repro.hrpc.binding import HRPCBinding
from repro.hrpc.runtime import HrpcRuntime
from repro.net.errors import NetworkError
from repro.net.host import Host
from repro.obs.span import NULL_SPAN
from repro.resolution import (
    DEFAULT_RESOLUTION_POLICY,
    CircuitBreakerRegistry,
    ResolutionPolicy,
    retrying,
)
from repro.sim.events import Event

BINDING_QC = "HRPCBinding"

#: An ``Import`` in flight: a simulation process generator returning
#: the ready-to-use binding for the requested service.
ImportCall = typing.Generator[Event, typing.Any, HRPCBinding]


class LocalFinder:
    """FindNSM through an HNS library linked into this process."""

    def __init__(self, hns: HNS):
        self.hns = hns

    def find(self, hns_name: HNSName, query_class: str) -> FindNsmCall:
        """Run ``FindNSM`` in-process; returns the NSM binding."""
        return self.hns.find_nsm(hns_name, query_class)


class RemoteFinder:
    """FindNSM via an HRPC call to a remote HNS service."""

    def __init__(
        self,
        runtime: HrpcRuntime,
        hns_binding: HRPCBinding,
        policy: ResolutionPolicy = DEFAULT_RESOLUTION_POLICY,
    ):
        self.runtime = runtime
        self.hns_binding = hns_binding
        self.policy = policy

    def find(self, hns_name: HNSName, query_class: str) -> FindNsmCall:
        """Call the remote HNS service's ``FindNSM`` procedure."""
        return self.runtime.call(
            self.hns_binding,
            "FindNSM",
            str(hns_name),
            query_class,
            arg_size_bytes=hns_name.wire_size() + 32,
            policy=self.policy,
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
        self.breakers = CircuitBreakerRegistry(self.env, policy)

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
        """An importer running the two-step protocol from this process.

        With a :class:`LocalFinder`, the importer shares the HNS's
        per-NSM circuit breakers, so NSM call failures observed here
        make the linked-in ``FindNSM`` route around the dead NSM.
        """
        importer = cls(client_host, calibration=calibration, policy=policy)
        importer.finder = finder
        importer.nsm_stub = nsm_stub
        if isinstance(finder, LocalFinder):
            importer.breakers = finder.hns.nsm_breakers
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
        agent" — the client pays one HRPC call; the agent's own HNS and
        NSM stacks handle (and fault-tolerate) the rest.
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
            if self.agent_binding is not None:
                binding = yield from self._import_via_agent(
                    service_name, hns_name
                )
            else:
                binding = yield from self._import_direct(
                    service_name, hns_name
                )
            if not isinstance(binding, HRPCBinding):
                raise HnsError(f"Import produced a non-binding {binding!r}")
            if env.trace.enabled:
                env.trace.emit(
                    "import",
                    f"Import({service_name}, {hns_name}) -> {binding.describe()}",
                )
            return binding

    # ------------------------------------------------------------------
    def _import_via_agent(
        self, service_name: str, hns_name: HNSName
    ) -> ImportCall:
        """One HRPC call to the agent, breaker-guarded and retried."""
        assert self.agent_binding is not None and self.runtime is not None
        breaker = None
        if self.policy.breaker_threshold:
            breaker = self.breakers.breaker(
                f"agent:{self.agent_binding.program}"
            )
            if not breaker.allow():
                self.env.stats.counter("hrpc.import_fast_fails").increment()
                raise NsmUnavailable(
                    f"agent {self.agent_binding.program} is circuit-broken"
                )
        try:
            binding = yield from self.runtime.call(
                self.agent_binding,
                "Import",
                service_name,
                str(hns_name),
                arg_size_bytes=hns_name.wire_size() + len(service_name) + 32,
                policy=self.policy,
            )
        except NetworkError:
            if breaker is not None:
                breaker.record_failure()
            raise
        except Exception:
            # The agent answered, with an error: it is alive.
            if breaker is not None:
                breaker.record_success()
            raise
        if breaker is not None:
            breaker.record_success()
        return binding

    def _import_direct(
        self, service_name: str, hns_name: HNSName
    ) -> ImportCall:
        """FindNSM + NSM call, retried as a unit.

        Re-running the *pair* matters: after the NSM's breaker trips, the
        next FindNSM can route around the dead NSM (to a linked-in copy)
        instead of repeating the doomed remote call.
        """
        return retrying(
            self.env,
            self.policy,
            lambda _attempt: self._direct_once(service_name, hns_name),
            rng_stream="hrpc.import.backoff",
            stat="hrpc.import_retries",
        )

    def _direct_once(self, service_name: str, hns_name: HNSName) -> ImportCall:
        assert self.finder is not None and self.nsm_stub is not None
        nsm_binding = yield from self.finder.find(hns_name, BINDING_QC)
        # The stub prefers a linked-in copy of the designated NSM; such
        # calls never cross the wire, so the breaker stays out of them.
        goes_local = isinstance(nsm_binding, LocalNsmBinding) or (
            nsm_binding.metadata.get("nsm", "") in self.nsm_stub.local_nsms
        )
        breaker = None
        if not goes_local and self.policy.breaker_threshold:
            breaker = self.breakers.breaker(self._nsm_key(nsm_binding))
            if not breaker.allow():
                self.env.stats.counter("hrpc.import_fast_fails").increment()
                raise NsmUnavailable(
                    f"NSM {self._nsm_key(nsm_binding)} is circuit-broken"
                )
        try:
            result = yield from self.nsm_stub.call(
                nsm_binding, hns_name, service=service_name
            )
        except NetworkError:
            if breaker is not None:
                breaker.record_failure()
            raise
        except Exception:
            # The NSM answered, with an error: it is alive.
            if breaker is not None:
                breaker.record_success()
            raise
        if breaker is not None:
            breaker.record_success()
        return result_to_binding(result)

    @staticmethod
    def _nsm_key(binding: HRPCBinding) -> str:
        """Breaker key for a remote NSM binding (its registered name)."""
        nsm = binding.metadata.get("nsm", "")
        if nsm:
            return typing.cast(str, nsm)
        program = binding.program
        return program[4:] if program.startswith("nsm.") else program


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
