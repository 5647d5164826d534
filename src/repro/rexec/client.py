"""Remote-execution client: locate compute hosts through the HNS."""

from __future__ import annotations

import typing

from repro.core.import_call import HrpcImporter
from repro.core.names import HNSName
from repro.hrpc.binding import HRPCBinding
from repro.hrpc.runtime import HrpcRuntime
from repro.net.errors import NetworkError
from repro.net.host import Host
from repro.rexec.worker import REXEC_PROGRAM


class RemoteExecutor:
    """Runs jobs on globally named compute hosts.

    Bindings come from the HNS (via Import), so a compute host may be
    named in any federated name service; the binding cache means the
    location work is paid once per host.
    """

    def __init__(self, host: Host, importer: HrpcImporter, runtime: HrpcRuntime):
        self.host = host
        self.env = host.env
        self.importer = importer
        self.runtime = runtime
        self._bindings: typing.Dict[str, HRPCBinding] = {}

    def _binding_for(self, compute_host: HNSName) -> typing.Generator:
        key = str(compute_host)
        binding = self._bindings.get(key)
        if binding is None:
            binding = yield from self.importer.import_binding(
                REXEC_PROGRAM, compute_host
            )
            self._bindings[key] = binding
        return binding

    def run_on(
        self, compute_host: HNSName, job_name: str, payload: bytes
    ) -> typing.Generator:
        """Run one job on one host; returns {'host', 'result'}."""
        binding = yield from self._binding_for(compute_host)
        self.env.stats.counter("rexec.client.submissions").increment()
        reply = yield from self.runtime.call(
            binding,
            "submit",
            job_name,
            payload,
            arg_size_bytes=64 + len(payload),
            timeout_ms=60_000,
        )
        return typing.cast(dict, reply)

    def run_anywhere(
        self,
        candidates: typing.Sequence[HNSName],
        job_name: str,
        payload: bytes,
    ) -> typing.Generator:
        """Try candidate hosts in order until one accepts the job."""
        if not candidates:
            raise ValueError("need at least one candidate host")
        last_error: typing.Optional[Exception] = None
        for compute_host in candidates:
            try:
                result = yield from self.run_on(compute_host, job_name, payload)
            except NetworkError as err:
                # Dead host: drop the stale binding and move on.
                self._bindings.pop(str(compute_host), None)
                self.env.stats.counter("rexec.client.failovers").increment()
                last_error = err
                continue
            return result
        assert last_error is not None
        raise last_error

