"""Remote-computation workers."""

from __future__ import annotations

import hashlib
import typing

from repro.hrpc.server import HrpcServer, RpcReply
from repro.net.host import Host

REXEC_PROGRAM = "hcsrexec"
REXEC_PORT = 9650


class RexecError(Exception):
    """Unknown job or malformed payload."""


def _wordcount(payload: bytes) -> object:
    return {"words": len(payload.split()), "bytes": len(payload)}


def _checksum(payload: bytes) -> object:
    return {"sha256": hashlib.sha256(payload).hexdigest()}


#: job name -> (function, CPU ms per KB of input)
JOB_CATALOGUE: typing.Dict[
    str, typing.Tuple[typing.Callable[[bytes], object], float]
] = {
    "wordcount": (_wordcount, 2.0),
    "checksum": (_checksum, 5.0),
}


class RexecServer:
    """One compute host's job service (the ``hcsrexec`` HRPC program)."""

    def __init__(
        self,
        host: Host,
        port: int = REXEC_PORT,
        jobs: typing.Optional[typing.Mapping[str, typing.Tuple]] = None,
    ):
        self.host = host
        self.env = host.env
        self.jobs = dict(jobs if jobs is not None else JOB_CATALOGUE)
        self.completed = 0
        self.server = HrpcServer(host, name=f"rexec@{host.name}")
        program = self.server.program(REXEC_PROGRAM)
        program.procedure("submit", self._submit)
        self.endpoint = self.server.listen(port)

    def _submit(self, ctx, job_name: str, payload: bytes):
        job = self.jobs.get(job_name)
        if job is None:
            raise RexecError(f"no job {job_name!r} on {self.host.name}")
        if not isinstance(payload, (bytes, bytearray)):
            raise RexecError("payload must be bytes")
        function, cost_per_kb = job
        # The computation itself, charged to this host's CPU (scaled by
        # its speed factor: heterogeneous hardware runs at its own pace).
        yield self.host.cpu.compute(
            cost_per_kb * max(1.0, len(payload) / 1024.0)
        )
        result = function(bytes(payload))
        self.completed += 1
        self.env.stats.counter(f"rexec.{self.host.name}.jobs").increment()
        return RpcReply(
            {"host": self.host.name, "result": result},
            result_size_bytes=128,
        )

