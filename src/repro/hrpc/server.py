"""Server-side HRPC: program and procedure dispatch.

An :class:`HrpcServer` is bound to one host port and hosts one or more
*programs*; each program maps procedure names to handler generators.
Handlers receive the call arguments and a context object, may yield
simulation events (CPU, nested calls), and return their result.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.hrpc.errors import NoSuchProcedure, NoSuchProgram
from repro.hrpc.suites import suite_named
from repro.net.addresses import Endpoint
from repro.net.host import Host, Service

Handler = typing.Callable[..., typing.Generator]


@dataclasses.dataclass
class RpcRequest:
    """Wire payload of one HRPC call."""

    program: str
    procedure: str
    args: typing.Tuple[object, ...]
    suite: str
    arg_size_bytes: int = 128


@dataclasses.dataclass
class RpcReply:
    """Wire payload of one HRPC reply."""

    result: object
    result_size_bytes: int = 128


@dataclasses.dataclass
class CallContext:
    """Handed to every handler: who is serving this call, and the suite."""

    server: "HrpcServer"
    host: Host
    suite: str


class RpcProgram:
    """One named program: a set of procedures."""

    def __init__(self, name: str):
        if not name:
            raise ValueError("program needs a name")
        self.name = name
        self._procedures: typing.Dict[str, Handler] = {}

    def procedure(self, name: str, handler: Handler) -> None:
        if name in self._procedures:
            raise ValueError(f"procedure {name!r} already registered on {self.name}")
        self._procedures[name] = handler

    def handler_for(self, name: str) -> Handler:
        handler = self._procedures.get(name)
        if handler is None:
            raise NoSuchProcedure(f"{self.name}.{name}")
        return handler


class HrpcServer(Service):
    """Dispatches :class:`RpcRequest` messages to registered programs."""

    def __init__(self, host: Host, name: str = ""):
        self.host = host
        self.env = host.env
        self.name = name or f"hrpc@{host.name}"
        self._programs: typing.Dict[str, RpcProgram] = {}
        self.endpoint: typing.Optional[Endpoint] = None

    def listen(self, port: int) -> Endpoint:
        self.endpoint = self.host.bind(port, self)
        return self.endpoint

    def program(self, name: str) -> RpcProgram:
        """Get-or-create a program (convenient for incremental setup)."""
        if name not in self._programs:
            self._programs[name] = RpcProgram(name)
        return self._programs[name]

    # ------------------------------------------------------------------
    def handle(self, datagram, responder):
        request = datagram.payload
        if not isinstance(request, RpcRequest):
            raise NoSuchProgram(f"{self.name}: non-RPC payload {request!r}")
        suite = suite_named(request.suite)
        # Server-side control protocol + demarshalling of the arguments.
        yield self.host.cpu.compute(suite.server_control_ms)
        program = self._programs.get(request.program)
        if program is None:
            raise NoSuchProgram(f"{request.program} on {self.name}")
        handler = program.handler_for(request.procedure)
        context = CallContext(server=self, host=self.host, suite=request.suite)
        self.env.stats.counter(
            f"hrpc.{self.name}.{request.program}.{request.procedure}"
        ).increment()
        if self.env.trace.enabled:
            self.env.trace.emit(
                "hrpc",
                f"{self.name}: {request.program}.{request.procedure}"
                f" via {request.suite}",
            )
        result = yield from handler(context, *request.args)
        if isinstance(result, RpcReply):
            reply = result
        else:
            reply = RpcReply(result)
        responder(reply, reply.result_size_bytes)
