"""Client-side HRPC: executing calls against a binding.

"In homogeneous systems, the choice of RPC components is fixed at
implementation time ... With HRPC, these components have been separated
from each other and made dynamically selectable."  The runtime looks at
the binding's suite name at call time and picks the matching transport,
data representation, and control costs.
"""

from __future__ import annotations

import typing

from repro.hrpc.binding import HRPCBinding
from repro.hrpc.errors import HrpcError
from repro.hrpc.server import RpcReply, RpcRequest
from repro.hrpc.suites import suite_named
from repro.net.host import Host
from repro.net.internet import Internetwork
from repro.net.transport import (
    DatagramTransport,
    RemoteCallError,
    StreamTransport,
    Transport,
)
from repro.obs.span import NULL_SPAN


class HrpcRuntime:
    """Per-host HRPC client machinery."""

    def __init__(self, host: Host, internet: Internetwork):
        self.host = host
        self.env = host.env
        self.internet = internet
        self._transports: typing.Dict[str, Transport] = {
            "udp": DatagramTransport(internet),
            "tcp": StreamTransport(internet),
        }

    def transport_named(self, name: str) -> Transport:
        transport = self._transports.get(name)
        if transport is None:
            raise HrpcError(f"unknown transport {name!r}")
        return transport

    def call(
        self,
        binding: HRPCBinding,
        procedure: str,
        *args: object,
        arg_size_bytes: int = 128,
        timeout_ms: typing.Optional[float] = None,
    ) -> typing.Generator:
        """Invoke ``procedure`` on the program the binding points at.

        Component selection happens here, at call time, from the
        binding: transport, data representation (reflected in the
        control cost), and control protocol all come from the suite.
        Remote exceptions re-raise in the caller.

        One call is one transport exchange; the transport's own tries
        absorb datagram loss, and a failure that outlasts them raises
        to the caller (the importer is the layer that tries again).  A
        :class:`RemoteCallError` — the remote service itself raising —
        re-raises as the remote exception.
        """
        suite = suite_named(binding.suite)
        transport = self.transport_named(suite.transport)
        obs = self.env.obs
        with (
            obs.span(
                "hrpc.call",
                program=binding.program,
                procedure=procedure,
                suite=binding.suite,
            )
            if obs.enabled
            else NULL_SPAN
        ):
            # Client-side control protocol + argument marshalling.
            yield self.host.cpu.compute(suite.client_control_ms)
            request = RpcRequest(
                program=binding.program,
                procedure=procedure,
                args=args,
                suite=binding.suite,
                arg_size_bytes=arg_size_bytes,
            )
            self.env.stats.counter(f"hrpc.calls.{binding.suite}").increment()
            try:
                reply = yield transport.request(
                    self.host,
                    binding.endpoint,
                    request,
                    arg_size_bytes,
                    timeout_ms=timeout_ms,
                )
            except RemoteCallError as err:
                # Surface the remote exception as if raised locally,
                # which is what an RPC control protocol's error path does.
                raise err.remote_exception from err
            if not isinstance(reply, RpcReply):
                raise HrpcError(f"malformed reply {reply!r}")
            return reply.result
