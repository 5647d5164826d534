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
from repro.net.errors import is_transient
from repro.net.host import Host
from repro.net.internet import Internetwork
from repro.net.transport import (
    DatagramTransport,
    RemoteCallError,
    StreamTransport,
    Transport,
)
from repro.obs.span import NULL_SPAN
from repro.resolution import ResolutionPolicy, backoff_ms


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
        policy: ResolutionPolicy = ResolutionPolicy.disabled(),
    ) -> typing.Generator:
        """Invoke ``procedure`` on the program the binding points at.

        Component selection happens here, at call time, from the
        binding: transport, data representation (reflected in the
        control cost), and control protocol all come from the suite.
        Remote exceptions re-raise in the caller.

        With a :class:`ResolutionPolicy`, transport-level failures that
        :func:`~repro.net.errors.is_transient` accepts (timeout, crashed
        host, refused connection) are retried with jittered exponential
        backoff.  A :class:`RemoteCallError` — the remote service itself
        raising — means the call was delivered and answered, so it is
        re-raised as the remote exception and never retried.
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
            if timeout_ms is None:
                timeout_ms = policy.call_timeout_ms
            attempts = policy.attempts
            self.env.stats.counter(f"hrpc.calls.{binding.suite}").increment()
            for attempt in range(attempts):
                if attempt:
                    self.env.stats.counter("hrpc.retries").increment()
                    yield self.env.timeout(
                        backoff_ms(attempt - 1, self.env.rng.stream("hrpc.backoff"))
                    )
                with (
                    obs.span("hrpc.attempt", attempt=attempt) if obs.enabled else NULL_SPAN
                ) as aspan:
                    try:
                        reply = yield transport.request(
                            self.host,
                            binding.endpoint,
                            request,
                            arg_size_bytes,
                            timeout_ms=timeout_ms,
                        )
                    except RemoteCallError as err:
                        # Surface the remote exception as if raised
                        # locally, which is what an RPC control protocol's
                        # error path does.  Never retried: the call
                        # reached the service.
                        raise err.remote_exception from err
                    except Exception as err:  # noqa: BLE001 - classified below
                        if attempt == attempts - 1 or not is_transient(err):
                            raise
                        aspan.set(
                            outcome="retried",
                            error_type=type(err).__name__,
                        )
                        continue
                if not isinstance(reply, RpcReply):
                    raise HrpcError(f"malformed reply {reply!r}")
                return reply.result
            raise AssertionError("unreachable")  # pragma: no cover
