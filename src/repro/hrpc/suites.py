"""Protocol suites: named component sets with calibrated call costs.

"These black boxes can be 'mixed and matched' to emulate different
communication protocols at call-time.  The set of protocols to be used
is determined dynamically at bind-time."

Each suite names its transport, data representation, and binding
protocol, plus the client/server control-protocol CPU cost per call.
Cost provenance:

- ``raw``: the Raw HRPC protocol suite, "which allows HRPC clients to
  make calls to any message passing program that conforms with the
  basic RPC paradigm".  Client+server control ≈ 30.6 ms; with ~2 ms of
  wire time this is the paper's C(remote call) ≈ 33 ms estimate, and it
  is what each HNS meta-mapping pays.
- ``sunrpc``: a full Sun RPC emulated call; fit to Table 3.1's
  colocation deltas (~43 ms per extra inter-process call).
- ``courier``: Courier over a stream transport; the slower end of the
  paper's 22-38 ms NSM-call range scaled consistently with the table.
"""

from __future__ import annotations

import dataclasses
import typing


@dataclasses.dataclass(frozen=True)
class ProtocolSuite:
    """One mix-and-match component set."""

    name: str
    transport: str          # "udp" or "tcp"
    data_representation: str  # "xdr" or "courier"
    binding_protocol: str   # "portmapper", "courier-binder", or "static"
    client_control_ms: float
    server_control_ms: float


PROTOCOL_SUITES: typing.Dict[str, ProtocolSuite] = {
    suite.name: suite
    for suite in (
        ProtocolSuite(
            name="sunrpc",
            transport="udp",
            data_representation="xdr",
            binding_protocol="portmapper",
            client_control_ms=20.5,
            server_control_ms=20.5,
        ),
        ProtocolSuite(
            name="courier",
            transport="tcp",
            data_representation="courier",
            binding_protocol="courier-binder",
            client_control_ms=26.0,
            server_control_ms=26.0,
        ),
        ProtocolSuite(
            name="raw",
            transport="udp",
            data_representation="xdr",
            binding_protocol="static",
            client_control_ms=16.08,
            server_control_ms=16.08,
        ),
        ProtocolSuite(
            name="raw-tcp",
            transport="tcp",
            data_representation="xdr",
            binding_protocol="static",
            client_control_ms=16.08,
            server_control_ms=16.08,
        ),
    )
}


def suite_named(name: str) -> ProtocolSuite:
    """Look up a protocol suite; raises KeyError for unknown names."""
    suite = PROTOCOL_SUITES.get(name)
    if suite is None:
        raise KeyError(
            f"unknown protocol suite {name!r}; known: {sorted(PROTOCOL_SUITES)}"
        )
    return suite
