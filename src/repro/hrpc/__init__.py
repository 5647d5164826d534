"""Heterogeneous RPC (HRPC).

The HRPC facility [Bershad et al. 1987] separates an RPC system into
five components — stubs, binding protocol, data representation,
transport protocol, and control protocol — each a "black box" that can
be mixed and matched *at bind time* to emulate a foreign RPC system.

This package models:

- :class:`~repro.hrpc.binding.HRPCBinding` — the system-independent
  handle a client receives, naming the component set plus the server
  endpoint;
- :mod:`~repro.hrpc.suites` — the component sets (Sun RPC = UDP + XDR +
  portmapper binding; Courier = stream + Courier representation +
  Courier binder; Raw = the request/response protocol the HNS uses to
  talk to BIND) with their calibrated per-call control costs;
- :class:`~repro.hrpc.server.HrpcServer` — server-side program/procedure
  dispatch;
- :class:`~repro.hrpc.runtime.HrpcRuntime` — client-side call execution
  that selects components from the binding dynamically;
- :class:`~repro.hrpc.portmapper.Portmapper` and
  :class:`~repro.hrpc.courier_binder.CourierBinder` — the native
  binding protocols the binding NSMs must emulate.
"""

from repro.lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "binding": ("HRPCBinding",),
    "errors": ("BindingProtocolError", "HrpcError", "NoSuchProcedure", "NoSuchProgram"),
    "suites": ("PROTOCOL_SUITES", "ProtocolSuite", "suite_named"),
    "server": ("HrpcServer", "RpcRequest", "RpcReply"),
    "runtime": ("HrpcRuntime",),
    "portmapper": ("Portmapper", "PortmapperClient"),
    "courier_binder": ("CourierBinder", "CourierBinderClient"),
})
