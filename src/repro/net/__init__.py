"""Simulated internetwork: hosts, Ethernet segments, transports.

The HCS testbed in the paper is a set of heterogeneous machines
(MicroVAX-IIs, Suns, Xerox D-machines, IBM RTs, Tektronix workstations)
joined by an Ethernet, speaking Sun RPC, Courier RPC, and TCP/UDP
message passing.  This package provides the equivalent simulated
fabric:

- :class:`~repro.net.host.Host` — a machine with a CPU, a disk, a
  system type, bound services, and an up/down state for failure
  injection.
- :class:`~repro.net.ethernet.Ethernet` — a shared segment with a
  calibrated latency model and optional message loss.
- :class:`~repro.net.transport.DatagramTransport` /
  :class:`~repro.net.transport.StreamTransport` — UDP-like and
  TCP-like delivery built on a segment.
- :class:`~repro.net.internet.Internetwork` — the topology: hosts,
  segments, and name/address registries.
"""

from repro.lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "addresses": ("Endpoint", "NetworkAddress"),
    "errors": (
        "TRANSIENT_ERRORS", "ConnectionRefused", "HostDown", "NetworkError", "NoRouteToHost",
        "PortInUse", "TransportTimeout", "is_transient",
    ),
    "messages": ("Datagram",),
    "ethernet": ("Ethernet",),
    "host": ("Host", "Service"),
    "transport": ("DatagramTransport", "StreamTransport", "Transport"),
    "internet": ("Internetwork",),
})
