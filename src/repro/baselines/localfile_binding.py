"""The interim binding mechanism: replicated local files.

Per-binding cost: the HRPC import machinery, a local disk read of the
whole flat file, and a parse/validate pass — about 200 ms.  The real
price is operational: every service registration must be pushed to
every replica, and any host that misses an update serves stale
bindings (both failure modes are modelled and tested).
"""

from __future__ import annotations

import typing

from repro.harness.calibration import Calibration, DEFAULT_CALIBRATION
from repro.hrpc.binding import HRPCBinding
from repro.localfiles.registry import BindingFileEntry, LocalBindingFile, Replicator
from repro.net.addresses import Endpoint, NetworkAddress
from repro.net.host import Host


class LocalFileBinder:
    """Client-side binding against this host's replica of the file."""

    def __init__(
        self,
        host: Host,
        binding_file: LocalBindingFile,
        calibration: Calibration = DEFAULT_CALIBRATION,
    ):
        if binding_file.host is not host:
            raise ValueError("binding file replica must live on the client host")
        self.host = host
        self.env = host.env
        self.file = binding_file
        self.calibration = calibration

    def import_binding(
        self, service_name: str, host_name: str
    ) -> typing.Generator:
        """Interim Import: returns an :class:`HRPCBinding` or KeyError."""
        cal = self.calibration
        self.env.stats.counter("baseline.localfile.imports").increment()
        # Same HRPC import machinery as the HNS path...
        yield self.host.cpu.compute(cal.import_fixed_ms)
        # ...but the data comes from the local replica.
        entry = yield from self.file.lookup(service_name, host_name)
        yield self.host.cpu.compute(cal.rereg_glue_ms)
        return HRPCBinding(
            endpoint=Endpoint(NetworkAddress(entry.address), entry.port),
            program=entry.service,
            suite=entry.suite,
        )


__all__ = ["BindingFileEntry", "LocalBindingFile", "LocalFileBinder", "Replicator"]
