"""The heterogeneous file system client: Fetch/Store over global names."""

from __future__ import annotations

import typing

from repro.core.hns import HNS
from repro.core.import_call import result_to_binding
from repro.core.names import HNSName
from repro.core.nsm import NsmStub
from repro.hrpc.binding import HRPCBinding
from repro.hrpc.runtime import HrpcRuntime
from repro.net.host import Host


class HcsFileSystem:
    """Fetch/Store against globally named volumes.

    A *file name* here is an HNS name for the volume plus a path inside
    it: the FileService NSM for the volume's name service returns the
    server binding and native volume identifier.  The client holds that
    binding for good — like any HRPC client holding a Binding — while
    the NSM- and HNS-level caches underneath it expire on their own TTLs.
    """

    def __init__(
        self,
        host: Host,
        hns: HNS,
        nsm_stub: NsmStub,
        runtime: HrpcRuntime,
    ):
        self.host = host
        self.env = host.env
        self.hns = hns
        self.nsm_stub = nsm_stub
        self.runtime = runtime
        # volume-binding cache: HNS name -> (binding, native volume)
        self._bindings: typing.Dict[str, typing.Tuple[HRPCBinding, str]] = {}

    # ------------------------------------------------------------------
    def _locate(self, volume_name: HNSName) -> typing.Generator:
        key = str(volume_name)
        cached = self._bindings.get(key)
        if cached is not None:
            return cached
        nsm_binding = yield from self.hns.find_nsm(volume_name, "FileService")
        result = yield from self.nsm_stub.call(nsm_binding, volume_name)
        binding = result_to_binding(result)
        located = (binding, typing.cast(str, result.value["volume"]))
        self._bindings[key] = located
        return located

    # ------------------------------------------------------------------
    def fetch(self, volume_name: HNSName, path: str) -> typing.Generator:
        """Read one file; returns bytes."""
        binding, volume = yield from self._locate(volume_name)
        data = yield from self.runtime.call(
            binding, "fetch", volume, path, arg_size_bytes=64 + len(path)
        )
        self.env.stats.counter("hcsfs.fetches").increment()
        return typing.cast(bytes, data)

    def store(self, volume_name: HNSName, path: str, data: bytes) -> typing.Generator:
        """Write one file; returns bytes stored."""
        binding, volume = yield from self._locate(volume_name)
        reply = yield from self.runtime.call(
            binding,
            "store",
            volume,
            path,
            data,
            arg_size_bytes=64 + len(path) + len(data),
        )
        self.env.stats.counter("hcsfs.stores").increment()
        return typing.cast(dict, reply)["stored"]

    def listdir(self, volume_name: HNSName, prefix: str = "") -> typing.Generator:
        binding, volume = yield from self._locate(volume_name)
        names = yield from self.runtime.call(
            binding, "listdir", volume, prefix, arg_size_bytes=64 + len(prefix)
        )
        return typing.cast(typing.List[str], names)

    def copy(
        self,
        source_volume: HNSName,
        source_path: str,
        dest_volume: HNSName,
        dest_path: str,
    ) -> typing.Generator:
        """Cross-system copy: fetch from one file system, store into
        another — possibly on a completely different system type."""
        data = yield from self.fetch(source_volume, source_path)
        stored = yield from self.store(dest_volume, dest_path, data)
        return stored
