"""File servers: the ``hcsfile`` HRPC program."""

from __future__ import annotations

import typing

from repro.harness.calibration import Calibration, DEFAULT_CALIBRATION
from repro.hrpc.server import HrpcServer, RpcReply
from repro.net.host import Host

FILE_PROGRAM = "hcsfile"
FILE_PORT = 9600


class FileServerError(Exception):
    """Unknown volume or path."""


class FileServer:
    """Exports one or more volumes (path -> bytes) from a host.

    All data lives "on disk": fetches and stores charge the host disk
    proportionally to the file size.
    """

    def __init__(
        self,
        host: Host,
        volumes: typing.Sequence[str] = (),
        calibration: Calibration = DEFAULT_CALIBRATION,
        port: int = FILE_PORT,
    ):
        self.host = host
        self.env = host.env
        self.calibration = calibration
        self._volumes: typing.Dict[str, typing.Dict[str, bytes]] = {
            v: {} for v in volumes
        }
        self.server = HrpcServer(host, name=f"file@{host.name}")
        program = self.server.program(FILE_PROGRAM)
        program.procedure("fetch", self._fetch)
        program.procedure("store", self._store)
        program.procedure("listdir", self._listdir)
        program.procedure("remove", self._remove)
        self.endpoint = self.server.listen(port)

    # ------------------------------------------------------------------
    def create_volume(self, volume: str) -> None:
        if not volume:
            raise ValueError("volume needs a name")
        self._volumes.setdefault(volume, {})

    def _volume(self, volume: str) -> typing.Dict[str, bytes]:
        files = self._volumes.get(volume)
        if files is None:
            raise FileServerError(f"no volume {volume!r} on {self.host.name}")
        return files

    def put_direct(self, volume: str, path: str, data: bytes) -> None:
        """Local (no-cost) population for scenario setup."""
        self._volume(volume)[path] = data

    def files_in(self, volume: str) -> typing.Dict[str, bytes]:
        return dict(self._volume(volume))

    # ------------------------------------------------------------------
    # HRPC procedures
    # ------------------------------------------------------------------
    def _fetch(self, ctx, volume: str, path: str):
        files = self._volume(volume)
        if path not in files:
            raise FileServerError(f"{volume}:{path} not found")
        data = files[path]
        yield self.host.disk.read(len(data))
        self.env.stats.counter(f"hcsfs.{self.host.name}.fetches").increment()
        return RpcReply(data, result_size_bytes=len(data) + 32)

    def _store(self, ctx, volume: str, path: str, data: bytes):
        if not isinstance(data, (bytes, bytearray)):
            raise FileServerError("store requires bytes")
        files = self._volume(volume)
        yield self.host.disk.write(len(data))
        files[path] = bytes(data)
        self.env.stats.counter(f"hcsfs.{self.host.name}.stores").increment()
        return RpcReply({"stored": len(data)}, result_size_bytes=32)

    def _listdir(self, ctx, volume: str, prefix: str = ""):
        files = self._volume(volume)
        yield self.host.disk.read(512)
        names = sorted(p for p in files if p.startswith(prefix))
        return RpcReply(names, result_size_bytes=16 * max(1, len(names)))

    def _remove(self, ctx, volume: str, path: str):
        files = self._volume(volume)
        if path not in files:
            raise FileServerError(f"{volume}:{path} not found")
        yield self.host.disk.write(64)
        del files[path]
        return RpcReply({"removed": True}, result_size_bytes=16)
