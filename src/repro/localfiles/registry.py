"""The replicated binding file and its replication machinery."""

from __future__ import annotations

import dataclasses
import typing

from repro.harness.calibration import Calibration, DEFAULT_CALIBRATION
from repro.net.host import Host
from repro.net.internet import Internetwork
from repro.net.transport import Transport


@dataclasses.dataclass(frozen=True)
class BindingFileEntry:
    """One line of the binding file: service @ host -> endpoint info."""

    service: str
    host_name: str
    address: str
    port: int
    suite: str = "sunrpc"

    def line(self) -> str:
        return f"{self.service}\t{self.host_name}\t{self.address}\t{self.port}\t{self.suite}"

    @property
    def size_bytes(self) -> int:
        return len(self.line()) + 1


class LocalBindingFile:
    """One host's replica of the binding file."""

    def __init__(
        self,
        host: Host,
        calibration: Calibration = DEFAULT_CALIBRATION,
    ):
        self.host = host
        self.env = host.env
        self.calibration = calibration
        self._entries: typing.Dict[typing.Tuple[str, str], BindingFileEntry] = {}
        self.version = 0

    # -- direct (no-cost) mutation, used by the replicator -----------------
    def install(self, entry: BindingFileEntry) -> None:
        self._entries[(entry.service, entry.host_name)] = entry
        self.version += 1

    def withdraw(self, service: str, host_name: str) -> bool:
        removed = self._entries.pop((service, host_name), None) is not None
        if removed:
            self.version += 1
        return removed

    @property
    def size_bytes(self) -> int:
        return sum(e.size_bytes for e in self._entries.values())

    def __len__(self) -> int:
        return len(self._entries)

    # -- costed read --------------------------------------------------------
    def lookup(self, service: str, host_name: str) -> typing.Generator:
        """Read the file from disk, parse it, find the entry.

        Raises KeyError if absent (discovered only after the full scan,
        as with a real flat file).
        """
        cal = self.calibration
        yield self.host.disk.read(max(self.size_bytes, 512))
        yield self.host.cpu.compute(
            cal.localfile_parse_ms + 0.02 * len(self._entries)
        )
        entry = self._entries.get((service, host_name))
        if entry is None:
            raise KeyError(f"{service}@{host_name} not in local binding file")
        return entry


class Replicator:
    """Pushes binding-file updates to every replica in the internetwork.

    This is the reregistration cost the direct-access design avoids:
    every new or moved service must be written to every machine, and the
    cost "is one that continues without end".
    """

    def __init__(
        self,
        internet: Internetwork,
        transport: Transport,
        files: typing.Sequence[LocalBindingFile],
    ):
        self.internet = internet
        self.env = internet.env
        self.transport = transport
        self.files = list(files)

    def file_on(self, host: Host) -> typing.Optional[LocalBindingFile]:
        for file in self.files:
            if file.host is host:
                return file
        return None

    def publish(self, origin: Host, entry: BindingFileEntry) -> typing.Generator:
        """Install ``entry`` on every replica; returns replicas updated.

        Each remote replica costs a network push plus a local file
        rewrite (disk write).
        """
        updated = 0
        for file in self.files:
            if file.host is origin:
                file.install(entry)
                updated += 1
                continue
            if not file.host.is_up:
                continue  # stale replica: the consistency problem, live
            delay = self.internet.path_delay(
                origin.address, file.host.address, entry.size_bytes
            )
            yield self.env.timeout(delay)
            yield file.host.disk.write(max(file.size_bytes, 512))
            file.install(entry)
            updated += 1
        self.env.stats.counter("localfiles.publishes").increment()
        return updated
