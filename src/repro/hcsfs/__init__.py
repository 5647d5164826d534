"""The HCS heterogeneous file system, built on the HNS.

The conclusions describe "a heterogeneous file system that mediates
access to the set of local file systems present in the environment" as
the other application of the HNS/NSM structure; the related-work
section contrasts it with Jasmine's plug-ins (local procedures, a
location database per file) — here location lives in the *name
services* and access goes through FileService NSMs.

Pieces:

- :class:`~repro.hcsfs.fileserver.FileServer` — the ``hcsfile`` HRPC
  program exporting volumes from a host's disk;
- :class:`~repro.hcsfs.client.HcsFileSystem` — a Fetch/Store interface
  over global names: the FileService NSM maps an HNS name to (server
  binding, volume), the file system caches that binding, and reads and
  writes flow over HRPC.
"""

from repro.lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "fileserver": ("FILE_PROGRAM", "FileServer", "FileServerError"),
    "client": ("HcsFileSystem",),
})
