"""Colocation arrangements: where the HNS and the NSMs are linked.

"The freedom to link the HNS and NSMs with any process, rather than
embodying them in a particular set of servers, provides several
possible designs for any particular HNS client.  We call the choice of
where the HNS and NSMs are linked for each client the colocation
arrangement."

The five arrangements of Table 3.1 (``[ ]`` indicates colocation):

1. ``[Client, HNS, NSMs]``   — everything linked into the client.
2. ``[Client] [HNS, NSMs]``  — a remote agent runs HNS + NSMs.
3. ``[HNS] [Client, NSMs]``  — remote HNS service, NSMs in the client.
4. ``[NSMs] [Client, HNS]``  — HNS in the client, NSMs remote.
5. ``[Client] [HNS] [NSMs]`` — three separate processes.
"""

from __future__ import annotations

import dataclasses
import enum
import typing

from repro.core.hns import HNS
from repro.core.import_call import HrpcImporter
from repro.core.nsm import NamingSemanticsManager
from repro.net.host import Host


class Arrangement(enum.Enum):
    """The five rows of Table 3.1."""

    ALL_LOCAL = 1    # [Client, HNS, NSMs]
    AGENT = 2        # [Client] [HNS, NSMs]
    REMOTE_HNS = 3   # [HNS] [Client, NSMs]
    REMOTE_NSMS = 4  # [NSMs] [Client, HNS]
    ALL_REMOTE = 5   # [Client] [HNS] [NSMs]

    @property
    def label(self) -> str:
        return {
            Arrangement.ALL_LOCAL: "[Client, HNS, NSMs]",
            Arrangement.AGENT: "[Client] [HNS, NSMs]",
            Arrangement.REMOTE_HNS: "[HNS] [Client, NSMs]",
            Arrangement.REMOTE_NSMS: "[NSMs] [Client, HNS]",
            Arrangement.ALL_REMOTE: "[Client] [HNS] [NSMs]",
        }[self]


@dataclasses.dataclass
class ColocationStack:
    """One fully wired client-side configuration.

    Built by :func:`repro.workloads.scenarios.build_stack`; carries the
    importer plus handles to every cache so experiments can control the
    cache state (flush for column A, warm selected caches for B/C).
    """

    arrangement: Arrangement
    client_host: Host
    importer: HrpcImporter
    #: the HNS instance actually used (wherever it lives)
    hns: HNS
    #: the binding NSM actually used (wherever it lives)
    binding_nsm: NamingSemanticsManager
    #: hosts that participate beyond the client (for failure injection)
    service_hosts: typing.Tuple[Host, ...] = ()

    def flush_all_caches(self) -> None:
        """Column A: no cache hits anywhere."""
        self.flush_hns_caches()
        self.flush_nsm_caches()

    def flush_hns_caches(self) -> None:
        self.hns.metastore.cache.clear()
        for nsm in self.hns._host_address_nsms.values():
            nsm.cache.clear()

    def flush_nsm_caches(self) -> None:
        self.binding_nsm.cache.clear()

