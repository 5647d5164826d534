"""Concrete NSMs, one module per name-service family.

"The binding NSMs for both the BIND and Clearinghouse subsystems are
about 230 lines each."  Ours are in the same spirit, encapsulating the
local naming syntax, the access protocol and the native binding
protocol: each family module (``bind``, ``clearinghouse``, ``yp``) has
one base class that builds the family's native clients, and one small
class per query class that declares its ``query_class``, its client's
stats label (``client_label``) and its ``resolve``.

Besides HRPCBinding and HostAddress, the query classes of the paper's
evaluation, they serve MailboxLocation (mail was one of the three core
HCS network services) and FileService: a global file-service name to an
HRPC-callable endpoint plus the volume to mount — the HNS side of the
"heterogeneous file system that mediates access to the set of local
file systems" the conclusions mention.
"""

from repro.core.nsms.bind import BindBindingNSM, BindFileServiceNSM, BindHostAddressNSM, BindMailboxNSM
from repro.core.nsms.clearinghouse import (
    ClearinghouseBindingNSM,
    ClearinghouseFileServiceNSM,
    ClearinghouseHostAddressNSM,
    ClearinghouseMailboxNSM,
)
from repro.core.nsms.yp import YpBindingNSM, YpHostAddressNSM, YpMailboxNSM

__all__ = [
    "BindBindingNSM",
    "BindFileServiceNSM",
    "BindHostAddressNSM",
    "BindMailboxNSM",
    "ClearinghouseBindingNSM",
    "ClearinghouseFileServiceNSM",
    "ClearinghouseHostAddressNSM",
    "ClearinghouseMailboxNSM",
    "YpBindingNSM",
    "YpHostAddressNSM",
    "YpMailboxNSM",
]
