"""Concrete NSMs, one module per name-service family.

"The binding NSMs for both the BIND and Clearinghouse subsystems are
about 230 lines each."  Ours are in the same spirit, encapsulating the
local naming syntax, the access protocol and the native binding
protocol: each family module (``bind``, ``clearinghouse``) has one
base class that builds the family's native clients, and one small
class per query class that declares its ``query_class``, its client's
stats label (``client_label``) and its ``resolve``.

Besides HRPCBinding and HostAddress, the query classes of the paper's
evaluation, they serve MailboxLocation (mail was one of the three core
HCS network services) and FileService: a global file-service name to an
HRPC-callable endpoint plus the volume to mount — the HNS side of the
"heterogeneous file system that mediates access to the set of local
file systems" the conclusions mention.
"""

from repro.lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "bind": ("BindBindingNSM", "BindFileServiceNSM", "BindHostAddressNSM", "BindMailboxNSM"),
    "clearinghouse": (
        "ClearinghouseBindingNSM", "ClearinghouseFileServiceNSM", "ClearinghouseHostAddressNSM",
        "ClearinghouseMailboxNSM",
    ),
})
