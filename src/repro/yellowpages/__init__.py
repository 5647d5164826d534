"""Sun Yellow Pages (NIS) substrate: a third name-service type.

The paper's prototype federated BIND and the Clearinghouse and "plan[s]
to introduce additional name services as they become available".  This
package is that next service: Sun's Yellow Pages — flat, per-domain
key/value *maps* (``hosts.byname``, ``mail.aliases``, ...) served over
Sun RPC from in-memory dbm files.

Integrating it into the HNS costs exactly what the paper promises:
NSMs for the query classes worth supporting, plus registration — no
client changes.  See :mod:`repro.core.nsms.yp` and
``tests/integration/test_third_system_type.py``.
"""

from repro.lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "maps": ("YpDomain", "YpMap"),
    "errors": ("NoSuchKey", "NoSuchMap", "YpError"),
    "server": ("YpServer",),
    "client": ("YpClient",),
})
