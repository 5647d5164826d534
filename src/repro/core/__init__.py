"""The HCS Name Service (HNS): the paper's primary contribution.

The HNS is a *direct access* federated name service: it manages a
global name space whose data stays in the underlying heterogeneous name
services (BIND, Clearinghouse, ...), reached through per-(query class,
name service) agents called Naming Semantics Managers (NSMs).

Public surface:

- :class:`~repro.core.names.HNSName` — (context, individual name);
- :class:`~repro.core.hns.HNS` — the library implementing ``FindNSM``
  with its specialized meta-naming cache;
- :class:`~repro.core.nsm.NamingSemanticsManager` and the concrete NSMs
  in :mod:`repro.core.nsms`;
- :class:`~repro.core.admin.HnsAdministrator` — registering name
  services, contexts, and NSMs (dynamic updates to the modified BIND);
- :class:`~repro.core.import_call.HrpcImporter` — the HRPC ``Import``
  application built on the HNS;
- :mod:`~repro.core.colocation` — the five client/HNS/NSM placement
  arrangements of Table 3.1;
- :mod:`~repro.core.model` — equation (1), the caching-vs-colocation
  tradeoff.
"""

from repro.lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "names": ("HNSName",),
    "queryclass": ("QUERY_CLASSES", "QueryClass", "query_class_named"),
    "errors": (
        "ContextNotFound", "HnsError", "NsmNotFound", "QueryClassUnsupported",
    ),
    "metastore": ("MetaStore", "NsmRecord", "NameServiceRecord"),
    "nsm": ("LocalNsmBinding", "NamingSemanticsManager", "NsmResult", "NsmStub", "serve_nsm"),
    "hns": ("HNS", "FindNsmCall", "HnsService", "NsmBindingLike", "serve_hns"),
    "admin": ("HnsAdministrator",),
    "import_call": ("HrpcImporter", "ImportCall", "LocalFinder", "RemoteFinder", "serve_agent"),
    "colocation": ("Arrangement", "ColocationStack"),
    "model": ("ColocationModel",),
})
