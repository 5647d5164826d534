"""BIND substrate: a DNS-style name service.

Two configurations of this server appear in the paper:

- the **public BIND** servers holding actual naming data (host
  addresses etc.), queried by the conventional resolver library; and
- the **modified BIND** used as the HNS meta-naming repository, with two
  extensions: *dynamic updates* and *data of unspecified type*
  (``RRType.UNSPEC``), per [Schwartz 1987].

The resolver reads through the TTL cache whose marshalled-vs-demarshalled
format question Table 3.2 answers; the cache installer writes the
zone transfer (AXFR) the paper reused to preload the HNS cache.
"""

from repro.lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "names": ("DomainName",),
    "rr": ("ResourceRecord", "RRType"),
    "zone": ("Zone", "ZoneDelta"),
    "errors": ("BindError", "NameNotFound", "NotAuthoritative", "UpdateRefused", "ZoneNotFound"),
    "messages": (
        "IxfrRequest", "IxfrResponse", "NotifyRequest", "NotifySubscribeRequest",
        "NotifySubscribeResponse", "QueryRequest", "QueryResponse", "UpdateBatchRequest",
        "UpdateBatchResponse", "UpdateMode", "UpdateOp", "UpdateRequest", "UpdateResponse",
        "XferRequest", "XferResponse",
    ),
    "primary": ("CacheInstaller", "PrimaryClient"),
    "replica": ("ReplicaScheduler", "ReplicaState"),
    "server": ("BindServer",),
    "resolver": ("BindResolver",),
    "cache": ("CacheFormat", "ResolverCache"),
})
