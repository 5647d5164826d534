"""BIND substrate: a DNS-style name service.

Two configurations of this server appear in the paper:

- the **public BIND** servers holding actual naming data (host
  addresses etc.), queried by the conventional resolver library; and
- the **modified BIND** used as the HNS meta-naming repository, with two
  extensions: *dynamic updates* and *data of unspecified type*
  (``RRType.UNSPEC``), per [Schwartz 1987].

The resolver implements the TTL cache whose marshalled-vs-demarshalled
format question Table 3.2 answers, and the zone-transfer (AXFR)
mechanism the paper reused to preload the HNS cache.
"""

from repro.lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "names": ("DomainName",),
    "rr": ("ResourceRecord", "RRType"),
    "zone": ("Zone", "ZoneDelta"),
    "errors": ("BindError", "NameNotFound", "NotAuthoritative", "UpdateRefused", "ZoneNotFound"),
    "messages": (
        "IxfrRequest", "IxfrResponse", "NotifyRequest", "NotifyResponse", "NotifySubscribeRequest",
        "NotifySubscribeResponse", "QueryRequest", "QueryResponse", "UpdateBatchRequest",
        "UpdateBatchResponse", "UpdateMode", "UpdateOp", "UpdateRequest", "UpdateResponse",
        "XferRequest", "XferResponse",
    ),
    "primary": ("PrimaryClient",),
    "replica": ("ReplicaScheduler", "ReplicaState"),
    "server": ("BindServer",),
    "secondary": ("SecondaryBindServer",),
    "zonefile": ("ZoneFileError", "load_zone_file", "parse_zone_text", "render_zone_text"),
    "resolver": ("BindResolver",),
    "cache": ("CacheFormat", "ResolverCache"),
})
