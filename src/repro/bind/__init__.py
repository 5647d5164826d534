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

from repro.bind.names import DomainName
from repro.bind.rr import ResourceRecord, RRType
from repro.bind.zone import Zone, ZoneDelta
from repro.bind.errors import (
    BindError,
    NameNotFound,
    NotAuthoritative,
    UpdateRefused,
    ZoneNotFound,
)
from repro.bind.messages import (
    IxfrRequest,
    IxfrResponse,
    NotifyRequest,
    NotifyResponse,
    NotifySubscribeRequest,
    NotifySubscribeResponse,
    QueryRequest,
    QueryResponse,
    UpdateBatchRequest,
    UpdateBatchResponse,
    UpdateMode,
    UpdateOp,
    UpdateRequest,
    UpdateResponse,
    XferRequest,
    XferResponse,
)
from repro.bind.primary import PrimaryClient
from repro.bind.replica import ReplicaScheduler, ReplicaState
from repro.bind.server import BindServer
from repro.bind.secondary import SecondaryBindServer
from repro.bind.zonefile import (
    ZoneFileError,
    load_zone_file,
    parse_zone_text,
    render_zone_text,
)
from repro.bind.resolver import BindResolver, CacheFormat
from repro.bind.cache import ResolverCache

__all__ = [
    "BindError",
    "BindResolver",
    "BindServer",
    "CacheFormat",
    "DomainName",
    "IxfrRequest",
    "IxfrResponse",
    "NameNotFound",
    "NotAuthoritative",
    "NotifyRequest",
    "NotifyResponse",
    "NotifySubscribeRequest",
    "NotifySubscribeResponse",
    "PrimaryClient",
    "QueryRequest",
    "QueryResponse",
    "ReplicaScheduler",
    "ReplicaState",
    "ResolverCache",
    "ResourceRecord",
    "RRType",
    "SecondaryBindServer",
    "UpdateBatchRequest",
    "UpdateBatchResponse",
    "UpdateMode",
    "UpdateOp",
    "UpdateRefused",
    "UpdateRequest",
    "UpdateResponse",
    "XferRequest",
    "XferResponse",
    "Zone",
    "ZoneDelta",
    "ZoneFileError",
    "ZoneNotFound",
    "load_zone_file",
    "parse_zone_text",
    "render_zone_text",
]
