"""Ad-hoc discovery: a name service with no servers at all.

The paper's HNS federates *administered* name services (BIND zones, a
Clearinghouse); the systems it explicitly declines — broadcast-based
location — reappear here as the natural fit for hosts that come and go
without administration.  Each host runs a :class:`BeaconService` that
periodically broadcasts a signed presence beacon (name set + address +
incarnation number); every listener keeps a passive
:class:`DiscoveryCache` whose entries expire on the earlier of a TTL
and a liveness watchdog, with last-writer-wins on incarnation.

:class:`DiscoveryNsm` puts that view behind the standard NSM ``query``
interface (query class ``AdHocService``), so ``HNS.find_nsm`` can hand
out an ad-hoc binding and :class:`~repro.core.nsm.NsmStub` dispatches
to it unchanged — heterogeneity extended to systems that were never
administered in the first place.  :class:`~repro.resolution.DiscoveryPolicy`
holds the knobs.
"""

from repro.lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "beacon": ("BeaconService", "DiscoveryCache", "DiscoveryEntry"),
    "messages": ("BEACON_PORT", "PresenceBeacon", "ProbeRequest", "ProbeResponse"),
    "nsm": ("ADHOC_NS", "DiscoveryNsm"),
})
