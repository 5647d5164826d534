"""The ad-hoc NSM: beacon-discovered names behind the standard query face.

The confederation argument cuts both ways: if "all NSMs for a
particular query class have identical client interfaces", then a name
service that is *nothing but overheard beacons* can join it.
:class:`DiscoveryNsm` answers the ``AdHocService`` query class from the
host's passive :class:`~repro.discovery.beacon.DiscoveryCache`, falling
back to a one-shot broadcast :class:`~repro.broadcast.BroadcastLocator`
re-query on a miss — and ``HNS.find_nsm`` / ``NsmStub`` dispatch to it
unchanged.

Liveness discipline: a result's TTL never exceeds the backing entry's
remaining watchdog deadline, and liveness evictions invalidate any
derived resolver-cache entries immediately — the framework's result
cache can therefore never outlive what the beacons justify.
"""

from __future__ import annotations

import typing

from repro.broadcast.locator import BroadcastLocator
from repro.core.names import HNSName
from repro.core.nsm import NamingSemanticsManager
from repro.discovery.beacon import BeaconService, DiscoveryEntry
from repro.harness.calibration import Calibration, DEFAULT_CALIBRATION
from repro.obs.span import NULL_SPAN
from repro.resolution import FastPathPolicy

#: the name-service name the ad-hoc tier registers under in the meta zone
ADHOC_NS = "adhoc"


class DiscoveryNsm(NamingSemanticsManager):
    """NSM for the AdHocService query class, backed by presence beacons."""

    query_class = "AdHocService"

    def __init__(
        self,
        beacon_service: BeaconService,
        name: str = "",
        calibration: Calibration = DEFAULT_CALIBRATION,
        cached: bool = True,
        fast_path: FastPathPolicy = FastPathPolicy.disabled(),
    ):
        super().__init__(
            beacon_service.host,
            ADHOC_NS,
            name=name,
            calibration=calibration,
            cached=cached,
            fast_path=fast_path,
        )
        self.beacon = beacon_service
        self.policy = beacon_service.policy
        self.locator = BroadcastLocator(
            beacon_service.host,
            beacon_service.transport,
            wait_ms=self.policy.broadcast_wait_ms,
        )
        # Ad-hoc names are cheap to look up locally: no protocol
        # translation, no result reformatting.
        self.translate_cost_ms = 0.0
        self.standardize_cost_ms = 0.0
        # local name (lowered) -> resolver-cache keys derived from it,
        # so liveness evictions can invalidate the framework cache too.
        # A dict-as-ordered-set: iteration must not depend on string
        # hashing, which varies across processes (determinism gate).
        self._keys_for: typing.Dict[str, typing.Dict[object, None]] = {}
        beacon_service.cache.on_evict(self._view_evicted)

    # ------------------------------------------------------------------
    def _cache_key(
        self, hns_name: HNSName, params: typing.Mapping[str, object]
    ) -> object:
        key = super()._cache_key(hns_name, params)
        local = self.translate_name(hns_name).lower()
        self._keys_for.setdefault(local, {})[key] = None
        return key

    def _view_evicted(self, entry: DiscoveryEntry, reason: str) -> None:
        """The passive view dropped a name: drop derived results too."""
        if self.cache is None:
            return
        for key in self._keys_for.pop(entry.name.lower(), {}):
            if self.cache.invalidate(key):
                self.env.stats.counter("discovery.nsm_invalidations").increment()

    # ------------------------------------------------------------------
    def resolve(
        self, hns_name: HNSName, params: typing.Mapping[str, object]
    ) -> typing.Generator:
        local = self.translate_name(hns_name)
        obs = self.env.obs
        with (
            obs.span("nsm.adhoc_query", nsm=self.name, name=local)
            if obs.enabled
            else NULL_SPAN
        ) as span:
            entry = self.beacon.cache.lookup(local)
            if entry is not None:
                span.set(outcome="view")
                self.env.stats.counter("discovery.view_hits").increment()
                # Never promise longer than liveness justifies.
                ttl_ms = max(1.0, self.beacon.cache.remaining_ms(entry))
                return self._standardize(entry.address, entry.owner,
                                         entry.incarnation, entry.value), ttl_ms
            span.set(outcome="requery")
            self.env.stats.counter("discovery.requeries").increment()
            # One-shot broadcast fallback (LookupError on silence).
            answer = yield from self.locator.locate(local)
            ttl_ms = (
                max(1.0, self.policy.watchdog_deadline_ms())
                if self.policy.liveness
                else self.policy.entry_ttl_ms
            )
            return self._standardize(
                answer.address, answer.owner, 0, answer.data.get("port", "")
            ), ttl_ms

    @staticmethod
    def _standardize(
        address: str, owner: str, incarnation: int, port: str
    ) -> typing.Dict[str, object]:
        return {
            "address": address,
            "owner": owner,
            "incarnation": incarnation,
            "port": port,
        }
