"""The signature memo and the owner index are checked, not trusted.

Both are host-side shortcuts that must not be observable: the memoised
``sign_beacon`` against an unmemoised reference, and ``DiscoveryCache``
with its ``owner -> held keys`` index against the whole-view scan it
replaced (kept here as the reference), on generated inputs.
"""

import dataclasses
import zlib

from hypothesis import given, settings, strategies as st

from repro.broadcast.messages import encode_data
from repro.discovery import DiscoveryCache, PresenceBeacon
from repro.discovery.beacon import DiscoveryEntry
from repro.discovery.messages import sign_beacon
from repro.resolution import DiscoveryPolicy
from repro.sim import Environment


# ----------------------------------------------------------------------
# The signature
# ----------------------------------------------------------------------
def reference_signature(owner, address, incarnation, names, secret):
    canonical = "|".join(
        (secret, owner, address, str(incarnation), encode_data(names))
    )
    return zlib.crc32(canonical.encode("utf-8")) & 0xFFFFFFFF


text = st.text(max_size=6)
name_maps = st.dictionaries(text, text, max_size=4)
#: equal and equally hashed, yet ``str()`` tells them apart
incarnations = st.sampled_from([1, True, 1.0, 0, False, 2])


@given(text, text, incarnations, name_maps, text, st.randoms(use_true_random=False))
@settings(max_examples=200, deadline=None)
def test_memoised_signature_equals_the_reference(
    owner, address, incarnation, names, secret, shuffler
):
    expected = reference_signature(owner, address, incarnation, names, secret)
    items = list(names.items())
    for _ in range(3):  # a miss, then hits, under other insertion orders
        shuffler.shuffle(items)
        assert sign_beacon(owner, address, incarnation, dict(items), secret) == expected
    for other in (1, True, 1.0):
        assert sign_beacon(owner, address, other, names, secret) == (
            reference_signature(owner, address, other, names, secret)
        )


@given(
    name_maps,
    st.sampled_from(["owner", "address", "incarnation", "names", "signature", "secret"]),
)
@settings(max_examples=100, deadline=None)
def test_verify_reads_the_fields_as_they_are_now(names, field):
    beacon = PresenceBeacon.signed("lab1", "128.95.1.9", 3, names, secret="s3")
    assert beacon.verify("s3") and beacon.verify("s3")  # the second from the memo
    secret = "s3"
    if field == "secret":
        secret = "s4"
    elif field == "names":
        beacon.names["extra"] = "1"  # in place: same dict object, new value
    elif field in ("incarnation", "signature"):
        setattr(beacon, field, getattr(beacon, field) + 1)
    else:
        setattr(beacon, field, getattr(beacon, field) + "x")
    assert not beacon.verify(secret)


# ----------------------------------------------------------------------
# The owner index
# ----------------------------------------------------------------------
class ScanningCache(DiscoveryCache):
    """``observe`` and ``_evict`` as they were before the index."""

    def observe(self, beacon):
        now = self.env.now
        known = self._owner_incarnation.get(beacon.owner, 0)
        if beacon.incarnation < known:
            self.env.stats.counter("discovery.stale_beacons").increment()
            return 0
        self._owner_incarnation[beacon.owner] = beacon.incarnation
        advertised = {name.lower() for name in beacon.names}
        for key in [
            key
            for key, entry in self._entries.items()
            if entry.owner == beacon.owner and key not in advertised
        ]:
            self._evict(key, "retracted")
        touched = 0
        for name, value in beacon.names.items():
            key = name.lower()
            entry = self._entries.get(key)
            if (
                entry is not None
                and entry.owner != beacon.owner
                and beacon.incarnation < entry.incarnation
            ):
                self.env.stats.counter("discovery.lww_rejects").increment()
                continue
            self._entries[key] = DiscoveryEntry(
                name=name,
                owner=beacon.owner,
                address=beacon.address,
                value=value,
                incarnation=beacon.incarnation,
                heard_at=now,
                ttl_deadline=now + self.policy.entry_ttl_ms,
                watchdog_deadline=now + self.policy.watchdog_deadline_ms(),
            )
            touched += 1
        if touched:
            self.env.stats.counter("discovery.observed").increment(touched)
        return touched

    def _evict(self, key, reason):
        entry = self._entries.pop(key, None)
        if entry is None:
            return False
        self.env.stats.counter("discovery.evictions").increment()
        self.env.stats.counter(f"discovery.evict.{reason}").increment()
        self.env.trace.emit(
            "discovery",
            f"evicted {entry.name} (owner {entry.owner}, {reason})",
            incarnation=entry.incarnation,
        )
        for callback in self._on_evict:
            callback(entry, reason)
        return True


POLICY = DiscoveryPolicy(beacon_period_ms=100.0, entry_ttl_ms=400.0)
OWNERS = ["lab1", "lab2", "lab3"]
#: few names, two of them one key: hand-overs and collisions are common
NAMES = ["printer", "Printer", "mail", "scanner", "x"]

beacons = st.tuples(
    st.just("beacon"),
    st.sampled_from(OWNERS),
    st.integers(min_value=0, max_value=4),
    st.lists(st.sampled_from(NAMES), max_size=4, unique=True),
)
steps = st.one_of(
    beacons,
    st.tuples(st.just("evict"), st.sampled_from(NAMES)),
    st.tuples(st.just("lookup"), st.sampled_from(NAMES)),
    st.tuples(st.just("wait"), st.sampled_from([50.0, 150.0, 450.0])),
)


def replay(cache_type, script):
    """Everything observable about one view after each step."""
    env = Environment(seed=1)
    env.trace.enabled = True
    view = cache_type(env, POLICY)
    evicted = []
    view.on_evict(lambda entry, reason: evicted.append((entry.name, entry.owner, reason)))
    history = []
    for step in script:
        if step[0] == "beacon":
            _, owner, incarnation, names = step
            address = f"128.95.1.{1 + OWNERS.index(owner)}"
            advertised = {name: str(9000 + NAMES.index(name)) for name in names}
            returned = view.observe(
                PresenceBeacon.signed(owner, address, incarnation, advertised)
            )
        elif step[0] == "evict":
            returned = view.evict(step[1], "test")
        elif step[0] == "lookup":
            found = view.lookup(step[1])
            returned = found and dataclasses.astuple(found)
        else:
            returned = env.run(until=env.now + step[1])
        history.append(
            (
                returned,
                [dataclasses.astuple(entry) for entry in view.entries()],
                list(evicted),
                {
                    name: value
                    for name, value in env.stats.counters().items()
                    if name.startswith("discovery.")
                },
                env.trace.canonical_lines(),
                view.membership_digest(),
            )
        )
    return view, history


@given(st.lists(steps, max_size=30))
@settings(max_examples=300, deadline=None)
def test_indexed_view_equals_the_scanning_reference(script):
    view, history = replay(DiscoveryCache, script)
    _, expected = replay(ScanningCache, script)
    assert history == expected
    # and the index is exactly what a scan would find
    held = {}
    for key, entry in view._entries.items():
        held.setdefault(entry.owner, set()).add(key)
    assert {owner: keys for owner, keys in view._held.items() if keys} == held
