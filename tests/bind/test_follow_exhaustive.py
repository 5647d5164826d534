"""Every interleaving of up to two dynamic updates with the follow
protocol, enumerated.

A NOTIFY-subscribed cache follows one primary zone by pulling IXFR
deltas, and a TTL resolver reads the same zone through its own cache.
The follow protocol's past faults each needed a write to land at one
instant (inside a journal walk's charge, between a push and its pull)
that neither hand-written scenarios nor sampling reliably produce.  So
the instants are enumerated: the first update is issued when the
schedule opens, and the second at each instant of a kernel step in a
reference run of the first, and one tick after each.

Every schedule runs as is, again FIFO with no journal (every pull
behind the primary is then answered by a snapshot), and under a
perturbed tie-break where its last update ties with a kernel step, or,
where it lands a tick after one, with the follower's first NOTIFY
dropped and again with the reply to its first IXFR pull lost (a
schedule of one update runs all five ways).  Those two end with a
write to a third name: a dropped push is repaired only by the next one,
and a lost reply's pull retransmits after ``XFER_TIMEOUT_MS``, before
that write.  Checked:

(i) at quiescence the follower is at the primary's serial and each of
    its live entries is the primary's record set, and once every TTL has
    run out the resolver reads what the primary holds;
(ii) whenever the follower's serial is written, it has not decreased
    and is at most the primary's committed serial;
(iii) each run as is or with a lost reply, traced, reads line for line
    the same with every memo empty (``tests/test_memo_off.py``).
"""

import collections
import dataclasses
import typing

import pytest

from repro.bind import (
    BindResolver, BindServer, CacheInstaller, DomainName, NameNotFound, ResolverCache,
    ResourceRecord, RRType, UpdateMode, UpdateOp, Zone,
)
from repro.bind import zone as zone_module
from repro.bind.messages import NotifyRequest
from repro.analysis.determinism import run_lines
from repro.bind.primary import XFER_TIMEOUT_MS, PrimaryClient
from repro.harness.calibration import DEFAULT_CALIBRATION
from repro.net import DatagramTransport, Internetwork
from repro.resolution import UpdatePolicy
from repro.sim import ConstantLatency, Environment

from tests.test_memo_off import assert_memo_off_reads_the_same, digest, memo_off

CAL = DEFAULT_CALIBRATION
ORIGIN = "hns"
NAMES = ("a.ctx.hns", "b.ctx.hns")
#: the closing write of a run whose push was dropped
CLOSING = "z.ctx.hns"
#: the TTL of the zone's record at the start, the longest there is
INITIAL_TTL = 60_000.0
#: a short TTL outlives a run, so a stale entry is still live at (i)
SHORT_TTL = 5_000.0
#: when the schedule opens, after the follower's preload and subscription
OPEN = 200.0
#: after the last update, by when the follow protocol has settled
SETTLE_MS = 500.0
TICK = 0.001
PERTURB_SEED = 3

#: (mode, name, ttl or None for a delete)
Update = typing.Tuple[int, str, typing.Optional[float]]

UPDATES: typing.List[Update] = [
    (mode, name, ttl)
    for name in NAMES
    for mode in (UpdateMode.ADD, UpdateMode.REPLACE)
    for ttl in (0.0, SHORT_TTL)
] + [(UpdateMode.DELETE, name, None) for name in NAMES]


def record(name, text, ttl):
    return ResourceRecord.text_record(name, text, rtype=RRType.UNSPEC, ttl=ttl)


class CheckedSerials(dict):
    """The follower's serial per origin, checked as it is written (ii):
    it never decreases and never passes the primary's committed serial."""

    def __init__(self, zone: Zone):
        super().__init__()
        self.zone = zone

    def __setitem__(self, origin, serial):
        have, committed = self.get(origin, 0), self.zone.serial
        assert have <= serial <= committed, (have, serial, committed)
        super().__setitem__(origin, serial)


@dataclasses.dataclass
class World:
    env: Environment
    zone: Zone
    installer: CacheInstaller
    follower: ResolverCache
    reader: BindResolver
    writer: PrimaryClient
    #: what the run loses the first of, "notify" or "reply" ("" nothing),
    #: and how many of each were sent to the follower
    drop: str
    sent: typing.Counter[str] = dataclasses.field(default_factory=collections.Counter)

    def lost(self, kind: str) -> bool:
        """Count one ``kind`` sent; is it the first, in a run that drops it?"""
        self.sent[kind] += 1
        return self.drop == kind and self.sent[kind] == 1


def build(perturb_seed=None, drop="", warm=True, trace=False) -> World:
    """The world at ``OPEN``: the follower preloaded and subscribed and,
    if ``warm``, the resolver's cache holding both names (one of them
    absent)."""
    env = Environment(seed=11, perturb_seed=perturb_seed)
    env.trace.enabled = trace
    net = Internetwork(env)
    segment = net.add_segment(latency=ConstantLatency(CAL.wire_base_ms, CAL.wire_per_byte_ms))
    udp = DatagramTransport(net)
    zone = Zone(ORIGIN)
    zone.add(record(NAMES[0], "v0", INITIAL_TTL))
    server = BindServer(
        net.add_host("ns", segment), zones=[zone], allow_dynamic_update=True,
        update_policy=UpdatePolicy(invalidation="notify"), transport=udp,
    )
    endpoint = server.listen()
    follower = BindResolver(
        net.add_host("follower", segment), udp, endpoint,
        cache=ResolverCache(env, name="follower"), name="follower",
    )
    installer = CacheInstaller(follower.primary, follower.cache)
    installer._serials = CheckedSerials(zone)
    reader = BindResolver(
        net.add_host("reader", segment), udp, endpoint,
        cache=ResolverCache(env, name="reader"), name="reader",
    )
    writer = BindResolver(net.add_host("writer", segment), udp, endpoint).primary
    world = World(env, zone, installer, follower.cache, reader, writer, drop)
    handle, send_ixfr = installer.handle, server._send_ixfr

    def dropping(datagram, responder):
        if isinstance(datagram.payload, NotifyRequest) and world.lost("notify"):
            return None
        return handle(datagram, responder)

    def losing(zone, walked, deltas, records, responder):
        if world.lost("reply"):  # marshalled and paid for, then lost on the wire
            after, responder = responder.after, lambda reply, size: None
            responder.after = after
        send_ixfr(zone, walked, deltas, records, responder)

    installer.handle, server._send_ixfr = dropping, losing

    def setup():
        yield from installer.preload(ORIGIN)
        yield from installer.subscribe_notify(ORIGIN)
        for name in NAMES if warm else ():
            try:
                yield from reader.lookup(name, RRType.UNSPEC)
            except NameNotFound:
                pass

    env.run(until=env.process(setup()))
    assert env.now < OPEN
    return world


def issue(world: World, update: Update, at: float, version: int, closing=False):
    """Start ``update`` as its own writer process at ``at``; a closing
    write's push and pull are never dropped."""
    mode, name, ttl = update
    env = world.env
    records = () if ttl is None else (record(name, f"v{version}", ttl),)
    op = UpdateOp(mode, DomainName(name), RRType.UNSPEC, records=records)

    def write():
        yield env.timeout(at - env.now)
        if closing:
            world.drop = ""
        yield from world.writer.update_batch([op])

    return env.process(write())


def run(schedule, perturb_seed=None, drop="", steps=None, rest=False, trace=False) -> World:
    """Run ``schedule`` (``(update, at)`` pairs) and check it, and with
    ``rest`` what the resolver reads once every TTL has run out; with
    ``steps``, append the instant of each kernel step up to the one
    after which the follower has settled."""
    world = build(perturb_seed, drop, warm=rest, trace=trace)
    env, zone, installer = world.env, world.zone, world.installer
    writes = [issue(world, update, at, n) for n, (update, at) in enumerate(schedule, start=1)]
    last = max((at for _, at in schedule), default=OPEN)
    if drop:
        last += SETTLE_MS + (XFER_TIMEOUT_MS if drop == "reply" else 0)
        issue(world, (UpdateMode.REPLACE, CLOSING, SHORT_TTL), last, 0, closing=True)
    while steps is not None and env.peek() <= last + SETTLE_MS:
        env.step()
        steps.append(env.now)
        settled = installer._serials[ORIGIN] == zone.serial and not installer._pushed
        if settled and all(write.triggered for write in writes):
            steps = None
    env.run(until=last + SETTLE_MS)
    # (i) at quiescence the follower equals its authority
    assert installer._serials[ORIGIN] == zone.serial, schedule
    for key, entry in world.follower.entries():
        assert list(entry.payload) == authority(zone, key[0]), (schedule, key)
    if not rest:
        return world
    # ... and, every TTL run out, so does what the resolver reads
    env.run(until=env.now + INITIAL_TTL)
    for name in NAMES:
        try:
            answer = env.run(until=env.process(world.reader.lookup(name, RRType.UNSPEC)))
        except NameNotFound:
            answer = []
        assert list(answer) == authority(zone, name), (schedule, name)
    return world


def at_rest(schedule) -> bool:
    """Is the zone at rest checked too?  It depends on which updates ran,
    not when, so only where the last one ran when the schedule opened."""
    return not schedule or schedule[-1][1] == OPEN


def authority(zone: Zone, name: str) -> typing.List[ResourceRecord]:
    try:
        return list(zone.lookup(DomainName(name), RRType.UNSPEC))
    except NameNotFound:
        return []


def instants(first: Update) -> typing.Set[float]:
    """Every instant a kernel step happens at, from ``OPEN`` until the
    follower has settled, once ``first`` is issued at ``OPEN``."""
    steps: typing.List[float] = []
    run([(first, OPEN)], steps=steps)
    return {t for t in steps if t >= OPEN}


def schedules():
    """``(schedule, tied)``: every schedule of at most two updates, and
    whether its last update shares its instant with a kernel step."""
    yield [], False
    for first in UPDATES:
        yield [(first, OPEN)], True
        moments = instants(first)
        for at in sorted({*moments, *(t + TICK for t in moments)}):
            for second in UPDATES:
                yield [(first, OPEN), (second, at)], at in moments


def dropped(schedule, tied) -> bool:
    """Does ``schedule`` run with a push dropped, and with a reply lost?"""
    return not tied or len(schedule) < 2


def fifo(schedule, drop="") -> str:
    """Run ``schedule`` in FIFO order, traced: the digest of its lines."""
    world = run(schedule, drop=drop, rest=at_rest(schedule), trace=True)
    return digest(run_lines(world.env))


def fifo_digests() -> typing.Dict[str, str]:
    """The :func:`fifo` digest of every schedule as is, and with a lost
    reply where it runs so, keyed by its place and itself."""
    digests = {}
    for index, (schedule, tied) in enumerate(schedules()):
        digests[f"{index} {schedule}"] = fifo(schedule)
        if dropped(schedule, tied):
            digests[f"{index} {schedule} reply lost"] = fifo(schedule, "reply")
    return digests


def test_every_schedule_of_two_updates_converges():
    """Each schedule, run each way the module docstring lists (a perturbed
    tie-break where that instant's order is in question); each FIFO run
    must also read the same with every memo empty."""
    with memo_off("tests.bind.test_follow_exhaustive:fifo_digests") as child:
        fifos = fifo_digests()
        for schedule, tied in schedules():
            if tied:
                run(schedule, perturb_seed=PERTURB_SEED)
            if dropped(schedule, tied):
                run(schedule, drop="notify")
        print(f"{len(fifos)} FIFO runs")
        assert len(fifos) > len(UPDATES) ** 2
        assert_memo_off_reads_the_same(child, fifos)


def test_every_schedule_converges_when_every_pull_is_a_snapshot(monkeypatch):
    """With no journal each pull is answered by the zone's snapshot,
    which must drop what it lacks: a deleted name is not served on."""
    monkeypatch.setattr(zone_module, "JOURNAL_LIMIT", 0)
    runs = [run(schedule, rest=at_rest(schedule)) for schedule, _tied in schedules()]
    print(f"{len(runs)} snapshot runs")
    assert len(runs) > len(UPDATES) ** 2


def test_a_follower_that_ignores_its_pushes_fails(monkeypatch):
    """The check is not vacuous: a follower that never pulls is behind
    its primary at rest."""
    monkeypatch.setattr(CacheInstaller, "_on_notify", lambda *_: iter(()))
    with pytest.raises(AssertionError):
        run([((UpdateMode.REPLACE, NAMES[0], SHORT_TTL), OPEN)])
