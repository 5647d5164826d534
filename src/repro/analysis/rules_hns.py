"""Name-service rules: HNS001, HNS003.

Where the SIM rules guard the kernel, these guard the conventions the
name-service layers above it rely on: TTL-tagged cache entries (the
paper's own invalidation mechanism) and the dotted stats namespace the
benchmark harness reads.  (Wire messages need no rule: a message class
that does not match its IDL cannot be created, see
:mod:`repro.serial.message`.)
"""

from __future__ import annotations

import ast
import typing

from repro.analysis.core import (
    Finding,
    ModuleSource,
    Rule,
    attribute_chain,
)


class Hns001CacheInsertTtl(Rule):
    """Every cache insert must carry a positive TTL."""

    code = "HNS001"
    name = "cache-insert-ttl"
    rationale = (
        '"Cached data is tagged with a time-to-live field for cache '
        'invalidation" — an insert without a TTL (or with a literal '
        "non-positive one) either never expires or silently caches "
        "nothing; both corrupt hit-rate measurements."
    )

    def check(self, module: ModuleSource, graph: CallGraph) -> typing.Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not (isinstance(func, ast.Attribute) and func.attr == "insert"):
                continue
            receiver = attribute_chain(func.value)
            if receiver is None or not receiver[-1].lower().endswith("cache"):
                continue
            ttl = self._ttl_argument(node)
            if ttl is None:
                yield module.finding(
                    self, node,
                    "cache insert without a TTL argument; pass ttl_ms "
                    "(CacheEntry.expires_at drives invalidation)",
                )
                continue
            if (
                isinstance(ttl, ast.Constant)
                and isinstance(ttl.value, (int, float))
                and not isinstance(ttl.value, bool)
                and ttl.value <= 0
            ):
                yield module.finding(
                    self, node,
                    f"cache insert with literal TTL {ttl.value!r}; "
                    "non-positive TTLs cache nothing — derive the TTL "
                    "from the record or calibration",
                )

    @staticmethod
    def _ttl_argument(node: ast.Call) -> typing.Optional[ast.AST]:
        for keyword in node.keywords:
            if keyword.arg == "ttl_ms":
                return keyword.value
            if keyword.arg is None:  # **kwargs: cannot analyse
                return keyword.value
        # ResolverCache.insert(key, payload, record_count, ttl_ms)
        if len(node.args) >= 4:
            return node.args[3]
        return None


#: Subsystems allowed as the first segment of a stats name.  Growing a
#: new subsystem means growing this registry — deliberately, in review.
STAT_PREFIXES = frozenset(
    {
        "baseline",
        # "bind" also hosts the write-pipeline families bind.update.*
        # (batches, leases, NOTIFY fan-out) and per-server bind.<name>.*
        "bind",
        "broadcast",
        "cache",
        "ch",
        # "discovery" hosts the ad-hoc beacon tier: beacons, passive-view
        # observations, watchdog/TTL evictions (discovery.evict.<reason>),
        # suspect probes, and the DiscoveryNsm's view/requery families
        "discovery",
        # "harness" hosts the ablation-grid runner families
        # harness.<grid>.* (e.g. harness.fast_path.finds)
        "harness",
        "hcsfs",
        "hns",
        "hrpc",
        "localfiles",
        "net",
        "obs",
        # "nsm" also hosts nsm.lease.* (client-side lease renewal)
        "nsm",
        "rexec",
        # "sim" hosts the kernel's own families: sim.kernel.*
        # (events_scheduled / events_processed, as kernel_counters()
        # names them) and sim.mclient.* (the million-client scenario)
        "sim",
    }
)

#: Per-server stat families: ``<prefix>.<server name>.<counter>``.
#: The segment at the given index (0-based, after the prefix check) is
#: a *server name*, which follows host-naming rules — hyphens allowed
#: ("meta-bind") — not the lowercase-dotted stat convention.  Only the
#: named segment is exempt; every other segment stays [a-z0-9_].
STAT_SERVER_NAME_SEGMENTS: typing.Dict[str, int] = {
    "bind": 1,
}

_SEGMENT_OK = frozenset("abcdefghijklmnopqrstuvwxyz0123456789_")
_SERVER_SEGMENT_OK = _SEGMENT_OK | {"-"}
_STAT_METHODS = {"counter", "histogram"}


class Hns003StatNameConvention(Rule):
    """Stats names follow the dotted ``<subsystem>.<...>`` convention."""

    code = "HNS003"
    name = "stat-name-convention"
    rationale = (
        "Benchmarks and the comparison harness read counters by name "
        "(cache.<name>.<counter>, bind.replica.<endpoint>.<counter>); a "
        "name outside the dotted lowercase namespace is invisible to "
        "every existing report and diff."
    )

    def check(self, module: ModuleSource, graph: CallGraph) -> typing.Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not (
                isinstance(func, ast.Attribute) and func.attr in _STAT_METHODS
            ):
                continue
            receiver = attribute_chain(func.value)
            if receiver is None or receiver[-1] != "stats":
                continue
            if not node.args:
                continue
            pattern = self._name_pattern(node.args[0])
            if pattern is None:
                continue  # dynamic name; not statically checkable
            yield from self._check_name(module, node, pattern)

    def _check_name(
        self,
        module: ModuleSource,
        node: ast.Call,
        pattern: str,
    ) -> typing.Iterator[Finding]:
        segments = pattern.split(".")
        if len(segments) < 2:
            yield module.finding(
                self, node,
                f"stat name {pattern!r} has no subsystem prefix; use "
                "<subsystem>.<...> dotted segments",
            )
            return
        head = segments[0]
        if "*" in head or head not in STAT_PREFIXES:
            yield module.finding(
                self, node,
                f"stat name {pattern!r} starts with unknown subsystem "
                f"{head!r}; known prefixes: "
                f"{', '.join(sorted(STAT_PREFIXES))}",
            )
            return
        server_segment = STAT_SERVER_NAME_SEGMENTS.get(head, -1)
        for index, segment in enumerate(segments):
            allowed = (
                _SERVER_SEGMENT_OK if index == server_segment else _SEGMENT_OK
            )
            literal = segment.replace("*", "")
            if segment != "*" and (
                not segment or not set(literal) <= allowed
            ):
                yield module.finding(
                    self, node,
                    f"stat name {pattern!r} segment {segment!r} is not "
                    "lowercase [a-z0-9_]; mixed-case names split the "
                    "namespace",
                )
                return

    @staticmethod
    def _name_pattern(arg: ast.AST) -> typing.Optional[str]:
        """A checkable pattern for the name argument.

        Literal strings pass through; f-string interpolations become
        ``*`` wildcards; anything else (a variable) is unanalysable.
        """
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
            return arg.value
        if isinstance(arg, ast.JoinedStr):
            parts: typing.List[str] = []
            for piece in arg.values:
                if isinstance(piece, ast.Constant) and isinstance(piece.value, str):
                    parts.append(piece.value)
                else:
                    parts.append("*")
            return "".join(parts)
        return None


if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.analysis.callgraph import CallGraph
