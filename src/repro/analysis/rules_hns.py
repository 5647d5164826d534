"""Name-service rules: HNS001, HNS002, HNS003, HNS004.

Where the SIM rules guard the kernel, these guard the conventions the
name-service layers above it rely on: TTL-tagged cache entries (the
paper's own invalidation mechanism), IDL-registered wire messages (so
message sizes are grounded in real bytes), and the dotted stats
namespace the benchmark harness reads.
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

    def check(self, module: ModuleSource) -> typing.Iterator[Finding]:
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


#: Wire-message dataclass names that must carry an IDL registration.
#: Query/Answer are the broadcast locator pair; Beacon is the ad-hoc
#: discovery tier's presence announcement.
_WIRE_SUFFIXES = ("Request", "Response", "Question", "Delta", "Query", "Answer", "Beacon")


class Hns002WireMessageIdl(Rule):
    """Wire-message dataclasses must be registered with the serializer."""

    code = "HNS002"
    name = "wire-message-idl"
    rationale = (
        "Messages travel the simulated transports as Python objects but "
        "their sizes (and thus wire and marshalling costs) come from the "
        "IDL description; a message dataclass without an idl_type ships "
        "with a guessed size and skews every latency number."
    )

    def check(self, module: ModuleSource) -> typing.Iterator[Finding]:
        if not module.path.replace("\\", "/").endswith("messages.py"):
            return
        for node in module.tree.body:
            if not isinstance(node, ast.ClassDef):
                continue
            if not node.name.endswith(_WIRE_SUFFIXES):
                continue
            if not any(self._is_dataclass_decorator(d) for d in node.decorator_list):
                continue
            if not self._defines_idl_type(node):
                yield module.finding(
                    self, node,
                    f"wire-message dataclass {node.name!r} has no idl_type; "
                    "register a StructType so marshalled sizes are real",
                )

    @staticmethod
    def _is_dataclass_decorator(node: ast.AST) -> bool:
        if isinstance(node, ast.Call):
            node = node.func
        chain = attribute_chain(node)
        return bool(chain) and chain[-1] == "dataclass"

    @staticmethod
    def _defines_idl_type(node: ast.ClassDef) -> bool:
        for stmt in node.body:
            if isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    if isinstance(target, ast.Name) and target.id == "idl_type":
                        return True
            elif isinstance(stmt, ast.AnnAssign):
                if (
                    isinstance(stmt.target, ast.Name)
                    and stmt.target.id == "idl_type"
                ):
                    return True
        return False


#: Field types wire-message dataclasses may carry: Python primitives
#: the serializer maps directly, plus the IDL-described record types.
#: A new field type means a new StructType (and an entry here) —
#: deliberately, in review — or the message ships with a guessed size
#: and every latency number drifts (HNS004).
WIRE_FIELD_TYPES = frozenset(
    {
        "bool",
        "bytes",
        "float",
        "int",
        "str",
        # IDL-described record types that travel inside messages.
        "DomainName",
        "RRType",
        "ResourceRecord",
        "ZoneDelta",
    }
)

#: Generic containers allowed around registered field types.
_WIRE_CONTAINERS = frozenset(
    {
        "Dict",
        "FrozenSet",
        "List",
        "Optional",
        "Sequence",
        "Set",
        "Tuple",
        "dict",
        "frozenset",
        "list",
        "set",
        "tuple",
    }
)


class Hns004WireMessageFieldTypes(Rule):
    """Wire-message fields carry only registered serializable types."""

    code = "HNS004"
    name = "wire-message-field-types"
    rationale = (
        "The IDL sizes a message from its field types; a field whose "
        "type the serializer has no StructType for (an arbitrary "
        "object, a datetime, a server-side class) marshals with a "
        "guessed size — schema drift that silently skews every wire "
        "and marshalling cost as the update/NOTIFY message set grows."
    )

    def check(self, module: ModuleSource) -> typing.Iterator[Finding]:
        if not module.path.replace("\\", "/").endswith("messages.py"):
            return
        wire_classes = {
            node.name
            for node in module.tree.body
            if isinstance(node, ast.ClassDef) and self._is_wire_class(node)
        }
        for node in module.tree.body:
            if not (
                isinstance(node, ast.ClassDef) and node.name in wire_classes
            ):
                continue
            for stmt in node.body:
                if not isinstance(stmt, ast.AnnAssign):
                    continue
                target = stmt.target
                if not isinstance(target, ast.Name):
                    continue
                if target.id == "idl_type" or target.id.startswith("_"):
                    continue
                if self._is_classvar(stmt.annotation):
                    continue
                if not self._annotation_ok(stmt.annotation, wire_classes):
                    yield module.finding(
                        self,
                        stmt,
                        f"wire-message field {node.name}.{target.id} has "
                        "an unregistered type; wire fields may only "
                        "carry serializable primitives, IDL record "
                        "types (WIRE_FIELD_TYPES), other wire messages, "
                        "or containers of those — register a StructType "
                        "or restructure the field",
                        subject=target.id,
                    )

    @staticmethod
    def _is_wire_class(node: ast.ClassDef) -> bool:
        if not any(
            Hns002WireMessageIdl._is_dataclass_decorator(d)
            for d in node.decorator_list
        ):
            return False
        return node.name.endswith(
            _WIRE_SUFFIXES
        ) or Hns002WireMessageIdl._defines_idl_type(node)

    @staticmethod
    def _is_classvar(annotation: ast.AST) -> bool:
        if isinstance(annotation, ast.Subscript):
            annotation = annotation.value
        chain = attribute_chain(annotation)
        return bool(chain) and chain[-1] == "ClassVar"

    @classmethod
    def _annotation_ok(
        cls, annotation: ast.AST, wire_classes: typing.Set[str]
    ) -> bool:
        if isinstance(annotation, ast.Constant):
            value = annotation.value
            if value is None or value is Ellipsis:
                return True  # Tuple[X, ...] / Optional's None arm
            if isinstance(value, str):
                # A string annotation: parse and recurse, so quoted
                # containers and unions get the same treatment as
                # unquoted ones.
                try:
                    parsed = ast.parse(value.strip(), mode="eval").body
                except SyntaxError:
                    return False
                return cls._annotation_ok(parsed, wire_classes)
            return False
        if isinstance(annotation, (ast.Name, ast.Attribute)):
            chain = attribute_chain(annotation)
            if not chain:
                return False
            name = chain[-1]
            if name == "None":
                return True
            return name in WIRE_FIELD_TYPES or name in wire_classes
        if isinstance(annotation, ast.Subscript):
            base = attribute_chain(annotation.value)
            if not base or base[-1] not in _WIRE_CONTAINERS:
                return False
            inner = annotation.slice
            elements = (
                inner.elts if isinstance(inner, ast.Tuple) else [inner]
            )
            return all(
                cls._annotation_ok(element, wire_classes)
                for element in elements
            )
        if isinstance(annotation, ast.BinOp) and isinstance(
            annotation.op, ast.BitOr
        ):
            # X | Y unions (3.10+ syntax).
            return cls._annotation_ok(
                annotation.left, wire_classes
            ) and cls._annotation_ok(annotation.right, wire_classes)
        return False


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
        # harness.<grid>.* (e.g. harness.fast_path.finds,
        # harness.toy.ticks)
        "harness",
        "hcsfs",
        "hns",
        "hrpc",
        "localfiles",
        "mail",
        "net",
        "obs",
        # "nsm" also hosts nsm.lease.* (client-side lease renewal)
        "nsm",
        "portmapper",
        "rexec",
        # "sim" hosts the kernel's own families: sim.kernel.*
        # (events_scheduled / events_processed, published via
        # publish_kernel_stats()) and sim.mclient.* (the million-client
        # scenario)
        "sim",
        "yp",
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
_STAT_METHODS = {"counter", "timer", "histogram"}


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

    def check(self, module: ModuleSource) -> typing.Iterator[Finding]:
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


HNS_RULES: typing.Tuple[typing.Type[Rule], ...] = (
    Hns001CacheInsertTtl,
    Hns002WireMessageIdl,
    Hns003StatNameConvention,
    Hns004WireMessageFieldTypes,
)
