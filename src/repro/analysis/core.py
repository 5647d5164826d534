"""The hnslint core: findings, rules, suppressions, and the runner.

hnslint is a repo-specific static-analysis pass.  General-purpose
linters cannot know that wall-clock reads corrupt the deterministic
event kernel, that cache inserts must carry a TTL, or that wire-message
dataclasses need an IDL registration — those are *invariants of this
reproduction*, and this module gives them teeth.

The machinery is deliberately small: a rule is an object with a
``code`` and a ``check(module, graph)`` method yielding :class:`Finding`
objects; a :class:`ModuleSource` bundles one parsed file; the runner
walks paths, builds the may-yield call graph over them
(:mod:`repro.analysis.callgraph`), applies inline suppressions
(``# hnslint: disable=CODE -- reason``), and hands the surviving
findings to a reporter (:mod:`repro.analysis.report`).
"""

from __future__ import annotations

import ast
import dataclasses
import io
import pathlib
import re
import tokenize
import typing

#: A comment that starts like a pragma is held to the pragma grammar.
_PRAGMA_RE = re.compile(r"#\s*hnslint:")
#: The pragma grammar: ``# hnslint: disable=SIM001,HNS003 -- reason``
#: silences the listed codes; the codes and the reason are required.
_DISABLE_RE = re.compile(
    r"#\s*hnslint:\s*disable=(?P<codes>[A-Z]+[0-9]+(?:\s*,\s*[A-Z]+[0-9]+)*)"
    r"\s+--\s+\S"
)


@dataclasses.dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    path: str
    line: int
    col: int
    message: str
    snippet: str = ""

    def to_json(self) -> typing.Dict[str, object]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "snippet": self.snippet,
        }

    def __str__(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"


class ModuleSource:
    """One parsed Python file, shared by every rule that inspects it."""

    def __init__(self, path: str, text: str):
        self.path = path
        self.text = text
        self.lines = text.splitlines()
        self.tree = ast.parse(text, filename=path)
        self._pragmas: typing.Optional[
            typing.Dict[int, typing.Optional[typing.FrozenSet[str]]]
        ] = None

    def line_at(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1].strip()
        return ""

    def finding(self, rule: "Rule", node: ast.AST, message: str) -> Finding:
        lineno = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        return Finding(
            rule=rule.code,
            path=self.path,
            line=lineno,
            col=col + 1,
            message=message,
            snippet=self.line_at(lineno),
        )

    @property
    def pragmas(self) -> typing.Dict[int, typing.Optional[typing.FrozenSet[str]]]:
        """Every pragma: line -> the codes it disables (None: malformed).

        Built from the token stream, not raw lines, so a docstring that
        merely *mentions* the pragma syntax (as this package's own
        documentation does) is not a pragma.  The match is anchored: a
        pragma is the whole comment, not a phrase inside one — a doc
        comment quoting the syntax does not silence anything.
        """
        if self._pragmas is None:
            found: typing.Dict[int, typing.Optional[typing.FrozenSet[str]]] = {}
            try:
                tokens = tokenize.generate_tokens(io.StringIO(self.text).readline)
                for token in tokens:
                    if token.type != tokenize.COMMENT or not _PRAGMA_RE.match(token.string):
                        continue
                    match = _DISABLE_RE.match(token.string)
                    found[token.start[0]] = (
                        frozenset(code.strip() for code in match.group("codes").split(","))
                        if match
                        else None
                    )
            except tokenize.TokenError:  # pragma: no cover - ast parsed OK
                pass
            self._pragmas = found
        return self._pragmas

    def suppression_for(
        self, lineno: int
    ) -> typing.Optional[typing.Tuple[int, typing.FrozenSet[str]]]:
        """The well-formed pragma governing ``lineno``: same line, or a
        comment-only line directly above.  Returns ``(pragma line, codes)``."""
        for line in (lineno, lineno - 1):
            codes = self.pragmas.get(line)
            if codes is not None and (line == lineno or self.line_at(line).startswith("#")):
                return line, codes
        return None


class Rule:
    """Base class: one named invariant checked against a module's AST."""

    code: str = "XXX000"
    name: str = ""
    rationale: str = ""

    def check(self, module: ModuleSource, graph: CallGraph) -> typing.Iterator[Finding]:
        raise NotImplementedError


# ----------------------------------------------------------------------
# Shared AST helpers
# ----------------------------------------------------------------------
def attribute_chain(node: ast.AST) -> typing.Optional[typing.List[str]]:
    """``a.b.c`` -> ``["a", "b", "c"]``; None if not a plain chain."""
    parts: typing.List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        parts.reverse()
        return parts
    return None


def is_generator_function(
    node: typing.Union[ast.FunctionDef, ast.AsyncFunctionDef]
) -> bool:
    """Does ``node``'s own body yield (ignoring nested functions)?"""
    for child in _walk_own_body(node):
        if isinstance(child, (ast.Yield, ast.YieldFrom)):
            return True
    return False


def _walk_own_body(
    func: typing.Union[ast.FunctionDef, ast.AsyncFunctionDef]
) -> typing.Iterator[ast.AST]:
    """Walk a function's body without descending into nested functions."""
    stack: typing.List[ast.AST] = list(func.body)
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        stack.extend(ast.iter_child_nodes(node))


#: One analysis unit: ("test" | "stmt", nodes).  "test" units are
#: If/While headers — where check-then-act guards are established.
Unit = typing.Tuple[str, typing.List[ast.AST]]


def _tagged_units(body: typing.Sequence[ast.stmt]) -> typing.Iterator[Unit]:
    """Atomic analysis units in source order, If/While headers tagged.

    A simple statement is one unit.  A compound statement contributes
    its header expressions (test, iterable, context managers) as one
    unit, then its nested statements each as their own units — so a
    yield deep in a branch is sequenced where it occurs, not attributed
    to the whole branch.  Branch structure is otherwise flattened: a
    lint-grade approximation that treats every branch as taken in
    sequence.
    """
    for stmt in body:
        if isinstance(stmt, (ast.If, ast.While)):
            yield ("test", [stmt.test])
            yield from _tagged_units(stmt.body)
            yield from _tagged_units(stmt.orelse)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            yield ("stmt", [stmt.target, stmt.iter])
            yield from _tagged_units(stmt.body)
            yield from _tagged_units(stmt.orelse)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            yield (
                "stmt",
                [
                    node
                    for item in stmt.items
                    for node in (item.context_expr, item.optional_vars)
                    if node is not None
                ],
            )
            yield from _tagged_units(stmt.body)
        elif isinstance(stmt, ast.Try):
            yield from _tagged_units(stmt.body)
            for handler in stmt.handlers:
                yield from _tagged_units(handler.body)
            yield from _tagged_units(stmt.orelse)
            yield from _tagged_units(stmt.finalbody)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue  # nested scopes are analysed separately
        else:
            yield ("stmt", [stmt])


def _target_names(targets: typing.Sequence[ast.AST]) -> typing.List[str]:
    """The plain names an assignment binds, tuple elements in order."""
    names: typing.List[str] = []
    for target in targets:
        if isinstance(target, ast.Name):
            names.append(target.id)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                if isinstance(element, ast.Name):
                    names.append(element.id)
    return names


def iter_generator_functions(
    tree: ast.AST,
) -> typing.Iterator[typing.Union[ast.FunctionDef, ast.AsyncFunctionDef]]:
    """Every generator function in ``tree``, nested ones included — a
    simulated process body."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and is_generator_function(
            node
        ):
            yield node


class ImportMap:
    """Resolves names in a module back to the stdlib modules they alias.

    Tracks ``import time``, ``import time as t``, and
    ``from time import sleep`` so rules can recognise calls through any
    spelling.
    """

    def __init__(self, tree: ast.AST):
        #: local alias -> module name ("t" -> "time")
        self.module_aliases: typing.Dict[str, str] = {}
        #: local name -> (module, attr) ("sleep" -> ("time", "sleep"))
        self.from_imports: typing.Dict[str, typing.Tuple[str, str]] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    self.module_aliases[alias.asname or alias.name.split(".")[0]] = (
                        alias.name
                    )
            elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
                for alias in node.names:
                    self.from_imports[alias.asname or alias.name] = (
                        node.module,
                        alias.name,
                    )

    def resolve_call(
        self, func: ast.AST
    ) -> typing.Optional[typing.Tuple[str, str]]:
        """``(module, attr)`` for a call target, if statically known.

        ``time.sleep(...)`` -> ("time", "sleep"); a bare ``sleep(...)``
        imported via ``from time import sleep`` resolves the same way.
        """
        if isinstance(func, ast.Attribute):
            chain = attribute_chain(func)
            if chain is None or len(chain) < 2:
                return None
            module = self.module_aliases.get(chain[0])
            if module is not None:
                return module, ".".join(chain[1:])
            # ``from datetime import datetime; datetime.now()``
            origin = self.from_imports.get(chain[0])
            if origin is not None:
                return origin[0], ".".join([origin[1], *chain[1:]])
            return None
        if isinstance(func, ast.Name):
            return self.from_imports.get(func.id)
        return None


# ----------------------------------------------------------------------
# The runner
# ----------------------------------------------------------------------
class Lint001UnusedSuppression(Rule):
    """A pragma that silences nothing, or that breaks the grammar.

    Emitted by the runner, not by ``check()``: whether a pragma is used
    is only known after every rule has run over the module.
    """

    code = "LINT001"
    name = "unused-suppression"
    rationale = (
        "A disable pragma that no longer matches any finding is a "
        "silent hole: the next real violation on that line sails "
        "through review pre-approved.  Dead pragmas are deleted, not "
        "kept as decoration; a malformed one silences nothing either."
    )

    def check(self, module: ModuleSource, graph: CallGraph) -> typing.Iterator[Finding]:
        return iter(())


@dataclasses.dataclass
class LintResult:
    """Outcome of one lint run."""

    findings: typing.List[Finding]
    files_scanned: int = 0
    suppressed: int = 0
    parse_errors: typing.List[str] = dataclasses.field(default_factory=list)
    #: May-yield call-graph shape counters (:meth:`CallGraph.summary`).
    callgraph: typing.Dict[str, int] = dataclasses.field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.findings and not self.parse_errors

    def counts_by_rule(self) -> typing.Dict[str, int]:
        counts: typing.Dict[str, int] = {}
        for finding in self.findings:
            counts[finding.rule] = counts.get(finding.rule, 0) + 1
        return dict(sorted(counts.items()))


def default_rules() -> typing.List[Rule]:
    """One instance of every registered rule, in code order."""
    from repro.analysis.atomicity import Sim003StaleReadAcrossYield, Sim004CheckThenActAcrossGap
    from repro.analysis.rules_hns import Hns001CacheInsertTtl, Hns003StatNameConvention
    from repro.analysis.rules_sim import Sim001AmbientNondeterminism, Sim002BlockingCall

    return [
        Sim001AmbientNondeterminism(),
        Sim002BlockingCall(),
        Sim003StaleReadAcrossYield(),
        Sim004CheckThenActAcrossGap(),
        Hns001CacheInsertTtl(),
        Hns003StatNameConvention(),
        Lint001UnusedSuppression(),
    ]


def _lint_module(
    module: ModuleSource,
    active: typing.Sequence[Rule],
    graph: CallGraph,
    result: LintResult,
) -> None:
    """Run ``active`` over one module, folding findings into ``result``."""
    #: pragma line -> rule codes it actually silenced
    used: typing.Dict[int, typing.Set[str]] = {}
    for rule in active:
        for finding in rule.check(module, graph):
            entry = module.suppression_for(finding.line)
            if entry is not None and finding.rule in entry[1]:
                used.setdefault(entry[0], set()).add(finding.rule)
                result.suppressed += 1
            else:
                result.findings.append(finding)
    if not any(isinstance(rule, Lint001UnusedSuppression) for rule in active):
        return
    # LINT001 is deliberately immune to inline suppression: a pragma
    # cannot vouch for itself.
    for line, codes in sorted(module.pragmas.items()):
        if codes is None:
            message = (
                "malformed pragma: write '# hnslint: disable=CODE[,CODE] "
                "-- reason'; it silences nothing as written"
            )
        else:
            dead = sorted(codes - used.get(line, set()))
            if not dead:
                continue
            message = (
                f"unused suppression pragma: {', '.join(dead)} "
                "silence(s) nothing here; delete the dead code(s)"
            )
        result.findings.append(
            Finding(
                rule=Lint001UnusedSuppression.code,
                path=module.path,
                line=line,
                col=1,
                message=message,
                snippet=module.line_at(line),
            )
        )


def _lint(
    modules: typing.Sequence[ModuleSource],
    rules: typing.Optional[typing.Sequence[Rule]],
    result: LintResult,
) -> None:
    """Build the call graph over ``modules`` and run every rule on each."""
    from repro.analysis.callgraph import CallGraph

    graph = CallGraph(modules)
    result.callgraph = graph.summary()
    active = list(rules) if rules is not None else default_rules()
    for module in modules:
        _lint_module(module, active, graph, result)
    result.findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))


def lint_source(
    text: str,
    path: str = "<string>",
    rules: typing.Optional[typing.Sequence[Rule]] = None,
) -> typing.List[Finding]:
    """Lint one source string, its call graph built over it alone."""
    result = LintResult(findings=[])
    _lint([ModuleSource(path, text)], rules, result)
    return result.findings


def iter_python_files(
    paths: typing.Sequence[typing.Union[str, pathlib.Path]]
) -> typing.Iterator[pathlib.Path]:
    """Expand files/directories into the ``.py`` files under them."""
    for raw in paths:
        path = pathlib.Path(raw)
        if path.is_dir():
            yield from sorted(path.rglob("*.py"))
        elif path.suffix == ".py":
            yield path


def lint_paths(
    paths: typing.Sequence[typing.Union[str, pathlib.Path]],
    rules: typing.Optional[typing.Sequence[Rule]] = None,
) -> LintResult:
    """Lint every ``.py`` file under ``paths``.

    Every module is parsed first and one may-yield call graph is built
    over the whole set, so a ``yield from`` into another linted module
    resolves.  Inline suppressions are counted in ``suppressed``;
    anything left in ``findings`` should fail CI.
    """
    result = LintResult(findings=[])
    modules: typing.List[ModuleSource] = []
    for path in iter_python_files(paths):
        try:
            module = ModuleSource(str(path), path.read_text(encoding="utf-8"))
        except (SyntaxError, UnicodeDecodeError) as err:
            result.parse_errors.append(f"{path}: {err}")
            continue
        result.files_scanned += 1
        modules.append(module)
    _lint(modules, rules, result)
    return result


if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.analysis.callgraph import CallGraph
