"""hnslint: repo-specific static analysis + the scenario pass.

Two halves, one gate:

- **Static** (:mod:`~repro.analysis.core`, ``rules_sim``, ``rules_hns``,
  ``atomicity``): an AST lint pass encoding this repository's
  invariants — SIM001 no wall-clock/ambient randomness, SIM002 no
  blocking calls in process generators, SIM003 no stale captures and
  SIM004 no check-then-act across a may-yield gap (backed by the call
  graph in :mod:`~repro.analysis.callgraph`), HNS001 TTL-tagged cache
  inserts, HNS003 dotted stats names.  Inline
  ``# hnslint: disable=CODE -- reason`` pragmas carry the intentional
  exceptions; LINT001 flags pragmas that are malformed or no longer
  silence anything.

- **Runtime** (:mod:`~repro.analysis.determinism`): the scenario pass —
  every registered scenario run plain, replayed, traced and twice
  schedule-perturbed (:mod:`~repro.analysis.perturb`), each replay
  checked digest for digest.

Run it as ``python -m repro.analysis src/repro``; ``--scenarios`` adds
the runtime half, and ``--format json`` emits the stable
machine-readable report CI diffs across revisions.
"""

from repro.lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "atomicity": ("Sim003StaleReadAcrossYield", "Sim004CheckThenActAcrossGap"),
    "callgraph": ("CallGraph",),
    "core": (
        "Finding", "LintResult", "ModuleSource", "Rule", "default_rules", "lint_paths",
        "lint_source",
    ),
    "determinism": ("ScenarioCheck", "ScenarioPass", "check_scenario", "check_scenarios"),
    "perturb": ("derive_seed", "perturbed"),
    "report": ("render_json", "render_text"),
})
