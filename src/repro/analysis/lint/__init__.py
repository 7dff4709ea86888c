"""`repro lint`: invariant-checking static analysis for this repository.

Every scaling PR rests on contracts that are otherwise only checked
*dynamically* — bit-identical RNG draw order across the serial and
distributed executors, pickle-safe checkpoint state, wire-schema and
spec↔CLI consistency.  A violation is caught (if at all) by an expensive
differential test long after the offending line was written.  This package
proves those invariants over the *program structure* instead: an
AST-walking rule engine that fails in seconds, wired into CI and into the
tier-1 test suite (``tests/analysis/test_repo_clean.py``).

Layout:

* :mod:`~repro.analysis.lint.engine` — module loading, plane detection,
  inline ``# repro-lint: disable=RULE`` suppressions, rule driver;
* :mod:`~repro.analysis.lint.baseline` — the committed grandfather file
  (``lint-baseline.json``): content-addressed entries with justifications;
* :mod:`~repro.analysis.lint.rules_determinism` — RNG discipline,
  wall-clock reads, nondeterministic ``set`` iteration;
* :mod:`~repro.analysis.lint.rules_concurrency` — checkpoint pickle
  safety, lock-scope hygiene;
* :mod:`~repro.analysis.lint.rules_registry` — wire-schema verb
  consistency, spec/CLI drift, metric naming/documentation;
* :mod:`~repro.analysis.lint.cli` — the ``repro lint`` subcommand
  (exit 0 clean / 1 findings).

The rule catalog, the suppression workflow and the baseline format are
documented in ``docs/ANALYSIS.md``.
"""

from __future__ import annotations

from repro.analysis.lint.baseline import Baseline, BaselineEntry
from repro.analysis.lint.engine import (
    Finding,
    LintResult,
    Module,
    Project,
    Rule,
    run_lint,
)
from repro.analysis.lint.rules import all_rules, rule_names

__all__ = [
    "Baseline",
    "BaselineEntry",
    "Finding",
    "LintResult",
    "Module",
    "Project",
    "Rule",
    "all_rules",
    "rule_names",
    "run_lint",
]
