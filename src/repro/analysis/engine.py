"""Lint orchestration: scan a tree, run the passes, apply a baseline.

The entry point is :func:`run_lint`, which `repro lint` and the tests
share.  Exit-code contract (``LintReport.exit_code``):

* ``0`` — clean (no findings outside the baseline)
* ``1`` — at least one non-baseline finding
* ``3`` — internal analysis error (:class:`LintError`) — raised, and
  mapped to 3 by the CLI

``2`` is reserved for argparse usage errors (argparse's own exit code).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from repro.analysis import baseline as baseline_mod
from repro.analysis.determinism import check_determinism
from repro.analysis.findings import SEVERITIES, Finding, sort_findings
from repro.analysis.hashaxes import DEFAULT_HASH_SURFACES, check_hash_axes
from repro.analysis.obsnames import check_obs_names
from repro.analysis.source import LintError, iter_modules

#: Path prefixes (relative, ``repro/...``) subject to the strict
#: determinism rules REP201–203.  Everything else may read wall clocks
#: (exec scheduling, obs, harness timing, the CLI).
DEFAULT_SIM_PATHS = (
    "repro/tflex/", "repro/isa/", "repro/risc/", "repro/mem/",
    "repro/noc/", "repro/lsq/", "repro/predictor/", "repro/sample/",
    "repro/search/", "repro/resil/", "repro/workloads/",
    "repro/compiler/", "repro/power/", "repro/sched/",
    "repro/exec/spec.py",
)

#: Rule family -> the pass that emits it, in report order.
PASSES = {
    "REP2": check_determinism,
    "REP3": check_hash_axes,
    "REP4": check_obs_names,
}


@dataclass
class LintContext:
    """Configuration shared by the passes (tests override freely)."""

    sim_paths: tuple = DEFAULT_SIM_PATHS
    hash_surfaces: dict = field(
        default_factory=lambda: dict(DEFAULT_HASH_SURFACES))
    events: frozenset = None
    metrics: frozenset = None
    doc_text: Optional[str] = None

    def __post_init__(self):
        if self.events is None or self.metrics is None:
            from repro.obs import schema
            if self.events is None:
                self.events = schema.EVENT_NAMES
            if self.metrics is None:
                self.metrics = schema.METRIC_NAMES

    def in_sim_scope(self, relpath: str) -> bool:
        return any(relpath == p or relpath.startswith(p)
                   for p in self.sim_paths)


@dataclass
class LintReport:
    """Everything a caller needs to render or gate on."""

    root: str
    findings: list            # non-baseline findings (what fails CI)
    grandfathered: list       # matched a baseline entry
    stale_baseline: list      # baseline entries no finding matched
    rules_run: tuple

    @property
    def exit_code(self) -> int:
        return 1 if self.findings else 0

    def counts(self) -> dict:
        out = {sev: 0 for sev in SEVERITIES}
        for finding in self.findings:
            out[finding.severity] = out.get(finding.severity, 0) + 1
        return out

    def render_text(self) -> str:
        lines = []
        for finding in self.findings:
            lines.append(finding.render())
        counts = self.counts()
        total = len(self.findings)
        summary = ", ".join(f"{counts[s]} {s}" for s in SEVERITIES
                            if counts.get(s))
        lines.append(f"repro lint: {total} finding(s)"
                     + (f" ({summary})" if summary else "")
                     + (f", {len(self.grandfathered)} grandfathered"
                        if self.grandfathered else ""))
        if self.stale_baseline:
            lines.append(f"warning: {len(self.stale_baseline)} stale "
                         "baseline entr(y/ies) no longer match — prune them:")
            for entry in self.stale_baseline:
                lines.append(f"    {entry['rule']} {entry['file']}: "
                             f"{entry['message']}")
        return "\n".join(lines)

    def to_json(self) -> str:
        payload = {
            "version": 1,
            "root": self.root,
            "rules_run": list(self.rules_run),
            "summary": {"total": len(self.findings), **self.counts(),
                        "grandfathered": len(self.grandfathered),
                        "stale_baseline": len(self.stale_baseline)},
            "findings": [f.to_dict() for f in self.findings],
            "grandfathered": [f.to_dict() for f in self.grandfathered],
            "stale_baseline": self.stale_baseline,
        }
        return json.dumps(payload, indent=2, sort_keys=True)


def selected_families(rules) -> tuple:
    """Pass families a ``--rules`` selection runs: a family runs when a
    selected id is inside it (``REP204``) or a prefix of it (``REP``).
    No selection runs every family."""
    return tuple(family for family in PASSES
                 if not rules or any(r.startswith(family)
                                     or family.startswith(r)
                                     for r in rules))


def _run_passes(modules, ctx: LintContext, rules, families) -> list:
    findings: list = []
    for family in families:
        findings.extend(PASSES[family](modules, ctx))
    if rules:
        findings = [f for f in findings
                    if any(f.rule.startswith(r) for r in rules)]
    return findings


def run_lint(root, ctx: Optional[LintContext] = None,
             baseline_path=None, rules=None) -> LintReport:
    """Scan ``root`` and return a :class:`LintReport`.

    Args:
        root: Directory to scan (normally ``src/repro``).
        ctx: Pass configuration; defaults to the repo configuration.
        baseline_path: Optional grandfathering file.
        rules: Optional iterable of rule-id prefixes to restrict to.
    """
    root = Path(root)
    if ctx is None:
        ctx = LintContext()
        # A scan of src/repro sits two levels below the repo root; pick
        # up docs/OBSERVABILITY.md for the REP403 cross-check if it is
        # where the repo keeps it.
        doc = root.parent.parent / "docs" / "OBSERVABILITY.md"
        if doc.is_file():
            ctx.doc_text = doc.read_text(encoding="utf-8")
    modules = iter_modules(root)
    rules = tuple(rules) if rules else ()
    families = selected_families(rules)
    findings = sort_findings(_run_passes(modules, ctx, rules, families))
    grandfathered: list = []
    stale: list = []
    if baseline_path is not None:
        entries = baseline_mod.load_baseline(baseline_path)
        findings, grandfathered, stale = baseline_mod.apply_baseline(
            findings, entries)
    return LintReport(root=str(root), findings=findings,
                      grandfathered=grandfathered, stale_baseline=stale,
                      rules_run=families)
