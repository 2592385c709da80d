"""Lint orchestration: scan a tree and run the passes.

The entry point is :func:`run_lint`, which `repro lint` and the tests
share.  Exit-code contract (``LintReport.exit_code``):

* ``0`` — clean (no findings)
* ``1`` — at least one finding
* ``3`` — internal analysis error (:class:`LintError`) — raised, and
  mapped to 3 by the CLI

``2`` is reserved for argparse usage errors (argparse's own exit code).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from repro.analysis.determinism import check_determinism
from repro.analysis.findings import SEVERITIES, sort_findings
from repro.analysis.obsnames import check_obs_names
from repro.analysis.source import iter_modules

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
    "REP4": check_obs_names,
}


@dataclass
class LintContext:
    """Configuration shared by the passes (tests override freely)."""

    sim_paths: tuple = DEFAULT_SIM_PATHS
    events: frozenset = None
    metrics: frozenset = None

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
    findings: list

    @property
    def exit_code(self) -> int:
        return 1 if self.findings else 0

    def counts(self) -> dict:
        out = {sev: 0 for sev in SEVERITIES}
        for finding in self.findings:
            out[finding.severity] = out.get(finding.severity, 0) + 1
        return out

    def render_text(self) -> str:
        lines = [finding.render() for finding in self.findings]
        counts = self.counts()
        summary = ", ".join(f"{counts[s]} {s}" for s in SEVERITIES
                            if counts.get(s))
        lines.append(f"repro lint: {len(self.findings)} finding(s)"
                     + (f" ({summary})" if summary else ""))
        return "\n".join(lines)

    def to_json(self) -> str:
        payload = {
            "version": 2,
            "root": self.root,
            "summary": {"total": len(self.findings), **self.counts()},
            "findings": [f.to_dict() for f in self.findings],
        }
        return json.dumps(payload, indent=2, sort_keys=True)


def run_lint(root, ctx: Optional[LintContext] = None) -> LintReport:
    """Scan ``root`` (normally ``src/repro``) with every pass and return
    a :class:`LintReport`; ``ctx`` defaults to the repo configuration."""
    root = Path(root)
    ctx = ctx if ctx is not None else LintContext()
    modules = iter_modules(root)
    findings: list = []
    for check in PASSES.values():
        findings.extend(check(modules, ctx))
    return LintReport(root=str(root), findings=sort_findings(findings))
