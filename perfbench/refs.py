"""Committed references and the correctness gate that checks against them.

References live in ``perfbench/ref/``:

* ``digests.json`` — a digest of every job's result payload, per
  workload, plus the payload keys the digest covers;
* ``best.json`` — the exhaustive BEST label and score per kernel and
  objective (the argmax of figures 6, 7 and 8 over the full sweep);
* ``ff_detail_cycles.json`` — full-detail cycles of the ``ff_sweep``
  specs, the reference of ``cycle_err_pct``;
* ``durations_detail.json``, ``durations_search.json`` — the duration
  books ``detail_sweep`` and ``search_best`` start from;
* ``counts.json`` — the exact per-layer counts of a traced run.

Regenerate them (only when an intended change moves the outputs) with::

    python3 perfbench/refs.py outputs     # digests, BEST, books (~2 min)
    python3 perfbench/refs.py ff-detail   # ~20 min on 2 cores
    python3 perfbench/refs.py counts      # traced runs (~5 min)
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import sys

import bootstrap

REF = bootstrap.HERE / "ref"

#: Fields compared between the detail-sweep payloads of the golden
#: kernels and the golden fixture of figure 6.
GOLDEN_FIELDS = ("cycles", "insts_committed", "dram_requests", "stats")


def load(name: str) -> dict:
    with open(REF / name, encoding="utf-8") as handle:
        return json.load(handle)


def write(name: str, data: dict) -> None:
    REF.mkdir(exist_ok=True)
    with open(REF / name, "w", encoding="utf-8") as handle:
        json.dump(data, handle, indent=1, sort_keys=True)
        handle.write("\n")


# ----------------------------------------------------------------------
# Digests
# ----------------------------------------------------------------------

def projection_of(payloads) -> dict:
    """The payload keys a digest covers: every result and stats key
    present when the references were made.  Keys a later change adds
    are left out, so a new payload field does not void the references;
    a changed or missing value still does."""
    result_keys, stats_keys = set(), set()
    for payload in payloads:
        result_keys.update(payload["result"])
        stats_keys.update(payload["result"].get("stats", {}))
    return {"result": sorted(result_keys), "stats": sorted(stats_keys)}


def digest(payload: dict, projection: dict) -> str:
    result = payload["result"]
    kept = {k: result[k] for k in projection["result"] if k in result}
    if "stats" in kept:
        stats = kept["stats"]
        kept["stats"] = {k: stats[k] for k in projection["stats"]
                         if k in stats}
    text = json.dumps({"kind": payload["kind"], "result": kept},
                      sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:24]


def check_payloads(workload: str, payloads: dict, refs: dict) -> tuple:
    """``(attempted, failures, unverified)`` for one batch's payloads.

    ``detail_sweep`` and ``ff_sweep`` run a fixed job set: a missing,
    unexpected or differing job fails.  ``search_best`` runs whatever
    its rungs promote; every job it runs that has a reference (its own,
    or the detail sweep's for full-detail jobs) must match, and the
    rest are counted as unverified.
    """
    projection = refs["projection"]
    known = dict(refs["workloads"][workload])
    fixed = workload != "search_best"
    if not fixed:
        known.update(refs["workloads"]["detail_sweep"])
    failures, unverified = [], 0
    for key, payload in sorted(payloads.items()):
        want = known.get(key)
        if want is None:
            if fixed:
                failures.append(f"{key}: not in the reference job set")
            else:
                unverified += 1
        elif digest(payload, projection) != want:
            failures.append(f"{key}: payload differs from the reference")
    attempted = len(payloads)
    if fixed:
        missing = sorted(set(known) - set(payloads))
        failures += [f"{key}: no result" for key in missing]
        attempted += len(missing)
    return attempted, failures, unverified


# ----------------------------------------------------------------------
# BEST labels and fidelity
# ----------------------------------------------------------------------

def exhaustive_best(fig6, fig7, fig8) -> dict:
    """objective -> bench -> {label, score}: the argmax over the full
    detailed sweep, scored with the search's own objective functions."""
    from repro.search import get_objective

    drivers = {"speedup": fig6, "perf_per_area": fig7,
               "perf2_per_watt": fig8}
    best = {}
    for name, fig in drivers.items():
        objective = get_objective(name)
        best[name] = {}
        for bench in fig6.benchmarks:
            label = fig.best_label(bench)
            best[name][bench] = {"label": label,
                                 "score": objective(fig6.runs[bench][label])}
    return best


def best_label_failures(fig6, fig7, fig8, ref: dict) -> list:
    derived = exhaustive_best(fig6, fig7, fig8)
    return [f"BEST {obj}/{bench}: {derived[obj][bench]['label']} "
            f"!= reference {want['label']}"
            for obj, per_bench in sorted(ref.items())
            for bench, want in sorted(per_bench.items())
            if derived[obj][bench]["label"] != want["label"]]


def best_fidelity(fig_best, ref: dict) -> tuple:
    """``(best_miss, best_loss_pct, pairs)`` of a search against the
    exhaustive BEST: pairs whose label differs, and the mean objective
    lost over all pairs."""
    misses, losses = 0, []
    for obj, per_bench in ref.items():
        search = fig_best.searches[obj]
        for bench, want in per_bench.items():
            got = search.per_bench[bench]
            if got.best_label != want["label"]:
                misses += 1
            losses.append(100.0 * (1.0 - got.best_score / want["score"]))
    return misses, sum(losses) / len(losses), len(losses)


def cycle_error_pct(payloads: dict, detail_cycles: dict) -> float:
    """Mean |sampled - full-detail| / full-detail cycles, in percent."""
    errors = [abs(payloads[key]["result"]["cycles"] - cycles) / cycles
              for key, cycles in detail_cycles.items() if key in payloads]
    return 100.0 * sum(errors) / len(errors) if errors else 0.0


class Gate:
    """Checks batches of one workload against the references and keeps
    the tally.  ``attempted`` counts jobs, plus on ``detail_sweep`` the
    BEST labels cross-checked; every entry of ``failures`` is one failed
    job or label."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.digests = load("digests.json")
        self.best = load("best.json")
        self.attempted = 0
        self.failures: list = []
        self.unverified = 0

    def check(self, batch) -> None:
        from specs import job_key

        attempted, failures, unverified = check_payloads(
            self.workload, batch.payloads, self.digests)
        failed = {job_key(o.spec) for o in batch.outcomes if not o.ok}
        failures += [f"{key}: job failed in the pool"
                     for key in sorted(failed)
                     if not any(f.startswith(key + ":") for f in failures)]
        if batch.fig6 is not None:
            attempted += sum(len(b) for b in self.best.values())
            failures += best_label_failures(*batch.fig6, self.best)
        self.attempted += attempted
        self.failures += failures
        self.unverified += unverified

    def fidelity(self, batch) -> dict:
        """The workload's fidelity figures against the exhaustive
        references: name -> value."""
        if self.workload == "ff_sweep":
            detail = load("ff_detail_cycles.json")["cycles"]
            return {"cycle_err_pct": cycle_error_pct(batch.payloads, detail)}
        if self.workload == "search_best":
            miss, loss, __ = best_fidelity(batch.fig_best, self.best)
            return {"best_miss": miss, "best_loss_pct": loss}
        return {}


# ----------------------------------------------------------------------
# Regeneration
# ----------------------------------------------------------------------

def _scratch() -> pathlib.Path:
    bootstrap.SCRATCH.mkdir(exist_ok=True)
    return bootstrap.SCRATCH


def _golden_agrees(fig6) -> None:
    """The golden-kernel part of the detail sweep must equal the
    committed figure-6 golden fixture."""
    fixture = json.loads((bootstrap.ROOT / "tests" / "golden" / "fig6.json")
                         .read_text(encoding="utf-8"))
    for bench in fixture["benchmarks"]:
        for label, cycles in fixture["cycles"][bench].items():
            run = fig6.runs[bench][label].to_dict()
            for name in GOLDEN_FIELDS:
                if run[name] != fixture[name][bench][label]:
                    raise SystemExit(f"{bench}/{label}: {name} differs from "
                                     f"tests/golden/fig6.json")


def regenerate_outputs() -> None:
    import shutil

    from repro.exec.sched import BOOK_NAME

    from run import WORKLOADS
    from workloads import (JOBS, PRIMED_BOOKS, Batch, drive, fresh_stores,
                           read_payloads)

    payload_sets, batches = {}, {}
    # Each workload runs once from a cold book; the book it leaves is the
    # one its later runs are primed with, where they are primed.
    for workload in WORKLOADS:
        batch = batches[workload] = Batch(workload)
        with fresh_stores(_scratch(), None) as results:
            drive(workload, JOBS, 2007, batch)
            payload_sets[workload] = read_payloads(results)
            if workload in PRIMED_BOOKS:
                shutil.copyfile(results / BOOK_NAME, PRIMED_BOOKS[workload])
    fig6, fig7, fig8 = batches["detail_sweep"].fig6
    _golden_agrees(fig6)
    write("best.json", exhaustive_best(fig6, fig7, fig8))
    projection = projection_of(p for payloads in payload_sets.values()
                               for p in payloads.values())
    digests = {workload: {key: digest(p, projection)
                          for key, p in sorted(payloads.items())}
               for workload, payloads in payload_sets.items()}
    write("digests.json", {"projection": projection, "workloads": digests,
                           "golden_fig6_agrees": True})


def regenerate_ff_detail() -> None:
    from repro.harness.runner import configure_cache, prewarm_specs

    from specs import ff_sweep_specs, job_key
    from workloads import JOBS, fresh_stores

    twins = dict(zip(ff_sweep_specs(sampled=False),
                     ff_sweep_specs(sampled=True)))
    cycles = {}
    with fresh_stores(_scratch(), None):
        for outcome in prewarm_specs(list(twins), jobs=JOBS):
            if not outcome.ok:
                raise SystemExit(f"{outcome.spec.label()}: {outcome.error}")
            cycles[job_key(twins[outcome.spec])] = (
                outcome.payload["result"]["cycles"])
    configure_cache(enabled=False)
    write("ff_detail_cycles.json", {
        "command": "python3 perfbench/refs.py ff-detail",
        "cycles": cycles})


def regenerate_counts() -> None:
    from layers import EXACT_COUNTS
    from run import WORKLOADS, traced_metrics

    counts = {}
    for workload in WORKLOADS:
        metrics, __ = traced_metrics(workload, 2007)
        counts[workload] = {name: metrics[name][0] for name in EXACT_COUNTS}
    write("counts.json", counts)


def main(argv) -> int:
    commands = {"outputs": regenerate_outputs,
                "ff-detail": regenerate_ff_detail,
                "counts": regenerate_counts}
    if len(argv) != 1 or argv[0] not in commands:
        sys.stderr.write(f"usage: refs.py {{{'|'.join(commands)}}}\n")
        return 2
    commands[argv[0]]()
    return 0


if __name__ == "__main__":
    bootstrap.use_repo_source()
    raise SystemExit(main(sys.argv[1:]))
