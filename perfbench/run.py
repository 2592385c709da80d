"""The repo benchmark: closed-batch composition sweeps through repro's
public drivers, checked against committed references.

Run from the root of a checkout::

    python3 perfbench/run.py --workload detail_sweep --seed 2007 \
        --seconds 40 --trace 0

``--trace 0`` runs the workload's batch in a fresh interpreter
(``batch.py``), again while the next one still fits in ``--seconds``
(at least once), and reports the end-to-end metrics.  ``--trace 1``
runs, in this process, one pooled batch with the executor's parent side
wrapped and then the same specs in-process with every layer wrapped,
and reports the per-layer metrics.  The last line of standard output is
one JSON object; everything before it is for people.  See
perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import bootstrap

#: End-to-end metrics of ``--trace 0``: (name, unit).
END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("sim_kips", "kinst/s"),
              ("peak_rss_mb", "MB"))
#: Printed beside them; 0 or undefined on some workloads.
FIDELITY_UNITS = {"cycle_err_pct": "%", "best_miss": "count",
                  "best_loss_pct": "%"}
#: Set-ups timed per run at least; ``setup_s`` is their median.
MIN_SETUPS = 9
WORKLOADS = ("detail_sweep", "ff_sweep", "search_best")


def source_id() -> dict:
    """The commit sha when the checkout is a git repository, and always
    a digest of the ``src/`` tree, so a result set can be matched to
    the code that produced it."""
    h = hashlib.sha256()
    for path in sorted(bootstrap.SRC.rglob("*.py")):
        h.update(str(path.relative_to(bootstrap.SRC)).encode())
        h.update(path.read_bytes())
    sha = None
    if (bootstrap.ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=bootstrap.ROOT,
                capture_output=True, text=True, timeout=10,
                check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            sha = None
    return {"sha": sha, "src_sha256": h.hexdigest()[:16]}


def spawn_batch(workload: str, seed: int, setup_only: bool) -> tuple:
    """Run ``batch.py`` in a fresh interpreter: ``(setup_s, record)``.

    Set-up runs from just before the spawn to the child's first driver
    call; both ends read the system-wide monotonic clock.  The wait
    blocks without a timeout, because subprocess's timed wait polls in
    steps of up to 50 ms and would quantize the measurement.
    """
    cmd = [sys.executable, str(bootstrap.HERE / "batch.py"),
           "--workload", workload, "--seed", str(seed)]
    if setup_only:
        cmd.append("--setup-only")
    spawned = time.monotonic()
    proc = subprocess.run(cmd, cwd=bootstrap.ROOT, stdout=subprocess.PIPE,
                          text=True)
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: batch process exited with "
                         f"{proc.returncode}")
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    return record["ready"] - spawned, record


def emit(correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    print(json.dumps({
        "correct": correct, "attempted": max(1, attempted), "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))


def save_result_set(name: str, record: dict) -> None:
    bootstrap.OUT.mkdir(exist_ok=True)
    with open(bootstrap.OUT / name, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)


def run_untraced(args, ident) -> int:
    setups, batches = [], []
    started = time.monotonic()
    while True:
        setup, record = spawn_batch(args.workload, args.seed, False)
        setups.append(setup)
        batches.append(record)
        if time.monotonic() - started + record["wall_s"] > args.seconds:
            break
    while len(setups) < MIN_SETUPS:
        setups.append(spawn_batch(args.workload, args.seed, True)[0])

    failures = [f for b in batches for f in b["failures"]]
    attempted = sum(b["attempted"] for b in batches)
    insts = sorted({b["insts"] for b in batches})
    if len(insts) != 1:
        failures.append(f"simulated instructions differ between batches: "
                        f"{insts}")
    walls = [b["wall_s"] for b in batches]
    rss = [b["peak_rss_mb"] for b in batches]
    wall = statistics.median(walls)
    metrics = {
        "wall_s": (wall, "s"),
        "setup_s": (statistics.median(setups), "s"),
        "sim_kips": (insts[-1] / wall / 1000.0, "kinst/s"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
    }
    samples = {"wall_s": len(walls), "setup_s": len(setups),
               "sim_kips": len(walls), "peak_rss_mb": len(rss)}
    failed_frac = len(failures) / max(1, attempted)
    fidelity = batches[0]["fidelity"]

    print(f"perfbench {args.workload}: seed {args.seed}, sha "
          f"{ident['sha'] or 'n/a'}, src {ident['src_sha256']}, "
          f"{len(batches)} batch(es) of {batches[0]['jobs']} jobs")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<14} {value:12.4f} {unit:<8} (n={samples[name]})")
    print(f"  {'failed_frac':<14} {failed_frac:12.4f} {'ratio':<8} "
          f"(n={attempted})")
    for name, value in fidelity.items():
        print(f"  {name:<14} {value:12.4f} {FIDELITY_UNITS[name]:<8} (n=1)")
    unverified = batches[0]["unverified"]
    if unverified:
        print(f"  {unverified} job(s) have no reference: search rungs the "
              f"reference run did not take")
    for failure in failures[:20]:
        print(f"  FAIL {failure}")
    print(f"  batch walls {', '.join(f'{w:.3f}' for w in walls)} s; "
          f"set-ups {', '.join(f'{s:.3f}' for s in setups)} s")
    save_result_set(f"{args.workload}-seed{args.seed}-trace0.json", {
        "workload": args.workload, "seed": args.seed, **ident,
        "walls_s": walls, "setups_s": setups, "peak_rss_mb": rss,
        "metrics": {k: v[0] for k, v in metrics.items()},
        "failed_frac": failed_frac, "fidelity": fidelity,
        "failures": failures})
    emit(not failures, attempted, len(failures), metrics)
    return 0


def traced_metrics(workload: str, seed: int) -> tuple:
    """One traced run: ``(metrics, gate)``; span files go to
    ``.perfbench-out/``."""
    import layers
    from refs import Gate
    from spans import Recorder
    from workloads import JOBS, run_batch

    scratch = bootstrap.SCRATCH / f"trace-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    gate = Gate(workload)
    pool_rec, serial_rec = Recorder(), Recorder()
    try:
        layers.install_exec(pool_rec)
        try:
            pooled = run_batch(workload, seed, JOBS, scratch, pool_rec)
        finally:
            pool_rec.restore()
        layers.install_all(serial_rec)
        try:
            serial = run_batch(workload, seed, 1, scratch, serial_rec)
        finally:
            serial_rec.restore()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    gate.check(pooled)
    gate.check(serial)

    values = {}
    values.update(layers.simulator_metrics(serial_rec))
    values.update(layers.exec_metrics(pool_rec, pooled.wall_s, JOBS))
    values.update(layers.search_metrics(serial.fig_best))
    # Tracing overhead, job by job: the same simulations timed traced
    # (in-process spans) against untraced (pool service times).
    service = sum(pool_rec.samples.get("service_s", []))
    overhead = serial_rec.total_s("harness.simulate_spec") - service
    values.update({
        "trace.pool_wall_s": pooled.wall_s,
        "trace.serial_wall_s": serial.wall_s,
        "trace.overhead_s": overhead,
        "trace.overhead_pct": 100.0 * overhead / service if service else 0.0,
    })
    metrics = {name: (values[name], unit) for name, unit in layers.PER_LAYER}

    out = bootstrap.OUT
    out.mkdir(exist_ok=True)
    header = {"workload": workload, "seed": seed, **source_id()}
    pool_rec.dump(out / f"spans-{workload}-seed{seed}-pool.jsonl",
                  {**header, "phase": "pool", "jobs": JOBS,
                   "wall_s": pooled.wall_s})
    serial_rec.dump(out / f"spans-{workload}-seed{seed}-serial.jsonl",
                    {**header, "phase": "serial", "jobs": 1,
                     "wall_s": serial.wall_s})
    return metrics, gate


def run_traced(args, ident) -> int:
    import layers
    import refs

    metrics, gate = traced_metrics(args.workload, args.seed)
    print(f"perfbench {args.workload} (traced): seed {args.seed}, sha "
          f"{ident['sha'] or 'n/a'}, src {ident['src_sha256']}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<26} {value:16.6f} {unit}")
    expected = refs.load("counts.json").get(args.workload, {})
    drift = [f"{name} {metrics[name][0]} (reference {expected[name]})"
             for name in layers.EXACT_COUNTS
             if name in expected and metrics[name][0] != expected[name]]
    print("  exact counts: " + ("match the reference" if not drift
                                else "differ: " + "; ".join(drift)))
    print(f"  tracing overhead: {metrics['trace.overhead_s'][0]:.3f} s "
          f"({metrics['trace.overhead_pct'][0]:.1f} %): traced in-process "
          f"job time minus untraced pool service time of the same jobs; "
          f"the pooled batch with exec spans took "
          f"{metrics['trace.pool_wall_s'][0]:.3f} s")
    for failure in gate.failures[:20]:
        print(f"  FAIL {failure}")
    save_result_set(f"{args.workload}-seed{args.seed}-trace1.json", {
        "workload": args.workload, "seed": args.seed, **ident,
        "metrics": {k: v[0] for k, v in metrics.items()},
        "count_drift": drift, "failures": gate.failures})
    emit(not gate.failures, gate.attempted, len(gate.failures), metrics)
    return 0


def check_declared(trace: int) -> None:
    """The metrics printed must be exactly those BENCHMARK.json declares."""
    import layers

    emitted = layers.PER_LAYER if trace else END_TO_END
    declared = json.loads((bootstrap.ROOT / "BENCHMARK.json")
                          .read_text(encoding="utf-8"))
    section = "per_layer" if trace else "end_to_end"
    if ([(m["name"], m["unit"]) for m in declared[section]]
            != [tuple(m) for m in emitted]):
        raise SystemExit(f"perfbench: metrics drifted from BENCHMARK.json "
                         f"{section}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=2007)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    bootstrap.use_repo_source()
    check_declared(args.trace)
    ident = source_id()
    if args.trace:
        return run_traced(args, ident)
    return run_untraced(args, ident)


if __name__ == "__main__":
    raise SystemExit(main())
