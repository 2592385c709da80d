"""Which public functions each measured layer is timed through, and the
per-layer metrics derived from the recorded spans.

Two recorders serve one traced run:

* the *pool* recorder wraps only the parent side of the executor
  (:func:`install_exec`) during a pooled ``jobs=2`` batch, so the
  ``exec`` layer is seen exactly as an untraced run drives it;
* the *serial* recorder wraps every layer (:func:`install_all`) while
  the same specs run in-process with ``jobs=1``, so simulator-layer
  spans are recorded in the process that owns them.
"""

from __future__ import annotations

import statistics

import repro.harness.runner as runner
import repro.sample.trace as trace
import repro.search as search_pkg
from repro.exec.pool import WorkerPool
from repro.exec.store import ResultStore
from repro.isa.interp import Interpreter
from repro.lsq.bank import LsqBank
from repro.mem.cache import CacheBank
from repro.mem.l2 import L2System
from repro.noc.mesh import Network
from repro.predictor.bank import PredictorBank
from repro.sample.shadow import ShadowUarch
from repro.tflex.system import TFlexSystem
from repro.workloads.suite import Benchmark

from specs import job_key

#: Every per-layer metric, in report order: (name, unit).
PER_LAYER = (
    ("tflex.run_s", "s"), ("tflex.self_s", "s"), ("tflex.build_s", "s"),
    ("tflex.events", "count"), ("tflex.events_per_inst", "events/inst"),
    ("tflex.useful_block_ratio", "ratio"),
    ("noc.delay_calls", "count"), ("noc.self_s", "s"),
    ("lsq.calls", "count"), ("lsq.self_s", "s"), ("lsq.violations", "count"),
    ("mem.l1_accesses", "count"), ("mem.l1_hit_ratio", "ratio"),
    ("mem.l2_calls", "count"), ("mem.self_s", "s"),
    ("predictor.calls", "count"), ("predictor.self_s", "s"),
    ("predictor.accuracy", "ratio"),
    ("isa.ff_blocks", "count"), ("isa.interp_s", "s"),
    ("isa.blocks_per_s", "1/s"),
    ("sample.shadow_calls", "count"), ("sample.shadow_s", "s"),
    ("sample.records", "count"), ("sample.replays", "count"),
    ("sample.mismatches", "count"), ("sample.replay_ratio", "ratio"),
    ("sample.trace_io_s", "s"), ("sample.trace_bytes", "bytes"),
    ("exec.pool_start_s", "s"), ("exec.dispatches", "count"),
    ("exec.service_p50_s", "s"), ("exec.service_tail_s", "s"),
    ("exec.busy_frac", "ratio"), ("exec.retries", "count"),
    ("exec.respawns", "count"), ("exec.store_writes", "count"),
    ("exec.store_write_s", "s"), ("exec.store_reads", "count"),
    ("harness.sims", "count"), ("harness.mem_hits", "count"),
    ("harness.build_s", "s"),
    ("search.evals_coarse", "count"), ("search.evals_fine", "count"),
    ("search.evals_detail", "count"), ("search.detailed_jobs", "count"),
    ("search.self_s", "s"),
    ("trace.pool_wall_s", "s"), ("trace.serial_wall_s", "s"),
    ("trace.overhead_s", "s"), ("trace.overhead_pct", "%"),
)

#: Counts that must repeat exactly from run to run (and seed to seed).
EXACT_COUNTS = ("tflex.events", "tflex.events_per_inst", "noc.delay_calls",
                "isa.ff_blocks", "sample.replays", "search.detailed_jobs",
                "exec.dispatches")


# ----------------------------------------------------------------------
# Hooks
# ----------------------------------------------------------------------

def _system_counters(args) -> tuple:
    system = args[0]
    procs = system.procs
    return (system.queue.events_processed,
            sum(p.stats.insts_committed for p in procs),
            sum(p.stats.blocks_committed for p in procs),
            sum(p.stats.blocks_fetched for p in procs))


def _after_run(rec, args, result, before) -> None:
    after = _system_counters(args)
    for name, b, a in zip(("tflex.events", "tflex.insts",
                           "tflex.blocks_committed", "tflex.blocks_fetched"),
                          before, after):
        rec.counts[name] += a - b


def _after_store(rec, args, result, before) -> None:
    if result.violation_gseq is not None:
        rec.counts["lsq.violations"] += 1


def _after_access(rec, args, hit, before) -> None:
    if not args[0].name.startswith("l2"):
        rec.counts["mem.l1_accesses"] += 1
        rec.counts["mem.l1_hits"] += hit


def _after_update(rec, args, result, before) -> None:
    prediction, actual_target = args[1], args[4]
    rec.counts["predictor.updates"] += 1
    rec.counts["predictor.correct"] += prediction.next_addr == actual_target


def _after_open_session(rec, args, session, before) -> None:
    if session is not None:
        rec.counts[f"sample.{session.mode}s"] += 1


def _was_live(args) -> bool:
    return args[0].live


def _after_interval(rec, args, result, was_live) -> None:
    if args[0].live and not was_live:
        rec.counts["sample.mismatches"] += 1


def _blob_bytes(rec, args) -> None:
    store, key = args[0], args[1]
    try:
        rec.counts["sample.trace_bytes"] += store.path_for(key).stat().st_size
    except OSError:
        pass


def _after_trace_load(rec, args, payload, before) -> None:
    if payload is not None:
        _blob_bytes(rec, args)


def _after_trace_store(rec, args, result, before) -> None:
    _blob_bytes(rec, args)


def _store_hit(rec, args, payload, before) -> None:
    if payload is not None:
        rec.counts["exec.store_hits"] += 1


def _pool_events(rec, args, events, before) -> None:
    for event in events:
        if event.ok:
            rec.samples["service_s"].append(event.duration)
        else:
            rec.counts["exec.failed_attempts"] += 1


def _respawns(args) -> int:
    return args[0].respawns


def _after_shutdown(rec, args, result, respawns) -> None:
    rec.counts["exec.respawns"] += respawns


def _dispatch_job(args) -> str:
    return job_key(args[2])


def _simulate_job(args) -> str:
    return job_key(args[0])


def _hit_marks(rec) -> tuple:
    return (rec.calls["harness.simulate_spec"], rec.counts["exec.store_hits"])


def _after_run_spec(rec, args, result, before) -> None:
    if _hit_marks(rec) == before:
        rec.counts["harness.mem_hits"] += 1


# ----------------------------------------------------------------------
# Installation
# ----------------------------------------------------------------------

def install_exec(rec) -> None:
    """Parent side of a pooled batch: the pool and the result store."""
    rec.install(WorkerPool, "__init__", "span", "exec.pool_start")
    rec.install(WorkerPool, "dispatch", "span", "exec.dispatch",
                job_of=_dispatch_job)
    rec.install(WorkerPool, "poll", "leaf", "exec.poll", post=_pool_events)
    rec.install(WorkerPool, "shutdown", "span", "exec.shutdown",
                pre=_respawns, post=_after_shutdown)
    rec.install(ResultStore, "store", "span", "exec.store_write")
    rec.install(ResultStore, "load", "leaf", "exec.store_load",
                post=_store_hit)
    rec.install(ResultStore, "contains", "leaf", "exec.store_contains")


def install_all(rec) -> None:
    """Every measured layer, for the in-process serial batch."""
    install_exec(rec)
    # harness: module functions are patched where callers look them up.
    rec.install(runner, "run_spec", "span", "harness.run_spec",
                pre=lambda args: _hit_marks(rec), post=_after_run_spec)
    rec.install(runner, "simulate_spec", "span", "harness.simulate_spec",
                job_of=_simulate_job)
    rec.install(runner, "prewarm_specs", "span", "harness.prewarm_specs")
    rec.install(Benchmark, "edge_program", "span", "harness.edge_program")
    # search: ``fig_best`` looks the function up in the package.
    rec.install(search_pkg, "search_best", "span", "search.search_best")
    # tflex
    rec.install(TFlexSystem, "__init__", "span", "tflex.build")
    rec.install(TFlexSystem, "compose", "span", "tflex.compose")
    rec.install(TFlexSystem, "run", "span", "tflex.run",
                pre=_system_counters, post=_after_run)
    # noc, lsq, mem, predictor
    rec.install(Network, "delay", "leaf", "noc.delay")
    rec.install(LsqBank, "load", "leaf", "lsq.load")
    rec.install(LsqBank, "store", "leaf", "lsq.store", post=_after_store)
    rec.install(CacheBank, "access", "leaf", "mem.cache_access",
                post=_after_access)
    for method in ("read", "write", "warm_read", "warm_write"):
        rec.install(L2System, method, "leaf", f"mem.l2_{method}")
    rec.install(PredictorBank, "predict", "leaf", "predictor.predict")
    rec.install(PredictorBank, "update", "leaf", "predictor.update",
                post=_after_update)
    # isa
    rec.install(Interpreter, "execute_block", "leaf", "isa.execute_block")
    rec.install(Interpreter, "commit", "leaf", "isa.commit")
    # sample
    rec.install(ShadowUarch, "observe", "leaf", "sample.observe")
    rec.install(trace, "open_trace_session", "span", "sample.open_session",
                post=_after_open_session)
    rec.install(trace.ReplaySession, "interval_for", "leaf",
                "sample.interval_for", pre=_was_live, post=_after_interval)
    rec.install(trace.FFTraceStore, "load", "span", "sample.trace_load",
                post=_after_trace_load)
    rec.install(trace.FFTraceStore, "store", "span", "sample.trace_store",
                post=_after_trace_store)


# ----------------------------------------------------------------------
# Derived metrics
# ----------------------------------------------------------------------

def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _self(rec, *names) -> float:
    return sum(rec.self_s.get(n, 0.0) for n in names)


def _layer_self(rec, prefix: str) -> float:
    return sum(v for n, v in rec.self_s.items() if n.startswith(prefix))


def tail_value(values: list) -> float:
    """The highest percentile that still has at least 10 jobs beyond it
    (the smallest value when there are 10 jobs or fewer)."""
    ordered = sorted(values)
    return ordered[max(0, len(ordered) - 11)] if ordered else 0.0


def exec_metrics(pool, wall_s: float, workers: int) -> dict:
    service = pool.samples.get("service_s", [])
    return {
        "exec.pool_start_s": pool.total_s("exec.pool_start"),
        "exec.dispatches": pool.calls["exec.dispatch"],
        "exec.service_p50_s": statistics.median(service) if service else 0.0,
        "exec.service_tail_s": tail_value(service),
        "exec.busy_frac": _ratio(sum(service), workers * wall_s),
        "exec.retries": pool.counts["exec.failed_attempts"],
        "exec.respawns": pool.counts["exec.respawns"],
        "exec.store_writes": pool.calls["exec.store_write"],
        "exec.store_write_s": pool.total_s("exec.store_write"),
        "exec.store_reads": (pool.calls["exec.store_load"]
                             + pool.calls["exec.store_contains"]),
    }


def simulator_metrics(rec) -> dict:
    c = rec.counts
    interp_s = _self(rec, "isa.execute_block", "isa.commit")
    ff_blocks = rec.calls["isa.execute_block"]
    records, replays = c["sample.records"], c["sample.replays"]
    return {
        "tflex.run_s": rec.total_s("tflex.run"),
        "tflex.self_s": _self(rec, "tflex.run"),
        "tflex.build_s": (rec.total_s("tflex.build")
                          + rec.total_s("tflex.compose")),
        "tflex.events": c["tflex.events"],
        "tflex.events_per_inst": _ratio(c["tflex.events"], c["tflex.insts"]),
        "tflex.useful_block_ratio": _ratio(c["tflex.blocks_committed"],
                                           c["tflex.blocks_fetched"]),
        "noc.delay_calls": rec.calls["noc.delay"],
        "noc.self_s": _layer_self(rec, "noc."),
        "lsq.calls": rec.calls["lsq.load"] + rec.calls["lsq.store"],
        "lsq.self_s": _layer_self(rec, "lsq."),
        "lsq.violations": c["lsq.violations"],
        "mem.l1_accesses": c["mem.l1_accesses"],
        "mem.l1_hit_ratio": _ratio(c["mem.l1_hits"], c["mem.l1_accesses"]),
        "mem.l2_calls": sum(rec.calls[f"mem.l2_{m}"] for m in
                            ("read", "write", "warm_read", "warm_write")),
        "mem.self_s": _layer_self(rec, "mem."),
        "predictor.calls": (rec.calls["predictor.predict"]
                            + rec.calls["predictor.update"]),
        "predictor.self_s": _layer_self(rec, "predictor."),
        "predictor.accuracy": _ratio(c["predictor.correct"],
                                     c["predictor.updates"]),
        "isa.ff_blocks": ff_blocks,
        "isa.interp_s": interp_s,
        "isa.blocks_per_s": _ratio(ff_blocks, interp_s),
        "sample.shadow_calls": rec.calls["sample.observe"],
        "sample.shadow_s": _self(rec, "sample.observe"),
        "sample.records": records,
        "sample.replays": replays,
        "sample.mismatches": c["sample.mismatches"],
        "sample.replay_ratio": _ratio(replays, records + replays),
        "sample.trace_io_s": (rec.total_s("sample.trace_load")
                              + rec.total_s("sample.trace_store")),
        "sample.trace_bytes": c["sample.trace_bytes"],
        "harness.sims": rec.calls["harness.simulate_spec"],
        "harness.mem_hits": c["harness.mem_hits"],
        "harness.build_s": rec.total_s("harness.edge_program"),
        "search.self_s": _self(rec, "search.search_best"),
    }


def search_metrics(fig_best) -> dict:
    """Evaluation counts from the search's own result (zero when the
    workload runs no search)."""
    totals = {"coarse": 0, "fine": 0, "detail": 0}
    detailed = 0
    if fig_best is not None:
        for result in fig_best.searches.values():
            for tier, count in result.total_evaluations().items():
                totals[tier] = totals.get(tier, 0) + count
            detailed += result.detailed_jobs()
    return {"search.evals_coarse": totals["coarse"],
            "search.evals_fine": totals["fine"],
            "search.evals_detail": totals["detail"],
            "search.detailed_jobs": detailed}
