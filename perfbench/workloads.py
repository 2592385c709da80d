"""The three workloads, each a closed batch through repro's public drivers.

A batch starts from empty result and trace stores in a fresh directory
and from empty in-process caches.  One client submits the whole sweep
and waits for every result.  The seed permutes the submission order of
every batch handed to :func:`repro.harness.runner.prewarm_specs`.
"""

from __future__ import annotations

import contextlib
import json
import os
import pathlib
import random
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from typing import Optional

import repro.harness.experiments as experiments
import repro.harness.runner as runner
import repro.sample.trace as trace
from repro.exec.spec import JobSpec
from repro.exec.sched import BOOK_NAME
from repro.harness import (
    fig6_performance,
    fig7_area,
    fig8_power,
    fig10_multiprogramming,
    fig_best,
    table2_area_power,
)
from repro.search import HalvingConfig

from bootstrap import HERE
from specs import ff_sweep_specs, job_key

#: Duration books of a returning user, who has run the sweep before and
#: now asks for it again from an empty result store: LJF ordering acts,
#: and the seeded shuffle only breaks ties.  ``ff_sweep`` starts cold,
#: so its submission order is the shuffled one.
PRIMED_BOOKS = {"detail_sweep": HERE / "ref" / "durations_detail.json",
                "search_best": HERE / "ref" / "durations_search.json"}

#: Pool size of every pooled batch (the 2-core machine's ``nproc``).
JOBS = 2


@dataclass
class Batch:
    """What one closed batch did."""

    workload: str
    wall_s: float = 0.0
    #: job key -> result payload, read back from the batch's result store.
    payloads: dict = field(default_factory=dict)
    #: Outcomes of every pooled submission (failures included).
    outcomes: list = field(default_factory=list)
    fig6: object = None
    fig_best: object = None
    #: ``time.monotonic()`` at the first driver call.
    ready: float = 0.0


@contextlib.contextmanager
def fresh_stores(scratch: pathlib.Path, book: Optional[pathlib.Path]):
    """Empty result and trace stores for one batch, removed afterwards;
    ``book`` (if given) is copied in as the store's duration book."""
    root = pathlib.Path(tempfile.mkdtemp(prefix="batch-", dir=scratch))
    results, traces = root / "results", root / "traces"
    results.mkdir()
    if book is not None:
        shutil.copyfile(book, results / BOOK_NAME)
    runner.clear_cache()
    trace.reset_ff_trace()
    runner.configure_cache(results)
    # Like the CLI: traces ride the cache dir, mirrored into the
    # environment so every worker resolves the same store.
    trace.configure_ff_trace(enabled=True, cache_dir=traces)
    os.environ[trace.TRACE_ENABLED_ENV] = "1"
    os.environ[trace.TRACE_DIR_ENV] = str(traces)
    try:
        yield results
    finally:
        runner.configure_cache(enabled=False)
        runner.clear_cache()
        trace.reset_ff_trace()
        shutil.rmtree(root, ignore_errors=True)


@contextlib.contextmanager
def shuffled_submission(seed: int, outcomes: list):
    """Permute every batch handed to ``prewarm_specs`` with a seeded
    generator and keep the outcomes it returns."""
    rng = random.Random(seed)
    saved = {mod: mod.__dict__["prewarm_specs"]
             for mod in (runner, experiments)}
    submit_to = saved[runner]

    def submit(specs, *args, **kwargs):
        specs = list(specs)
        rng.shuffle(specs)
        result = submit_to(specs, *args, **kwargs)
        outcomes.extend(result)
        return result

    for mod in saved:
        mod.prewarm_specs = submit
    try:
        yield
    finally:
        for mod, original in saved.items():
            mod.prewarm_specs = original


def read_payloads(results: pathlib.Path) -> dict:
    """Every record the batch left in its result store, by job key."""
    payloads = {}
    for path in results.glob("*/*.json"):
        record = json.loads(path.read_text(encoding="utf-8"))
        spec = JobSpec.from_dict(record["spec"])
        payloads[job_key(spec)] = record["payload"]
    return payloads


def drive(workload: str, jobs: int, seed: int, batch: Batch) -> None:
    if workload == "detail_sweep":
        fig6 = fig6_performance(scale=1, jobs=jobs)
        fig7, fig8 = fig7_area(fig6), fig8_power(fig6)
        fig10_multiprogramming(fig6)
        table2_area_power(fig6)
        batch.fig6 = (fig6, fig7, fig8)
    elif workload == "ff_sweep":
        runner.prewarm_specs(ff_sweep_specs(), jobs=jobs)
    elif workload == "search_best":
        batch.fig_best = fig_best(scale=1, jobs=jobs,
                                  config=HalvingConfig(seed=seed))
    else:
        raise ValueError(f"unknown workload {workload!r}")


def run_batch(workload: str, seed: int, jobs: int, scratch: pathlib.Path,
              recorder=None) -> Batch:
    """Run one closed batch and time it from the first driver call to
    the last result.  ``recorder`` (if given) has its ledger started at
    the first driver call."""
    batch = Batch(workload)
    with fresh_stores(scratch, PRIMED_BOOKS.get(workload)) as results:
        with shuffled_submission(seed, batch.outcomes):
            if recorder is not None:
                recorder.reset_clock()
            batch.ready = time.monotonic()
            start = time.perf_counter()
            drive(workload, jobs, seed, batch)
            batch.wall_s = time.perf_counter() - start
        batch.payloads = read_payloads(results)
    return batch


def prepare(workload: str) -> int:
    """Build the workload's job list the way its driver does, without
    running it (part of a batch's set-up); returns the number of
    submitted specs."""
    from repro.harness.experiments import fig6_specs
    from repro.search import OBJECTIVE_NAMES, default_space

    if workload == "detail_sweep":
        return len(fig6_specs(scale=1))
    if workload == "ff_sweep":
        return len(ff_sweep_specs())
    if workload == "search_best":
        space = default_space(sorted(experiments.BENCHMARKS), scale=1)
        return (len(space.benchmarks) * len(space.candidates)
                * len(OBJECTIVE_NAMES))
    raise ValueError(f"unknown workload {workload!r}")
