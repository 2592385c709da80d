"""One untraced batch in a fresh interpreter, started by ``run.py``.

Running every batch in its own process keeps batches independent: no
in-process state or heap growth carries over, and the memory peak is
the batch's own.  The last line of standard output is one
JSON object.  ``ready`` is the ``time.monotonic()`` reading at the
first driver call; the parent subtracts its own reading from before
the spawn to get the set-up time.  With ``--setup-only`` the process
stops there.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import shutil
import threading
import time

import bootstrap

#: Seconds between two samples of the process tree's resident set.
RSS_INTERVAL = 0.05


def _rss_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1])
    except (OSError, ValueError):
        pass                            # the process is gone
    return 0


def _children(pid: int) -> list:
    pids = []
    for path in glob.glob(f"/proc/{pid}/task/*/children"):
        try:
            with open(path, encoding="ascii") as handle:
                pids += [int(p) for p in handle.read().split()]
        except OSError:
            pass
    return pids


class RssSampler:
    """Largest summed resident set of this process and its children
    (the pool workers), sampled every ``RSS_INTERVAL`` seconds.

    The sum over the live processes, rather than the largest single
    process, is what the machine must hold at once; it also depends less
    on which worker happened to run which job.
    """

    def __init__(self) -> None:
        self.peak_kb = 0
        self._done = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def sample(self) -> None:
        pid = os.getpid()
        total = _rss_kb(pid) + sum(_rss_kb(c) for c in _children(pid))
        self.peak_kb = max(self.peak_kb, total)

    def _run(self) -> None:
        while not self._done.wait(RSS_INTERVAL):
            self.sample()

    def __enter__(self) -> "RssSampler":
        self.sample()
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._done.set()
        self._thread.join()
        self.sample()


def simulated_insts(payloads: dict) -> int:
    """Committed-in-detail plus fast-forwarded instructions: a sampled
    payload's ``insts_committed`` already counts both."""
    return sum(p["result"]["insts_committed"] for p in payloads.values())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    bootstrap.use_repo_source()
    from refs import Gate
    from workloads import JOBS, PRIMED_BOOKS, fresh_stores, prepare, run_batch

    prepare(args.workload)
    scratch = bootstrap.SCRATCH / f"batch-{os.getpid()}"
    scratch.mkdir(parents=True)
    try:
        if args.setup_only:
            with fresh_stores(scratch, PRIMED_BOOKS.get(args.workload)):
                ready = time.monotonic()
            print(json.dumps({"ready": ready}))
            return 0
        gate = Gate(args.workload)
        with RssSampler() as rss:
            batch = run_batch(args.workload, args.seed, JOBS, scratch)
        gate.check(batch)
        print(json.dumps({
            "ready": batch.ready, "wall_s": batch.wall_s,
            "peak_rss_mb": rss.peak_kb / 1024.0,
            "insts": simulated_insts(batch.payloads),
            "jobs": len(batch.payloads),
            "attempted": gate.attempted, "failures": gate.failures,
            "unverified": gate.unverified,
            "fidelity": gate.fidelity(batch)}))
        return 0
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    raise SystemExit(main())
