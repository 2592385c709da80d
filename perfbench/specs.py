"""Job specs of the benchmark's workloads and a readable key per job.

Kernel inputs are fixed by the workload suite, so every spec here (and
every reference built from it) is independent of ``--seed``; the seed
only permutes submission order (see ``workloads.py``).
"""

from __future__ import annotations

from repro.exec.spec import JobSpec
from repro.harness.experiments import CORE_COUNTS, fig6_specs
from repro.harness.golden import GOLDEN_BENCHMARKS

#: Per-kernel data scales of the shared fast-forward sweep: each golden
#: kernel commits roughly 25k blocks (ammp grows quadratically with
#: scale, the others linearly).  Same values as the perf-smoke
#: ``fig6_shared_ff`` job, so the two measure the same region.
FF_SCALES = {"a2time": 2048, "ammp": 24, "bzip2": 256, "conv": 192,
             "dither": 1024, "equake": 384, "gzip": 320}
#: Fast-forward interval per kernel: two detailed windows per run.
FF_BLOCKS = {"ammp": 40_000}
FF_DEFAULT_BLOCKS = 16_000
FF_WINDOW = {"window_blocks": 12, "warmup_blocks": 4}


def ff_sampling(bench: str) -> dict:
    return {"ff_blocks": FF_BLOCKS.get(bench, FF_DEFAULT_BLOCKS),
            **FF_WINDOW}


def detail_sweep_specs() -> list:
    """The full-suite figure-6 sweep at scale 1, TRIPS included."""
    return fig6_specs(scale=1)


def ff_sweep_specs(sampled: bool = True) -> list:
    """Golden kernels x composition sizes at the shared-ff scales;
    ``sampled=False`` gives the full-detail twins the cycle-error
    reference is computed from."""
    return [JobSpec.edge(bench, ncores=n, scale=FF_SCALES[bench],
                         sampling=ff_sampling(bench) if sampled else None)
            for bench in GOLDEN_BENCHMARKS for n in CORE_COUNTS]


def job_key(spec: JobSpec) -> str:
    """A stable, readable name for one job: benchmark, composition,
    scale and fidelity.  Unlike the content hash it survives a store
    schema bump, so references stay valid across such changes."""
    config = "trips" if spec.trips else f"tflex-{spec.ncores}"
    if spec.ideal_handshake:
        config += "-ideal"
    for source in (spec.overrides, spec.core_overrides):
        for name, value in source:
            config += f"+{name}={value}"
    if spec.sampling:
        s = spec.sampling_dict()
        fidelity = (f"ff{s.get('ff_blocks')}w{s.get('window_blocks')}"
                    f"wu{s.get('warmup_blocks')}")
    else:
        fidelity = "detail"
    return f"{spec.bench}|{config}|x{spec.scale}|{fidelity}"
