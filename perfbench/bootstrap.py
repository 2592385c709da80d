"""Put the checkout's own ``src/`` first on ``sys.path``.

The benchmark measures the source tree it sits in, never an installed
copy, so a checkout without ``src/repro`` is an error, not a fallback.
"""

from __future__ import annotations

import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = pathlib.Path(__file__).resolve().parent
#: Per-run scratch stores (removed at exit) and result sets / span files.
SCRATCH = ROOT / ".perfbench-tmp"
OUT = ROOT / ".perfbench-out"


def use_repo_source() -> None:
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no repro sources under {SRC}; "
                         f"run from the root of a full checkout\n")
        raise SystemExit(2)
    if sys.path[:1] != [str(SRC)]:
        sys.path.insert(0, str(SRC))
