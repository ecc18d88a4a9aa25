"""Environment record and machine-speed calibration.

Every result carries the facts that decide how its numbers compare: core
count and affinity, CPU model, interpreter and numeric-library versions,
the BLAS build, the BLAS thread variables (recorded, never set, so that a
program change that pins threads shows up as a gain), the commit when there
is one and a digest of the source under test.  Fixed calibration kernels are
timed before and after the measured phase and between units, so the
machine's own speed during a run sits beside the run's numbers and scales
them to a reference speed.
"""

from __future__ import annotations

import hashlib
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, Optional

BLAS_THREAD_VARIABLES = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _blas_vendor() -> str:
    import numpy as np

    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        return f"{blas.get('name', '?')} {blas.get('version', '')}".strip()
    except Exception:  # older numpy has no dict mode; the vendor is then unknown
        return "unknown"


def commit(root: Path) -> Optional[str]:
    """The checked-out commit, or ``None`` outside a git work tree."""
    if not (root / ".git").exists():
        return None
    try:
        process = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return process.stdout.strip() or None


def source_digest(root: Path) -> str:
    """SHA-256 over the program's source files, which identifies the code without git."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def environment(root: Path, seed: int) -> Dict[str, Any]:
    import numpy as np
    import scipy

    try:
        affinity = sorted(os.sched_getaffinity(0))
    except AttributeError:
        affinity = []
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": affinity,
        "cpu_model": _cpu_model(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas_vendor(),
        "blas_threads": {name: os.environ.get(name) for name in BLAS_THREAD_VARIABLES},
        "commit": commit(root),
        "source_digest": source_digest(root),
        "seed": seed,
    }


#: Calibration-pass time (ms) that defines the reference machine speed: the
#: median of one pass (the Python kernel plus the solve kernel) on the
#: 2-core Xeon box the benchmark was tuned on, in a quiet phase.
#: End-to-end times are reported at this speed.
REFERENCE_KERNEL_MS = 20.5


def _python_kernel() -> float:
    start = time.perf_counter()
    total = 0
    for i in range(200_000):
        total += i * i % 7
    return time.perf_counter() - start


def _numpy_kernel() -> float:
    import numpy as np

    matrix = np.eye(25) * 25.0 + np.arange(625, dtype=float).reshape(25, 25) / 625.0
    rhs = np.ones(25)
    np.linalg.solve(matrix, rhs)  # the first call initialises the BLAS library
    start = time.perf_counter()
    for _ in range(1500):
        np.linalg.solve(matrix, rhs)
    return time.perf_counter() - start


def kernel_ms(min_seconds: float = 0.0) -> float:
    """Mean time (ms) of a calibration pass, over at least three passes.

    One pass runs the pure-Python kernel and the small-solve kernel, the two
    kinds of work the program does.  Passes repeat until ``min_seconds`` has
    gone by, so that the sample spans a fixed share of the unit beside it;
    the mean, like a unit's time, integrates the machine's speed over it.
    """
    passes = []
    start = time.perf_counter()
    while len(passes) < 3 or time.perf_counter() - start < min_seconds:
        passes.append(_python_kernel() + _numpy_kernel())
    return 1e3 * statistics.fmean(passes)


def calibrate(repeats: int = 5) -> Dict[str, float]:
    """Median times (ms) of the pure-Python and the small-solve kernel."""
    return {
        "python_ms": 1e3 * statistics.median(_python_kernel() for _ in range(repeats)),
        "numpy_ms": 1e3 * statistics.median(_numpy_kernel() for _ in range(repeats)),
    }
