"""Regenerate the committed verdict references (``references.json``).

One plain ``run_design`` pass per workload chip, for the default seed and
one held-out seed, with the default ``AnalysisConfig``::

    python3 signoffbench/references.py

Only rerun this when a change is meant to alter the answers; the benchmark
compares every run on these seeds against the file within the tolerances
stated in ``oracle.py``.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

#: The default seed and the held-out seed.
REFERENCE_SEEDS = (0, 1)


def main() -> int:
    from repro.api import AnalysisConfig, NoiseAnalysisSession
    from repro.sna import StreamingClusterExtractor
    from repro.technology import build_default_library

    from oracle import verdicts, write_references
    from workloads import COLD_CHIP, ECO_CHIP, WARM_CHIP, make_chip

    table = {}
    for workload, size in (("chip_cold", COLD_CHIP), ("chip_warm", WARM_CHIP), ("eco_service", ECO_CHIP)):
        for seed in REFERENCE_SEEDS:
            library = build_default_library("cmos130")
            chip = make_chip(size, seed)
            session = NoiseAnalysisSession(library, AnalysisConfig())
            stream = StreamingClusterExtractor(chip, library.technology).extract(chip.spef_lines(library.technology))
            found, missing = verdicts(session.run_design(stream=stream))
            if missing:
                raise SystemExit(f"{workload} seed {seed}: no verdict for {missing}")
            table.setdefault(workload, {})[str(seed)] = found
            print(f"{workload} seed {seed}: {len(found)} verdicts", flush=True)
    write_references(table)
    return 0


if __name__ == "__main__":
    sys.exit(main())
