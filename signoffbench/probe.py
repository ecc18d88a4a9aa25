"""One set-up probe: what a fresh sign-off process pays before its first unit.

Starts from a cold interpreter, imports the public API, builds the cell
library, renders and ingests the workload's SPEF and constructs the
session -- or, for ``eco_service``, starts the analysis server process and
gets a ping answered.  ``run.py`` times this script from outside, so the
interpreter start counts too.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()

    from repro.api import AnalysisConfig, NoiseAnalysisSession
    from repro.sna import StreamingClusterExtractor
    from repro.technology import build_default_library
    from workloads import COLD_CHIP, ECO_CHIP, WARM_CHIP, ServerProcess, make_chip

    size = {"chip_cold": COLD_CHIP, "chip_warm": WARM_CHIP, "eco_service": ECO_CHIP}[args.workload]
    library = build_default_library("cmos130")
    chip = make_chip(size, args.seed)
    spef = list(chip.spef_lines(library.technology))
    clusters = list(StreamingClusterExtractor(chip, library.technology).extract(iter(spef)))
    if args.workload == "eco_service":
        from repro.service import ServiceClient

        server = ServerProcess(HERE.parent)
        client = None
        try:
            client = ServiceClient(server.address)
            client.ping()
        finally:
            server.stop(client)
            if client is not None:
                client.close()
    else:
        NoiseAnalysisSession(library, AnalysisConfig())
    print(len(clusters))
    return 0


if __name__ == "__main__":
    sys.exit(main())
