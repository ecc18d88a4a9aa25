"""Correctness oracle: per-victim verdicts and the checks made on them.

A verdict is what sign-off decides per victim net: the macromodel glitch
peak, the NRC pass/fail call and the NRC failure height at the glitch's
width.  Within one run verdicts must repeat exactly (same inputs, same
code); against the committed references they must agree within the
tolerances below, which leave room for numerical refactors of the
characterization (the ROADMAP allows NRC heights to move by up to 1% of
vdd) but not for a changed answer.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Dict, List, Optional, Tuple

#: |peak - reference peak| allowed against the committed references (volts).
PEAK_TOLERANCE_V = 2e-3
#: |failure height - reference| allowed, as a share of the supply voltage.
FAILURE_HEIGHT_TOLERANCE_VDD = 0.01

REFERENCE_FILE = Path(__file__).resolve().parent / "references.json"

#: victim net -> (peak, fails, failure_height)
Verdicts = Dict[str, Tuple[float, bool, float]]


def verdicts(report) -> Tuple[Verdicts, List[str]]:
    """Verdicts of a ``SessionReport`` plus the victims that have none.

    A victim has no verdict when its analysis errored or its NRC check is
    missing; those count as failed operations.
    """
    found: Verdicts = {}
    missing: List[str] = []
    for cluster in report.clusters:
        victim = cluster.victim_net or cluster.label
        check = cluster.nrc_check() if cluster.ok and cluster.results else None
        if check is None:
            missing.append(victim)
            continue
        found[victim] = (float(cluster.primary.metrics.peak), bool(check.fails), float(check.failure_height))
    return found, missing


def count_mismatches(got: Verdicts, expected: Verdicts) -> int:
    """Victims whose verdict differs in any bit (or is absent on one side)."""
    return sum(1 for victim in set(got) | set(expected) if got.get(victim) != expected.get(victim))


def load_references() -> Dict[str, Dict[str, Verdicts]]:
    """``{workload: {seed: verdicts}}`` from the committed reference file."""
    if not REFERENCE_FILE.exists():
        return {}
    raw = json.loads(REFERENCE_FILE.read_text())
    return {
        workload: {
            seed: {victim: (v[0], bool(v[1]), v[2]) for victim, v in table.items()}
            for seed, table in seeds.items()
        }
        for workload, seeds in raw["verdicts"].items()
    }


def reference_mismatches(got: Verdicts, expected: Verdicts, vdd: float) -> int:
    """Victims outside the reference tolerances.

    The pass/fail call must match unless the glitch sits within the
    tolerances of the failure height, where either call is acceptable.
    """
    bad = 0
    height_tolerance = FAILURE_HEIGHT_TOLERANCE_VDD * vdd
    for victim in set(got) | set(expected):
        if victim not in got or victim not in expected:
            bad += 1
            continue
        peak, fails, height = got[victim]
        ref_peak, ref_fails, ref_height = expected[victim]
        if not (math.isfinite(peak) and math.isfinite(height)):
            bad += 1
        elif abs(peak - ref_peak) > PEAK_TOLERANCE_V or abs(height - ref_height) > height_tolerance:
            bad += 1
        elif fails != ref_fails and abs(abs(ref_peak) - ref_height) > PEAK_TOLERANCE_V + height_tolerance:
            bad += 1
    return bad


def reference_for(workload: str, seed: int) -> Optional[Verdicts]:
    return load_references().get(workload, {}).get(str(seed))


def write_references(table: Dict[str, Dict[str, Verdicts]]) -> None:
    payload = {
        "tolerances": {
            "peak_v": PEAK_TOLERANCE_V,
            "failure_height_share_of_vdd": FAILURE_HEIGHT_TOLERANCE_VDD,
        },
        "verdicts": {
            workload: {
                seed: {victim: list(v) for victim, v in sorted(rows.items())}
                for seed, rows in sorted(seeds.items())
            }
            for workload, seeds in sorted(table.items())
        },
    }
    REFERENCE_FILE.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
