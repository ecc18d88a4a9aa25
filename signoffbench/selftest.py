"""Self-tests of the benchmark (one to three minutes on two cores)::

    python3 signoffbench/selftest.py

* ``BENCHMARK.json`` is well formed and its names are unique;
* a tiny run (``--seconds 1``) of every workload, untraced and traced,
  prints exactly the declared metrics with their declared units, reports
  zero failures and passes every check;
* the tracer restores what it wraps, keeps only the outermost span of a
  layer and computes self time;
* the reference comparison flags a changed verdict and accepts a tiny one;
* without the program's source tree the benchmark exits non-zero and
  prints no result.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"FAIL: {message}")


def test_benchmark_file() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check(set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}, "BENCHMARK.json keys")
    names = [w["name"] for w in spec["workloads"]] + [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    check(len(names) == len(set(names)), "names are used once")
    check(all(NAME.match(n) for n in names), "names match the allowed pattern")
    check(all(UNIT.match(m["unit"]) for m in spec["end_to_end"] + spec["per_layer"]), "units match the allowed pattern")
    check(all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"]), "bounds in (0, 0.25]")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    check(setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower", "setup_s declared")
    check(setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"]), "setup_s has the largest bound")
    return spec


def run_once(spec: dict, workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    command = [sys.executable, *spec["command"][1:], "--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=300)


def test_tiny_runs(spec: dict) -> None:
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, table in ((0, "end_to_end"), (1, "per_layer")):
            started = time.perf_counter()
            process = run_once(spec, workload, trace)
            check(process.returncode == 0, f"{workload} trace={trace} exit {process.returncode}: {process.stderr[-2000:]}")
            result = json.loads(process.stdout.splitlines()[-1])
            check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{workload} result keys")
            check(result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1, f"{workload} trace={trace}: {result}")
            declared = {m["name"]: m["unit"] for m in spec[table]}
            emitted = {name: value["unit"] for name, value in result["metrics"].items()}
            check(emitted == declared, f"{workload} trace={trace} emits {sorted(emitted)} for {sorted(declared)}")
            check(all(math.isfinite(v["value"]) for v in result["metrics"].values()), f"{workload} finite values")
            if trace == 0:
                check(all(v["value"] > 0 for v in result["metrics"].values()), f"{workload} end-to-end metrics are never 0")
            else:
                metrics = result["metrics"]
                if workload in ("chip_cold", "chip_warm"):
                    check(metrics["trace.coverage"]["value"] >= 0.9, f"{workload} trace.coverage")
                if workload == "chip_warm":
                    check(metrics["characterization.hit_ratio"]["value"] == 1.0, "chip_warm characterizations all hit")
                if workload == "chip_cold":
                    check(metrics["characterization.nrc_runs"]["value"] == 1.0, "chip_cold characterizes one NRC per unit")
            print(f"ok {workload} trace={trace} ({time.perf_counter() - started:.0f} s)", flush=True)


def test_tracer() -> None:
    from tracer import Tracer

    class Owner:
        @staticmethod
        def outer(n):
            time.sleep(0.01)
            return Owner.inner(n) if n else 0

        @staticmethod
        def inner(n):
            time.sleep(0.02)
            return Owner.outer(n - 1)

        @classmethod
        def make(cls):
            return cls

    original = Owner.__dict__["outer"]

    def layers(tracer):
        tracer.wrap(Owner, "outer", "a")
        tracer.wrap(Owner, "inner", "b")
        tracer.wrap(Owner, "make", "c")

    tracer = Tracer(layers)
    with tracer.installed():
        Owner.outer(2)
        check(Owner.make() is Owner, "classmethod wrapper keeps its binding")
    check(Owner.__dict__["outer"] is original, "uninstall restores the original attribute")
    table = tracer.layer_table()
    check(table["a"]["calls"] == 1 and table["b"]["calls"] == 1, f"outermost span per layer only: {table}")
    check(abs(table["a"]["self_s"] - (table["a"]["busy_s"] - table["b"]["busy_s"])) < 1e-9, "self time subtracts children")
    check(table["unit"]["self_s"] < table["unit"]["busy_s"], "root span has children")
    print("ok tracer", flush=True)


def test_reference_tolerances() -> None:
    from oracle import reference_mismatches

    expected = {"n1": (0.10, False, 0.50), "n2": (0.60, True, 0.45)}
    check(reference_mismatches(dict(expected), expected, 1.2) == 0, "identical verdicts match")
    check(reference_mismatches({**expected, "n1": (0.1001, False, 0.501)}, expected, 1.2) == 0, "tiny numerical drift is accepted")
    check(reference_mismatches({**expected, "n1": (0.10, True, 0.50)}, expected, 1.2) == 1, "a flipped call is flagged")
    check(reference_mismatches({**expected, "n2": (0.50, True, 0.45)}, expected, 1.2) == 1, "a moved peak is flagged")
    check(reference_mismatches({"n1": expected["n1"]}, expected, 1.2) == 1, "a missing victim is flagged")
    print("ok oracle", flush=True)


def test_without_source(spec: dict) -> None:
    bare = ROOT / ".signoffbench_tmp" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        process = run_once(spec, spec["workloads"][0]["name"], 0, cwd=bare)
        check(process.returncode != 0, "exits non-zero without the program")
        check('"metrics"' not in process.stdout, "prints no result without the program")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            bare.parent.rmdir()
        except OSError:
            pass
    print("ok without source", flush=True)


def main() -> int:
    spec = test_benchmark_file()
    test_tracer()
    test_reference_tolerances()
    test_without_source(spec)
    test_tiny_runs(spec)
    print("all self-tests passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
