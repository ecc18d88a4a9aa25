"""The three sign-off workloads.

Each workload builds its inputs from the seed (a ``SyntheticChip`` and its
SPEF text), sets up, then runs a closed loop of identical units -- one
caller, ``max_workers=1`` -- for the requested number of seconds.  A unit
is timed whole; its verdicts are checked outside the timed part.

* ``chip_cold``: every unit is a new session with the default
  ``AnalysisConfig`` and a fresh, empty disk cache, over a small chip, so
  the unit is dominated by characterization.
* ``chip_warm``: one long-lived session, filled in set-up; every unit
  re-runs the design, so every characterization is a cache hit and the
  time goes to model build and the noise engine.
* ``eco_service``: an ``AnalysisServer`` in its own process with one spawn
  worker; every unit submits the next complete ECO revision, in which the
  same number of nets carry edited parasitics, so most clusters are reused
  from the server's result store and a fixed few are recomputed.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from envinfo import kernel_ms
from oracle import Verdicts, count_mismatches, reference_for, reference_mismatches, verdicts
from tracer import TracedIterator, Tracer, install_analysis_layers, install_client_layers

HERE = Path(__file__).resolve().parent

#: Chip sizes: (num_nets, bus_width).  Grid topology, every net driven.
COLD_CHIP = (8, 4)
WARM_CHIP = (24, 6)
ECO_CHIP = (24, 6)
#: Minimum timed units per run: a median of two, and in a traced run one
#: traced and one untraced unit.
MIN_UNITS = 2
#: Calibration time after each unit, as a share of the unit's time.
KERNEL_SHARE = 0.15
#: Set-up probes per run; ``setup_s`` is their median.
SETUP_PROBES = 3


@dataclass
class Context:
    root: Path
    scratch: Path
    seed: int
    seconds: float
    trace: bool


@dataclass
class Outcome:
    """What a workload hands back to ``run.py``."""

    unit_seconds: List[float] = field(default_factory=list)
    #: Calibration-kernel samples (ms) before the first unit and after each unit.
    kernel_ms: List[float] = field(default_factory=list)
    #: Which units ran with the tracer installed (trace runs alternate).
    traced_units: List[int] = field(default_factory=list)
    clusters_checked: int = 0
    attempted: int = 0
    failed: int = 0
    #: Checks that are not per-verdict (counter cross-checks, set-up).
    problems: List[str] = field(default_factory=list)
    setup_s: float = 0.0
    warmup_s: float = 0.0
    peak_rss_mb: float = 0.0
    layers: Dict[str, float] = field(default_factory=dict)
    #: The tracer's per-layer table over the traced units, written out with the result.
    trace_table: Dict[str, Dict[str, float]] = field(default_factory=dict)


def make_chip(size: Tuple[int, int], seed: int):
    from repro.sna import SyntheticChip

    num_nets, bus_width = size
    return SyntheticChip(num_nets=num_nets, bus_width=bus_width, topology="grid", seed=seed)


# ---------------------------------------------------------------------------
# Shared machinery
# ---------------------------------------------------------------------------


def closed_loop(ctx: Context, unit: Callable[[int, Optional[Tracer]], None], tracer: Optional[Tracer], outcome: Outcome) -> None:
    """Run units back to back for ``ctx.seconds``.

    After ``MIN_UNITS`` units, a unit is not started when it would be
    expected to end more than half a unit past the window.  The calibration
    pass is timed before the first unit and after every unit, outside the
    timed part.  In a traced run every second unit is traced, so traced and
    untraced units share the machine's state and their ratio gives the
    tracing overhead.
    """
    start = time.perf_counter()
    index = 0
    outcome.kernel_ms.append(kernel_ms())
    while True:
        traced = tracer is not None and index % 2 == 1
        if traced:
            outcome.traced_units.append(index)
        unit(index, tracer if traced else None)
        outcome.kernel_ms.append(kernel_ms(KERNEL_SHARE * outcome.unit_seconds[-1]))
        index += 1
        elapsed = time.perf_counter() - start
        if index >= MIN_UNITS and elapsed + 0.5 * statistics.median(outcome.unit_seconds) > ctx.seconds:
            break


def timed(outcome: Outcome, tracer: Optional[Tracer], body: Callable[[], object]):
    """Time ``body`` as one unit; a traced unit runs with the layers wrapped."""
    start = time.perf_counter()
    if tracer is not None:
        with tracer.installed():
            result = body()
    else:
        result = body()
    outcome.unit_seconds.append(time.perf_counter() - start)
    return result


def check_verdicts(outcome: Outcome, got: Verdicts, missing: List[str], expected: Optional[Verdicts], reference: Optional[Verdicts], vdd: float) -> None:
    """Count a unit's victims as attempted and any departure as failed."""
    outcome.attempted += len(got) + len(missing)
    bad = set(missing)
    if expected is not None:
        bad |= {v for v in set(got) | set(expected) if got.get(v) != expected.get(v)}
    if reference is not None and reference_mismatches(got, reference, vdd):
        bad |= set(got)
    outcome.failed += len(bad)
    outcome.clusters_checked += len(got) - len(bad & set(got))


def read_rss_mb(pid: int) -> float:
    """Peak resident set (VmHWM) of a live process, in MB."""
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    if pid == os.getpid():
        import resource

        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return 0.0


def child_pids(pid: int) -> List[int]:
    children: List[int] = []
    try:
        for task in os.listdir(f"/proc/{pid}/task"):
            with open(f"/proc/{pid}/task/{task}/children") as handle:
                children.extend(int(p) for p in handle.read().split())
    except OSError:
        pass
    return children


def probe_setup(ctx: Context, workload: str) -> float:
    """Median wall time of fresh-process set-ups (interpreter start included)."""
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, str(HERE / "probe.py"), "--workload", workload, "--seed", str(ctx.seed)],
            check=True,
            cwd=ctx.root,
            stdout=subprocess.DEVNULL,
            timeout=120,
        )
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def analysis_layers(tracer: Tracer, outcome: Outcome, session_stats: Dict[str, float]) -> None:
    """Per-unit means of the in-process analysis layers over the traced units."""
    table = tracer.layer_table()
    units = max(1, len(outcome.traced_units))

    def busy(name: str) -> float:
        return table.get(name, {}).get("busy_s", 0.0) / units

    def self_s(name: str) -> float:
        return table.get(name, {}).get("self_s", 0.0) / units

    def calls(name: str) -> float:
        return table.get(name, {}).get("calls", 0) / units

    def counter(name: str, key: str) -> float:
        return table.get(name, {}).get(key, 0) / units

    layers = outcome.layers
    layers["sna.ingest_s"] = self_s("sna.ingest")
    for kind in ("nrc", "thevenin", "vccs"):
        layers[f"characterization.{kind}_s"] = busy(f"characterization.{kind}")
        layers[f"characterization.{kind}_runs"] = calls(f"characterization.{kind}")
    layers["characterization.disk_put_s"] = busy("characterization.disk_put")
    layers["characterization.hit_ratio"] = session_stats.get("hit_ratio", 0.0)
    layers["circuit.transient_s"] = busy("circuit.transient")
    layers["circuit.transient_runs"] = calls("circuit.transient")
    layers["circuit.dc_s"] = busy("circuit.dc")
    layers["circuit.newton_iterations"] = counter("circuit.transient", "newton_iterations") + counter("circuit.dc", "newton_iterations")
    built = counter("noise.engine", "factorizations_built")
    saved = counter("noise.engine", "factorizations_saved")
    layers["circuit.factorizations_built"] = built
    layers["circuit.factorizations_saved"] = saved
    layers["circuit.factorization_save_ratio"] = saved / (built + saved) if built + saved else 0.0
    layers["noise.build_s"] = self_s("noise.build")
    layers["noise.engine_s"] = self_s("noise.engine")
    layers["noise.engine_runs"] = calls("noise.engine")
    points = counter("noise.engine", "time_points")
    layers["noise.time_points"] = points
    layers["noise.newton_per_point"] = counter("noise.engine", "newton_iterations") / points if points else 0.0
    layers["noise.nrc_check_s"] = busy("noise.nrc_check")
    layers["api.analyze_s"] = self_s("api.analyze")
    layers["api.report_encode_s"] = busy("api.report_encode")
    layers["api.report_bytes"] = counter("api.report_encode", "bytes")
    coverage(tracer, outcome)

    # The tracer's counts must agree with the program's own counters.
    if table:
        for kind in ("nrc", "thevenin", "vccs"):
            if calls(f"characterization.{kind}") != session_stats.get(f"misses_{kind}", 0.0):
                outcome.problems.append(
                    f"characterization.{kind} spans {calls(f'characterization.{kind}')} != "
                    f"characterizer misses {session_stats.get(f'misses_{kind}', 0.0)} per unit"
                )
        if calls("noise.engine") != session_stats.get("clusters", 0.0):
            outcome.problems.append(
                f"noise.engine spans {calls('noise.engine')} != clusters analyzed {session_stats.get('clusters')} per unit"
            )


def coverage(tracer: Tracer, outcome: Outcome) -> None:
    """Share of traced unit time attributed to a named layer, and tracing overhead."""
    table = outcome.trace_table = tracer.layer_table()
    unit = table.get("unit", {})
    if unit.get("busy_s"):
        outcome.layers["trace.coverage"] = 1.0 - unit["self_s"] / unit["busy_s"]
    traced = [outcome.unit_seconds[i] for i in outcome.traced_units]
    plain = [t for i, t in enumerate(outcome.unit_seconds) if i not in outcome.traced_units]
    if traced and plain:
        outcome.layers["trace.overhead"] = statistics.median(traced) / statistics.median(plain) - 1.0


def encode_report(report, tracer: Optional[Tracer]) -> int:
    """The report step of a sign-off: the lossless JSON the flow hands on."""
    if tracer is None:
        return len(json.dumps(report.to_json()))
    with tracer.span("api.report_encode") as span:
        size = len(json.dumps(report.to_json()))
        span.counters["bytes"] = size
    return size


def characterizer_snapshot(characterizer) -> Dict[str, int]:
    stats = characterizer.stats
    return {
        "hits": stats.hit_count(),
        "misses": stats.miss_count(),
        **{f"misses_{kind}": stats.miss_count(kind) for kind in ("nrc", "thevenin", "vccs")},
    }


# ---------------------------------------------------------------------------
# chip_cold
# ---------------------------------------------------------------------------


def chip_cold(ctx: Context) -> Outcome:
    from repro.api import AnalysisConfig, NoiseAnalysisSession
    from repro.sna import StreamingClusterExtractor
    from repro.technology import build_default_library

    outcome = Outcome()
    outcome.setup_s = probe_setup(ctx, "chip_cold")
    chip = make_chip(COLD_CHIP, ctx.seed)
    technology = build_default_library("cmos130").technology
    spef = list(chip.spef_lines(technology))
    reference = reference_for("chip_cold", ctx.seed)
    first: Dict[str, Verdicts] = {}
    stats_per_unit: List[Dict[str, int]] = []
    tracer = Tracer(install_analysis_layers) if ctx.trace else None

    def unit(index: int, unit_tracer: Optional[Tracer]) -> None:
        cache_dir = ctx.scratch / f"cold-cache-{index}"
        cache_dir.mkdir()

        def body():
            library = build_default_library("cmos130")
            session = NoiseAnalysisSession(library, AnalysisConfig(cache_dir=str(cache_dir)))
            stream = StreamingClusterExtractor(chip, library.technology).extract(iter(spef))
            report = session.run_design(stream=TracedIterator(unit_tracer, stream, "sna.ingest"), design_name="chip_cold")
            encode_report(report, unit_tracer)
            return session, report

        session, report = timed(outcome, unit_tracer, body)
        shutil.rmtree(cache_dir)
        got, missing = verdicts(report)
        check_verdicts(outcome, got, missing, first.get("verdicts"), reference, technology.vdd)
        first.setdefault("verdicts", got)
        snapshot = characterizer_snapshot(session.characterizer)
        snapshot["clusters"] = len(report.clusters)
        if unit_tracer is not None:
            stats_per_unit.append(snapshot)

    closed_loop(ctx, unit, tracer, outcome)
    outcome.peak_rss_mb = read_rss_mb(os.getpid())
    if tracer is not None:
        analysis_layers(tracer, outcome, _mean_stats(stats_per_unit))
    return outcome


def _mean_stats(snapshots: List[Dict[str, int]]) -> Dict[str, float]:
    if not snapshots:
        return {}
    keys = snapshots[0].keys()
    mean = {key: sum(s[key] for s in snapshots) / len(snapshots) for key in keys}
    lookups = mean["hits"] + mean["misses"]
    mean["hit_ratio"] = mean["hits"] / lookups if lookups else 0.0
    return mean


# ---------------------------------------------------------------------------
# chip_warm
# ---------------------------------------------------------------------------


def chip_warm(ctx: Context) -> Outcome:
    from repro.api import AnalysisConfig, NoiseAnalysisSession
    from repro.sna import StreamingClusterExtractor
    from repro.technology import build_default_library

    outcome = Outcome()
    outcome.setup_s = probe_setup(ctx, "chip_warm")
    chip = make_chip(WARM_CHIP, ctx.seed)
    library = build_default_library("cmos130")
    technology = library.technology
    spef = list(chip.spef_lines(technology))

    def design_run(session, tracer: Optional[Tracer] = None):
        stream = StreamingClusterExtractor(chip, technology).extract(iter(spef))
        return session.run_design(stream=TracedIterator(tracer, stream, "sna.ingest"), design_name="chip_warm")

    start = time.perf_counter()
    session = NoiseAnalysisSession(library, AnalysisConfig())
    fill, fill_missing = verdicts(design_run(session))
    reference_session = NoiseAnalysisSession(
        library, AnalysisConfig(batching="off"), characterizer=session.characterizer
    )
    unbatched, unbatched_missing = verdicts(design_run(reference_session))
    outcome.warmup_s = time.perf_counter() - start
    if fill_missing or unbatched_missing:
        outcome.problems.append(f"set-up passes left victims without a verdict: {fill_missing + unbatched_missing}")
    if count_mismatches(fill, unbatched):
        outcome.problems.append("cold fill pass and batching='off' pass disagree")

    reference = reference_for("chip_warm", ctx.seed)
    tracer = Tracer(install_analysis_layers) if ctx.trace else None
    stats_per_unit: List[Dict[str, float]] = []

    def unit(index: int, unit_tracer: Optional[Tracer]) -> None:
        before = characterizer_snapshot(session.characterizer)

        def body():
            report = design_run(session, unit_tracer)
            encode_report(report, unit_tracer)
            return report

        report = timed(outcome, unit_tracer, body)
        got, missing = verdicts(report)
        check_verdicts(outcome, got, missing, unbatched, reference, technology.vdd)
        if unit_tracer is not None:
            after = characterizer_snapshot(session.characterizer)
            delta = {key: after[key] - before[key] for key in after}
            delta["clusters"] = len(report.clusters)
            stats_per_unit.append(delta)

    closed_loop(ctx, unit, tracer, outcome)
    outcome.peak_rss_mb = read_rss_mb(os.getpid())
    if tracer is not None:
        analysis_layers(tracer, outcome, _mean_stats(stats_per_unit))
    return outcome


# ---------------------------------------------------------------------------
# eco_service
# ---------------------------------------------------------------------------


def edited_spef(spef: List[str], net: str, factor: float) -> List[str]:
    """The SPEF text with ``net``'s ground capacitance scaled by ``factor``."""
    lines = list(spef)
    start = next(i for i, line in enumerate(lines) if line.startswith(f"*D_NET {net} "))
    ground_index = next(i for i in range(start, len(lines)) if lines[i].startswith(f"1 {net}:1 "))
    ground = float(lines[ground_index].split()[2])
    total = float(lines[start].split()[2])
    layer = lines[start].split("*LAYER")[1].strip()
    lines[start] = f"*D_NET {net} {total + (factor - 1.0) * ground!r} *LAYER {layer}"
    lines[ground_index] = f"1 {net}:1 {factor * ground!r}"
    return lines


def eco_edit_nets(chip, seed: int) -> List[str]:
    """Seed-ordered edge nets with exactly three coupling partners each.

    Every revision edits one of them, so every revision recomputes the
    same number of clusters (the edited net's and its partners').
    """
    import random

    candidates = [chip.net_name(i) for i in range(chip.num_nets) if len(list(chip.neighbors(i))) == 3]
    random.Random(seed).shuffle(candidates)
    return candidates


def revision(spef: List[str], nets: List[str], number: int) -> List[str]:
    """Revision ``number`` (>= 1): base text with one net edited.

    The edit factor grows each time the net list wraps around, so every
    revision's edited clusters are new to the server.
    """
    lap, position = divmod(number - 1, len(nets))
    return edited_spef(spef, nets[position], 1.0 + 0.05 * (lap + 1))


class ServerProcess:
    """An ``AnalysisServer`` in its own process (``serve.py``), one spawn worker."""

    def __init__(self, root: Path, trace_out: Optional[Path] = None):
        command = [sys.executable, str(HERE / "serve.py")]
        if trace_out is not None:
            command += ["--trace-out", str(trace_out)]
        self.process = subprocess.Popen(command, cwd=root, stdout=subprocess.PIPE, text=True)
        line = self.process.stdout.readline().split()
        if len(line) != 3 or line[0] != "READY":
            self.stop()
            raise RuntimeError(f"analysis server did not start: {line}")
        self.address = (line[1], int(line[2]))

    def rss_mb(self) -> float:
        pids = [self.process.pid] + child_pids(self.process.pid)
        return sum(read_rss_mb(pid) for pid in pids)

    def stop(self, client=None) -> None:
        if client is not None and self.process.poll() is None:
            try:
                client.shutdown()
            except Exception:  # the process is killed below either way
                pass
        try:
            self.process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait(timeout=30)
        self.process.stdout.close()


def eco_service(ctx: Context) -> Outcome:
    from repro.api import AnalysisConfig
    from repro.service import ServiceClient, cluster_fingerprint, technology_library_fingerprint
    from repro.sna import StreamingClusterExtractor
    from repro.technology import build_default_library

    outcome = Outcome()
    outcome.setup_s = probe_setup(ctx, "eco_service")
    chip = make_chip(ECO_CHIP, ctx.seed)
    technology = build_default_library("cmos130").technology
    base = list(chip.spef_lines(technology))
    nets = eco_edit_nets(chip, ctx.seed)
    config = AnalysisConfig()
    library_fp = technology_library_fingerprint("cmos130")

    def extract(lines: List[str], tracer: Optional[Tracer] = None) -> List[Tuple[str, object]]:
        stream = StreamingClusterExtractor(chip, technology).extract(iter(lines))
        return [(item.victim_net, item.spec) for item in TracedIterator(tracer, stream, "sna.ingest")]

    def fingerprints(clusters) -> Dict[str, str]:
        return {label: cluster_fingerprint(spec, config, library_fingerprint=library_fp) for label, spec in clusters}

    def digest(report) -> str:
        payload = report.to_json()
        payload["payload"]["fields"]["provenance"] = ""
        return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()

    server_trace = ctx.scratch / "server-trace.json" if ctx.trace else None
    server = ServerProcess(ctx.root, server_trace)
    client = None
    try:
        client = ServiceClient(server.address)
        start = time.perf_counter()
        clusters = extract(base)
        result = client.submit_design(clusters, config=config, design_name="eco_r0")
        outcome.warmup_s = time.perf_counter() - start
        known: Dict[str, str] = {}  # fingerprint -> report digest of its first computation
        base_verdicts, missing = verdicts(result.report)
        for (label, _), fp in zip(clusters, fingerprints(clusters).values()):
            known[fp] = digest(result.report.cluster(label))
        reference = reference_for("eco_service", ctx.seed)
        if missing or result.failed:
            outcome.problems.append(f"revision 0 left victims without a verdict: {missing + result.failed}")
        if reference is not None and reference_mismatches(base_verdicts, reference, technology.vdd):
            outcome.problems.append("revision 0 verdicts outside the reference tolerances")

        tracer = Tracer(install_client_layers) if ctx.trace else None
        per_unit: List[Dict[str, float]] = []

        def unit(index: int, unit_tracer: Optional[Tracer]) -> None:
            lines = revision(base, nets, index + 1)
            before = client.status()["cache_stats"].get("characterizations", 0) if ctx.trace else 0

            def body():
                revised = extract(lines, unit_tracer)
                return revised, client.submit_design(revised, config=config, design_name=f"eco_r{index + 1}")

            revised, result = timed(outcome, unit_tracer, body)
            prints = fingerprints(revised)
            expected_new = {label for label, fp in prints.items() if fp not in known}
            _, missing = verdicts(result.report)
            outcome.attempted += len(revised)
            bad = set(missing) | set(result.failed)
            if set(result.recomputed) != expected_new:
                bad |= set(result.recomputed) ^ expected_new
            for label, fp in prints.items():
                report_digest = digest(result.report.cluster(label))
                if fp in known and known[fp] != report_digest:
                    bad.add(label)
                known.setdefault(fp, report_digest)
            outcome.failed += len(bad)
            outcome.clusters_checked += len(revised) - len(bad)
            if unit_tracer is not None:
                after = client.status()["cache_stats"].get("characterizations", 0)
                per_unit.append(
                    {
                        "recomputed": len(result.recomputed),
                        "reused": len(result.reused),
                        "worker_s": sum(result.report.cluster(label).runtime_seconds for label in result.recomputed),
                        "characterizations": after - before,
                    }
                )

        closed_loop(ctx, unit, tracer, outcome)
        outcome.peak_rss_mb = read_rss_mb(os.getpid()) + server.rss_mb()
        submissions = len(outcome.unit_seconds) + 1
    finally:
        server.stop(client)
        if client is not None:
            client.close()

    if tracer is not None:
        table = tracer.layer_table()
        units = max(1, len(outcome.traced_units))
        layers = outcome.layers
        layers["sna.ingest_s"] = table.get("sna.ingest", {}).get("self_s", 0.0) / units
        layers["service.client_encode_s"] = table.get("service.client_encode", {}).get("self_s", 0.0) / units
        layers["service.client_decode_s"] = table.get("service.client_decode", {}).get("self_s", 0.0) / units
        layers["service.wait_s"] = table.get("service.wait", {}).get("self_s", 0.0) / units
        layers["service.bytes_up"] = table.get("service.client_encode", {}).get("bytes", 0) / units
        layers["service.bytes_down"] = table.get("service.client_decode", {}).get("bytes", 0) / units
        mean = {key: sum(row[key] for row in per_unit) / max(1, len(per_unit)) for key in ("recomputed", "reused", "worker_s", "characterizations")}
        layers["service.recomputed"] = mean["recomputed"]
        layers["service.dedup_hit_ratio"] = mean["reused"] / (mean["reused"] + mean["recomputed"]) if per_unit else 0.0
        layers["service.worker_s"] = mean["worker_s"]
        layers["service.worker_characterizations"] = mean["characterizations"]
        if server_trace is not None and server_trace.exists():
            server_table = json.loads(server_trace.read_text())
            layers["service.fingerprint_s"] = server_table.get("service.fingerprint", {}).get("busy_s", 0.0) / submissions
        coverage(tracer, outcome)
    return outcome


WORKLOADS: Dict[str, Callable[[Context], Outcome]] = {
    "chip_cold": chip_cold,
    "chip_warm": chip_warm,
    "eco_service": eco_service,
}
