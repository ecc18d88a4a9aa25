"""Characterization on lockstep lanes against one-glitch-at-a-time oracles.

NRC bisection runs speculatively (several bisection-tree levels per round of
lanes) and propagation tables run the heights of one width as lanes; both
must reproduce the serial, one-transient-per-point procedure they replaced.
The oracles step every glitch through the per-element Newton loop
(``_run_newton_path``), not through the lane stepper under test.
"""

import numpy as np
import pytest

from repro.characterization import (
    characterize_noise_propagation,
    characterize_nrc,
    simulate_propagated_glitch,
)
from repro.characterization.nrc import _bisect, _midpoints
from repro.characterization.propagation import DEFAULT_GLITCH_DELAY, _GlitchBench
from repro.circuit import TriangularGlitch
from repro.circuit.transient import TransientResult, _run_newton_path, build_time_axis
from repro.technology import build_default_library
from repro.units import fF, ps

#: Coarser than the 2 ps default to keep the serial oracle affordable; the
#: equality being checked does not depend on the step.
DT = ps(4)


@pytest.fixture(scope="module")
def library():
    return build_default_library("cmos130")


def rising_arc(cell):
    arcs = cell.noise_arcs()
    return next((a for a in arcs if a.glitch_rising), arcs[0])


def per_element_glitch(bench, height, width, dt, x0):
    """One glitch on its own, stepped through the per-element Newton loop."""
    circuit = bench.circuit
    circuit[bench.source_name].waveform = TriangularGlitch(
        baseline=bench.quiet_level,
        height=bench.direction * height,
        delay=DEFAULT_GLITCH_DELAY,
        rise=0.5 * width,
        fall=0.5 * width,
    )
    t_stop = DEFAULT_GLITCH_DELAY + 4.0 * width + 300e-12
    times = build_time_axis(circuit, t_stop, dt)
    solutions = np.zeros((len(times), circuit.kernel.n))
    solutions[0] = x0
    _run_newton_path(
        circuit, times, x0, solutions, method="trap", max_newton=50, vtol=1e-6
    )
    out = TransientResult(circuit, times, solutions)["out"]
    return out.glitch_metrics(baseline=bench.vdd if bench.arc.output_high else 0.0)


def serial_nrc_heights(cell, technology, *, dt, load_capacitance=10e-15):
    """The serial bisection: one per-element transient per height."""
    vdd = technology.vdd
    bench = _GlitchBench.build(cell, technology, rising_arc(cell), load_capacitance)
    x0 = bench.operating_point()

    def upset(height, width):
        metrics = per_element_glitch(bench, height, width, dt, x0)
        return abs(metrics.peak) >= 0.5 * vdd

    heights = []
    for width in (ps(50), ps(100), ps(200), ps(350), ps(500)):
        low, high = 0.1 * vdd, 1.5 * vdd
        if not upset(high, width):
            heights.append(high)
            continue
        if upset(low, width):
            heights.append(low)
            continue
        while high - low > 0.01 * vdd:
            middle = 0.5 * (low + high)
            if upset(middle, width):
                high = middle
            else:
                low = middle
        heights.append(0.5 * (low + high))
    return heights


@pytest.mark.parametrize("cell_name", ["INV_X1", "NAND2_X1", "AND2_X1"])
def test_nrc_equals_serial_bisection(library, cell_name):
    cell = library[cell_name]
    nrc = characterize_nrc(cell, library.technology, dt=DT)
    assert nrc.failure_heights.tolist() == serial_nrc_heights(cell, library.technology, dt=DT)


class TestSpeculativeBisection:
    def search(self, threshold, low=0.12, high=1.8, tolerance=0.012):
        rounds = []

        def upsets(heights):
            rounds.append(len(heights))
            return [h >= threshold for h in heights]

        return _bisect(upsets, low, high, tolerance), rounds

    def serial(self, threshold, low=0.12, high=1.8, tolerance=0.012):
        if not high >= threshold:
            return high
        if low >= threshold:
            return low
        while high - low > tolerance:
            middle = 0.5 * (low + high)
            if middle >= threshold:
                high = middle
            else:
                low = middle
        return 0.5 * (low + high)

    @pytest.mark.parametrize("threshold", [0.05, 0.13, 0.5, 0.777, 1.2, 1.79, 2.5])
    def test_same_answer_as_serial_in_two_rounds(self, threshold):
        height, rounds = self.search(threshold)
        assert height == self.serial(threshold)
        assert len(rounds) <= 2

    def test_a_failed_lane_raises_only_when_needed(self):
        def upsets(heights):
            # Every height above 1.0 fails to simulate; bisection toward a
            # low threshold never needs them after the first round.
            return [RuntimeError("no convergence") if h > 1.0 and h != 1.8 else h >= 0.3
                    for h in heights]

        assert _bisect(upsets, 0.12, 1.8, 0.012) == self.serial(0.3)
        with pytest.raises(RuntimeError):
            _bisect(lambda hs: [RuntimeError("boom") for _ in hs], 0.12, 1.8, 0.012)

    def test_midpoints_are_the_serial_tree(self):
        assert _midpoints(0.0, 1.0, 0.3, 2) == [0.5, 0.25, 0.75]
        assert _midpoints(0.0, 1.0, 0.6, 3) == [0.5]


def test_propagation_table_matches_one_transient_per_point(library):
    cell = library["NAND2_X1"]
    tech = library.technology
    arc = cell.noise_arcs(output_high=False)[0]
    heights = np.array([0.3, 0.8, 1.3])
    widths = np.array([ps(60), ps(150)])
    table = characterize_noise_propagation(
        cell, tech, arc, load_capacitance=fF(20), heights=heights, widths=widths, dt=DT
    )
    bench = _GlitchBench.build(cell, tech, arc, fF(20))
    x0 = bench.operating_point()
    for i, height in enumerate(heights):
        for j, width in enumerate(widths):
            metrics = per_element_glitch(bench, height, width, DT, x0)
            assert abs(table.output_peak[i, j] - metrics.peak) <= 1e-12
            assert abs(abs(table.output_area[i, j]) - metrics.area) <= 1e-12
            assert abs(table.output_width[i, j] - metrics.width) <= 1e-12


def test_single_glitch_equals_its_own_transient(library):
    cell = library["INV_X1"]
    tech = library.technology
    arc = rising_arc(cell)
    waveform, metrics = simulate_propagated_glitch(
        cell, tech, arc, glitch_height=0.9, glitch_width=ps(120), load_capacitance=fF(10), dt=DT
    )
    bench = _GlitchBench.build(cell, tech, arc, fF(10))
    reference = per_element_glitch(bench, 0.9, ps(120), DT, bench.operating_point())
    assert metrics.peak == reference.peak
    assert metrics.area == reference.area
