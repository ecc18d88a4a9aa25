"""Pre-characterised noise-propagation tables.

Conventional SNA flows (and the linear-superposition baseline the paper
criticises) obtain the noise that propagates from the input to the output of
the victim driver from pre-characterised tables as a function of the input
glitch height and width.  This module builds those tables by transient
simulation of the transistor-level cell driving a nominal capacitive load.

The table rows/columns are input glitch height (volts of excursion from the
quiescent input level) and width (seconds, base of the triangular glitch);
each entry stores the resulting output glitch peak, area and width.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from ..circuit.dc import dc_operating_point
from ..circuit.netlist import Circuit
from ..circuit.sources import TriangularGlitch
# ``transient`` stays in this namespace for tools that wrap it per module.
from ..circuit.transient import transient, transient_lanes  # noqa: F401
from ..technology.cells import NoiseArc, StandardCell
from ..technology.process import Technology
from ..units import ps
from ..waveform import GlitchMetrics, Waveform

__all__ = ["NoisePropagationTable", "characterize_noise_propagation", "simulate_propagated_glitch"]

#: Quiet settling time before the input glitch is applied (shared by the
#: single-point simulation and the table sweep).
DEFAULT_GLITCH_DELAY = 50e-12


@dataclass(frozen=True)
class NoisePropagationTable:
    """Output glitch (peak / area / width) vs input glitch (height, width)."""

    input_heights: np.ndarray
    input_widths: np.ndarray
    output_peak: np.ndarray
    output_area: np.ndarray
    output_width: np.ndarray
    cell_name: str = ""
    input_pin: str = "A"
    output_high: bool = False
    load_capacitance: float = 0.0
    vdd: float = 1.2

    def __post_init__(self):
        heights = np.asarray(self.input_heights, dtype=float)
        widths = np.asarray(self.input_widths, dtype=float)
        for field_name in ("output_peak", "output_area", "output_width"):
            table = np.asarray(getattr(self, field_name), dtype=float)
            if table.shape != (heights.size, widths.size):
                raise ValueError(
                    f"{field_name} shape {table.shape} does not match grids "
                    f"({heights.size}, {widths.size})"
                )
            object.__setattr__(self, field_name, table)
        object.__setattr__(self, "input_heights", heights)
        object.__setattr__(self, "input_widths", widths)

    def _interp(self, table: np.ndarray, height: float, width: float) -> float:
        h = np.clip(height, self.input_heights[0], self.input_heights[-1])
        w = np.clip(width, self.input_widths[0], self.input_widths[-1])
        i = int(np.searchsorted(self.input_heights, h) - 1)
        i = max(0, min(i, self.input_heights.size - 2))
        j = int(np.searchsorted(self.input_widths, w) - 1)
        j = max(0, min(j, self.input_widths.size - 2))
        fu = (h - self.input_heights[i]) / (self.input_heights[i + 1] - self.input_heights[i])
        fv = (w - self.input_widths[j]) / (self.input_widths[j + 1] - self.input_widths[j])
        return float(
            table[i, j] * (1 - fu) * (1 - fv)
            + table[i + 1, j] * fu * (1 - fv)
            + table[i, j + 1] * (1 - fu) * fv
            + table[i + 1, j + 1] * fu * fv
        )

    def lookup(self, height: float, width: float) -> Tuple[float, float, float]:
        """Return ``(peak, area, width)`` of the propagated output glitch."""
        return (
            self._interp(self.output_peak, height, width),
            self._interp(self.output_area, height, width),
            self._interp(self.output_width, height, width),
        )

    def propagated_waveform(
        self,
        height: float,
        width: float,
        *,
        start_time: float,
        baseline: float = 0.0,
    ) -> Waveform:
        """Reconstruct the propagated output glitch as a triangular waveform.

        This is how table-based SNA tools re-inject the propagated noise for
        combination with the crosstalk-injected noise: a triangle with the
        looked-up peak and a base width chosen to preserve the looked-up
        area.  The glitch polarity is the sign of the stored peak.
        """
        peak, area, out_width = self.lookup(height, width)
        if abs(peak) < 1e-12:
            return Waveform.constant(baseline, start_time, start_time + max(width, ps(1)))
        base_width = 2.0 * abs(area / peak) if peak != 0.0 else out_width
        base_width = max(base_width, 1e-13)
        rise = 0.5 * base_width
        fall = 0.5 * base_width
        return Waveform.triangular_glitch(
            baseline=baseline,
            peak=peak,
            t_start=start_time,
            rise=rise,
            fall=fall,
            pre=start_time * 0.0,
            post=2.0 * base_width,
        )

    def describe(self) -> str:
        return (
            f"NoisePropagationTable({self.cell_name}, pin {self.input_pin}, "
            f"{self.input_heights.size}x{self.input_widths.size} points, "
            f"CL={self.load_capacitance / 1e-15:.1f} fF)"
        )


@dataclass
class _GlitchBench:
    """The cell + load test bench of one noise arc.

    The glitch source carries a zero-excursion placeholder; each simulation
    passes its triangular glitches as lanes of
    :func:`~repro.circuit.transient.transient_lanes`, so the topology -- and
    therefore the compiled stamping kernel -- stays valid across an entire
    characterisation sweep.  The glitch starts after ``t = 0`` at the quiet
    input level, so every glitch shares the placeholder's DC operating point.
    """

    circuit: Circuit
    source_name: str
    arc: NoiseArc
    vdd: float
    quiet_level: float
    direction: float

    @classmethod
    def build(
        cls,
        cell: StandardCell,
        technology: Technology,
        arc: NoiseArc,
        load_capacitance: float,
    ) -> "_GlitchBench":
        vdd = technology.vdd
        quiet_inputs = arc.input_state()
        input_quiet_level = vdd if quiet_inputs[arc.input_pin] else 0.0

        circuit = Circuit(f"prop_{cell.name}_{arc.input_pin}")
        circuit.add_voltage_source("VDD", "vdd", "0", vdd)
        pin_nodes = {cell.output_pin: "out"}
        glitch_source_name = ""
        for pin in cell.inputs:
            node = f"in_{pin}"
            pin_nodes[pin] = node
            if pin == arc.input_pin:
                glitch_source_name = f"V_{pin}"
                circuit.add_voltage_source(glitch_source_name, node, "0", input_quiet_level)
            else:
                circuit.add_voltage_source(
                    f"V_{pin}", node, "0", vdd if quiet_inputs[pin] else 0.0
                )
        cell.instantiate(circuit, "DUT", pin_nodes, technology)
        circuit.add_capacitor("CLOAD", "out", "0", load_capacitance)
        direction = 1.0 if arc.glitch_rising else -1.0
        return cls(circuit, glitch_source_name, arc, vdd, input_quiet_level, direction)

    def operating_point(self) -> np.ndarray:
        """The quiet DC operating point every glitch simulation starts from."""
        return np.array(dc_operating_point(self.circuit).x, copy=True)

    def simulate(
        self,
        heights: Sequence[float],
        width: float,
        *,
        dt: float,
        glitch_delay: float = DEFAULT_GLITCH_DELAY,
        t_stop: Optional[float] = None,
        x0: Optional[np.ndarray] = None,
    ) -> List[Union[Tuple[Waveform, GlitchMetrics], Exception]]:
        """Glitches of one ``width`` and several ``heights``, as lockstep lanes.

        Returns, per height, the output waveform and its glitch metrics
        (relative to the quiescent output level), or the exception that
        height's simulation failed with.
        """
        if t_stop is None:
            t_stop = glitch_delay + 4.0 * width + 300e-12
        lanes = [
            {
                self.source_name: TriangularGlitch(
                    baseline=self.quiet_level,
                    height=self.direction * height,
                    delay=glitch_delay,
                    rise=0.5 * width,
                    fall=0.5 * width,
                )
            }
            for height in heights
        ]
        quiescent_output = self.vdd if self.arc.output_high else 0.0
        outcomes: List[Union[Tuple[Waveform, GlitchMetrics], Exception]] = []
        for result in transient_lanes(self.circuit, t_stop, dt, lanes, x0=x0):
            if isinstance(result, Exception):
                outcomes.append(result)
            else:
                out = result["out"]
                outcomes.append((out, out.glitch_metrics(baseline=quiescent_output)))
        return outcomes


def _settled(outcome):
    """The ``(waveform, metrics)`` of a lane, raising its failure if any."""
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def simulate_propagated_glitch(
    cell: StandardCell,
    technology: Technology,
    arc: NoiseArc,
    glitch_height: float,
    glitch_width: float,
    *,
    load_capacitance: float = 20e-15,
    dt: float = 1e-12,
    glitch_delay: float = DEFAULT_GLITCH_DELAY,
    t_stop: Optional[float] = None,
) -> Tuple[Waveform, GlitchMetrics]:
    """Transient simulation of one input glitch propagating through a cell.

    Returns the output waveform and its glitch metrics (relative to the
    quiescent output level).
    """
    bench = _GlitchBench.build(cell, technology, arc, load_capacitance)
    (outcome,) = bench.simulate(
        [glitch_height], glitch_width, dt=dt, glitch_delay=glitch_delay, t_stop=t_stop
    )
    return _settled(outcome)


def characterize_noise_propagation(
    cell: StandardCell,
    technology: Technology,
    arc: NoiseArc,
    *,
    load_capacitance: float = 20e-15,
    heights: Optional[Sequence[float]] = None,
    widths: Optional[Sequence[float]] = None,
    dt: float = 2e-12,
) -> NoisePropagationTable:
    """Build the propagated-noise table for one cell arc.

    ``heights`` defaults to 6 points between 20 % and 120 % of the supply;
    ``widths`` to 5 points between 50 ps and 400 ps.
    """
    vdd = technology.vdd
    if heights is None:
        heights = np.linspace(0.2 * vdd, 1.2 * vdd, 6)
    if widths is None:
        widths = np.array([ps(50), ps(100), ps(200), ps(300), ps(400)])
    heights = np.asarray(heights, dtype=float)
    widths = np.asarray(widths, dtype=float)

    # One test bench and one DC operating point for the whole sweep; the
    # heights of one width share a time axis and run as lockstep lanes.
    bench = _GlitchBench.build(cell, technology, arc, load_capacitance)
    x0 = bench.operating_point()

    peak = np.zeros((heights.size, widths.size))
    area = np.zeros_like(peak)
    out_width = np.zeros_like(peak)
    for j, width in enumerate(widths):
        outcomes = bench.simulate(heights, float(width), dt=dt, x0=x0)
        for i, outcome in enumerate(outcomes):
            _, metrics = _settled(outcome)
            peak[i, j] = metrics.peak
            area[i, j] = metrics.area * (1.0 if metrics.peak >= 0 else -1.0)
            out_width[i, j] = metrics.width

    return NoisePropagationTable(
        input_heights=heights,
        input_widths=widths,
        output_peak=peak,
        output_area=np.abs(area) * np.sign(peak + 1e-30),
        output_width=out_width,
        cell_name=cell.name,
        input_pin=arc.input_pin,
        output_high=arc.output_high,
        load_capacitance=load_capacitance,
        vdd=vdd,
    )
