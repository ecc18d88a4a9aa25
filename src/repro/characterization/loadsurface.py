"""DC characterisation of the victim driver: the VCCS load surface.

This is the pre-characterisation step at the heart of the paper's
macromodel (equation (1)):

    I_DC = f(V_in, V_out)

For a given cell, noise arc (noisy input pin + quiescent side-input values)
and technology, a DC analysis is run on the transistor-level cell for every
point of a (V_in, V_out) grid spanning the "characterisation range
corresponding to the typical voltage swing of the technology".  The measured
quantity is the current the cell injects into its output node, i.e. the
current that flows from the output node through the forcing voltage source to
ground.

The resulting :class:`VCCSLoadSurface` supports bilinear interpolation with
analytic gradients, which is exactly what the macromodel engine needs to
stamp the non-linear VCCS at every Newton iteration.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import List, Mapping, Optional, Tuple

import numpy as np

from ..circuit.dc import ConvergenceError, dc_operating_point
from ..circuit.netlist import Circuit
from ..technology.cells import NoiseArc, StandardCell
from ..technology.process import Technology

__all__ = ["VCCSLoadSurface", "characterize_load_surface"]


@dataclass(frozen=True)
class VCCSLoadSurface:
    """A table-based non-linear VCCS ``I_DC = f(V_in, V_out)``.

    Attributes
    ----------
    vin_grid / vout_grid:
        Monotonically increasing grid vectors (volts).
    current:
        2-D array of shape ``(len(vin_grid), len(vout_grid))`` with the
        current the cell injects into its output node (amperes; negative when
        the cell sinks current, e.g. an NMOS stack holding the output low
        while the output voltage is pushed above ground).
    cell_name / input_pin:
        Identification of the characterised arc.
    side_inputs:
        Quiescent logic values of the non-noisy input pins.
    vdd:
        Supply voltage used during characterisation.
    """

    vin_grid: np.ndarray
    vout_grid: np.ndarray
    current: np.ndarray
    cell_name: str = ""
    input_pin: str = "A"
    side_inputs: Tuple[Tuple[str, bool], ...] = ()
    vdd: float = 1.2

    def __post_init__(self):
        vin = np.asarray(self.vin_grid, dtype=float)
        vout = np.asarray(self.vout_grid, dtype=float)
        cur = np.asarray(self.current, dtype=float)
        if vin.ndim != 1 or vout.ndim != 1:
            raise ValueError("grids must be one-dimensional")
        if cur.shape != (vin.size, vout.size):
            raise ValueError(
                f"current table shape {cur.shape} does not match grids "
                f"({vin.size}, {vout.size})"
            )
        if np.any(np.diff(vin) <= 0) or np.any(np.diff(vout) <= 0):
            raise ValueError("grids must be strictly increasing")
        object.__setattr__(self, "vin_grid", vin)
        object.__setattr__(self, "vout_grid", vout)
        object.__setattr__(self, "current", cur)
        # Python-list twins of the grids for the per-query cell search (not
        # dataclass fields: equality, hashing and the disk format ignore them).
        object.__setattr__(self, "_vin_points", vin.tolist())
        object.__setattr__(self, "_vout_points", vout.tolist())

    # ------------------------------------------------------------ interpolation

    @staticmethod
    def _locate(grid: List[float], value: float) -> Tuple[int, float]:
        """Cell index and fractional position of ``value`` in ``grid``.

        The index is clamped to the boundary cells but the fractional
        position is *not* clamped, so queries outside the characterised range
        extrapolate linearly from the edge cell.  Linear extrapolation keeps
        the surface's output conductance non-zero outside the table, which is
        both closer to the device physics (the channel current keeps growing
        with overdrive) and essential for Newton stability in the engines.

        ``bisect_left`` on the cached point list is
        ``np.searchsorted(side="left")`` without the array round trip; NaN
        sorts last, as it does for ``searchsorted``.
        """
        size = len(grid)
        idx = bisect_left(grid, value) - 1 if value == value else size - 1
        idx = max(0, min(idx, size - 2))
        span = grid[idx + 1] - grid[idx]
        frac = (value - grid[idx]) / span
        return idx, frac

    def evaluate(self, vin: float, vout: float) -> Tuple[float, float, float]:
        """Bilinear interpolation: returns ``(i, di/dvin, di/dvout)``.

        Inside the grid this is plain bilinear interpolation; outside it the
        edge cell is extended linearly (see :meth:`_locate`).
        """
        i_idx, fu = self._locate(self._vin_points, vin)
        j_idx, fv = self._locate(self._vout_points, vout)
        f00 = self.current[i_idx, j_idx]
        f10 = self.current[i_idx + 1, j_idx]
        f01 = self.current[i_idx, j_idx + 1]
        f11 = self.current[i_idx + 1, j_idx + 1]
        value = (
            f00 * (1 - fu) * (1 - fv)
            + f10 * fu * (1 - fv)
            + f01 * (1 - fu) * fv
            + f11 * fu * fv
        )
        dvin_span = self._vin_points[i_idx + 1] - self._vin_points[i_idx]
        dvout_span = self._vout_points[j_idx + 1] - self._vout_points[j_idx]
        d_du = ((f10 - f00) * (1 - fv) + (f11 - f01) * fv) / dvin_span
        d_dv = ((f01 - f00) * (1 - fu) + (f11 - f10) * fu) / dvout_span
        return float(value), float(d_du), float(d_dv)

    def __call__(self, vin: float, vout: float) -> float:
        return self.evaluate(vin, vout)[0]

    # ------------------------------------------------------------ derived data

    def output_conductance(self, vin: float, vout: float) -> float:
        """Small-signal output conductance ``-dI/dVout`` at a bias point.

        For a cell holding its output, the injected current decreases as the
        output is pushed away from the rail, so this value is positive.
        """
        _, _, didvout = self.evaluate(vin, vout)
        return -didvout

    def holding_resistance(self, vin: float, vout: float) -> float:
        """Holding resistance ``1 / output_conductance`` at a bias point."""
        g = self.output_conductance(vin, vout)
        if g <= 0.0:
            return float("inf")
        return 1.0 / g

    def quiet_output_voltage(self, vin: float) -> float:
        """Output voltage where the injected current is zero for a given input.

        Found by scanning the characterised ``V_out`` grid for the zero
        crossing of the current; this is the DC operating point of the loaded
        cell with an ideal (open) load.
        """
        currents = np.array([self(vin, vout) for vout in self.vout_grid])
        signs = np.sign(currents)
        for j in range(len(currents) - 1):
            if signs[j] == 0.0:
                return float(self.vout_grid[j])
            if signs[j] * signs[j + 1] < 0:
                c0, c1 = currents[j], currents[j + 1]
                frac = c0 / (c0 - c1)
                return float(self.vout_grid[j] + frac * (self.vout_grid[j + 1] - self.vout_grid[j]))
        # No crossing: the output rail closest to zero current.
        return float(self.vout_grid[int(np.argmin(np.abs(currents)))])

    def describe(self) -> str:
        side = ", ".join(f"{k}={int(v)}" for k, v in self.side_inputs)
        return (
            f"VCCSLoadSurface({self.cell_name}, pin {self.input_pin}, side [{side}], "
            f"{self.vin_grid.size}x{self.vout_grid.size} points)"
        )


def characterize_load_surface(
    cell: StandardCell,
    technology: Technology,
    *,
    input_pin: Optional[str] = None,
    side_inputs: Optional[Mapping[str, bool]] = None,
    arc: Optional[NoiseArc] = None,
    num_vin: int = 17,
    num_vout: int = 17,
    margin: float = 0.2,
) -> VCCSLoadSurface:
    """Characterise the VCCS load surface of a cell arc by DC sweeps.

    Either pass ``arc`` (a :class:`~repro.technology.cells.NoiseArc`) or the
    ``input_pin`` / ``side_inputs`` pair explicitly.

    Parameters
    ----------
    num_vin / num_vout:
        Grid resolution.  17 x 17 reproduces the paper's "simple DC analysis"
        pre-characterisation at negligible cost; the ablation benchmark
        sweeps this parameter.
    margin:
        Fractional extension of the sweep beyond the rails (0.2 = from
        -0.2*VDD to 1.2*VDD), covering overshoot conditions.
    """
    if arc is not None:
        input_pin = arc.input_pin
        side_inputs = arc.side_inputs_dict
    if input_pin is None:
        input_pin = cell.inputs[0]
    side_inputs = dict(side_inputs or {})
    for pin in cell.inputs:
        if pin != input_pin and pin not in side_inputs:
            raise ValueError(f"side input '{pin}' of {cell.name} has no quiescent value")

    vdd = technology.vdd
    v_low, v_high = technology.characterization_voltage_range(margin)
    vin_grid = np.linspace(v_low, v_high, num_vin)
    vout_grid = np.linspace(v_low, v_high, num_vout)

    # Build the characterisation circuit once; the swept sources are updated
    # in place between DC solves.
    circuit = Circuit(f"char_{cell.name}_{input_pin}")
    circuit.add_voltage_source("VDD", "vdd", "0", vdd)
    vin_source = circuit.add_voltage_source("VIN", "in", "0", 0.0)
    vout_source = circuit.add_voltage_source("VOUT", "out", "0", 0.0)
    for pin, value in side_inputs.items():
        circuit.add_voltage_source(f"VSIDE_{pin}", f"side_{pin}", "0", vdd if value else 0.0)

    pin_nodes = {input_pin: "in", cell.output_pin: "out"}
    for pin in side_inputs:
        pin_nodes[pin] = f"side_{pin}"
    cell.instantiate(circuit, "DUT", pin_nodes, technology)

    current = np.zeros((num_vin, num_vout))
    previous_solution = None
    for i, vin in enumerate(vin_grid):
        for j, vout in enumerate(vout_grid):
            vin_source.waveform = _dc(vin)
            vout_source.waveform = _dc(vout)
            try:
                solution = dc_operating_point(circuit, x0=previous_solution)
            except ConvergenceError:
                solution = dc_operating_point(circuit)
            previous_solution = solution.x
            # SPICE convention: positive source current flows from the +
            # terminal through the source, i.e. from the output node to
            # ground -- which is the current the cell injects into the node.
            current[i, j] = solution.source_current("VOUT")

    return VCCSLoadSurface(
        vin_grid=vin_grid,
        vout_grid=vout_grid,
        current=current,
        cell_name=cell.name,
        input_pin=input_pin,
        side_inputs=tuple(sorted(side_inputs.items())),
        vdd=vdd,
    )


def _dc(value: float):
    from ..circuit.sources import DCValue

    return DCValue(float(value))
