"""Thevenin (saturated ramp + resistance) models of switching drivers.

The aggressor drivers of a noise cluster are represented -- as in the paper
and in [7] (Dartu & Pileggi) -- by a linear Thevenin equivalent: a saturated
voltage ramp ``V_TH(t)`` in series with a driving resistance ``R_TH``.

The characterisation proceeds in two steps:

1. ``R_TH`` is measured with a DC analysis: the cell's inputs are set to the
   values that produce the output transition, the output is forced to half
   the supply and the injected current is measured -- the resistance is the
   remaining voltage excursion divided by that current (the classical
   mid-swing output resistance).

2. The ramp's transition time and delay are fitted so that the analytic
   response of the ``R_TH`` / load-capacitance circuit to the saturated ramp
   reproduces the 20 % and 80 % crossing times of the transistor-level
   driver's transient response into the same load.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Tuple

import numpy as np
from scipy.optimize import brentq, least_squares

from ..circuit.dc import dc_operating_point
from ..circuit.netlist import Circuit
from ..circuit.sources import DCValue, SaturatedRamp
from ..circuit.transient import transient
from ..technology.cells import StandardCell
from ..technology.process import Technology
from ..units import ps
from ..waveform import Waveform

__all__ = [
    "TheveninDriverModel",
    "characterize_thevenin_driver",
    "quiet_driver_resistance",
    "SwitchingSetup",
    "switching_input_setup",
]


@dataclass(frozen=True)
class SwitchingSetup:
    """How to drive a cell so its output makes a given transition.

    Attributes
    ----------
    input_pin:
        The switching input pin.
    input_start / input_end:
        Voltages of that pin before and after the transition.
    side_inputs:
        Static logic values of the remaining input pins.
    final_state:
        Full logic input state after the transition (used for DC output
        resistance measurements).
    """

    input_pin: str
    input_start: float
    input_end: float
    side_inputs: Dict[str, bool]
    final_state: Dict[str, bool]


def switching_input_setup(
    cell: "StandardCell",
    technology: "Technology",
    *,
    rising: bool,
    input_pin: Optional[str] = None,
    side_inputs: Optional[Mapping[str, bool]] = None,
) -> SwitchingSetup:
    """Determine input drive conditions for a rising/falling output transition.

    Chooses (or validates) the switching pin, fills in sensitising side-input
    values and returns the start/end input voltages that produce the
    requested output transition direction.
    """
    vdd = technology.vdd
    input_pin = input_pin or cell.inputs[0]
    if side_inputs is None:
        side_inputs = {}
        for arc in cell.noise_arcs():
            if arc.input_pin == input_pin:
                side_inputs = arc.side_inputs_dict
                break
        for pin in cell.inputs:
            if pin != input_pin and pin not in side_inputs:
                side_inputs[pin] = True
    side_inputs = dict(side_inputs)

    state_high_in = dict(side_inputs)
    state_high_in[input_pin] = True
    state_low_in = dict(side_inputs)
    state_low_in[input_pin] = False
    if cell.logic(state_high_in) == rising and cell.logic(state_low_in) != rising:
        return SwitchingSetup(input_pin, 0.0, vdd, side_inputs, state_high_in)
    if cell.logic(state_low_in) == rising and cell.logic(state_high_in) != rising:
        return SwitchingSetup(input_pin, vdd, 0.0, side_inputs, state_low_in)
    raise ValueError(
        f"input '{input_pin}' of {cell.name} cannot produce a "
        f"{'rising' if rising else 'falling'} output with side inputs {side_inputs}"
    )


@dataclass(frozen=True)
class TheveninDriverModel:
    """A switching driver modelled as a saturated ramp behind a resistance."""

    v_start: float
    v_end: float
    delay: float
    transition: float
    resistance: float
    cell_name: str = ""

    @property
    def rising(self) -> bool:
        return self.v_end > self.v_start

    def ramp(self, extra_delay: float = 0.0) -> SaturatedRamp:
        """The Thevenin voltage source waveform (optionally shifted in time)."""
        return SaturatedRamp(self.v_start, self.v_end, self.delay + extra_delay, self.transition)

    def instantiate(
        self,
        circuit: Circuit,
        name: str,
        output_node: str,
        *,
        extra_delay: float = 0.0,
        gnd_node: str = "0",
    ) -> None:
        """Add the Thevenin source + resistance driving ``output_node``."""
        internal = f"{name}.th"
        circuit.add_voltage_source(f"{name}.VTH", internal, gnd_node, self.ramp(extra_delay))
        circuit.add_resistor(f"{name}.RTH", internal, output_node, self.resistance)

    def describe(self) -> str:
        direction = "rising" if self.rising else "falling"
        return (
            f"TheveninDriver({self.cell_name}, {direction}, R={self.resistance:.1f} ohm, "
            f"transition={self.transition / ps(1):.1f} ps, delay={self.delay / ps(1):.1f} ps)"
        )


def _ramp_rc_response(t: np.ndarray, t0: float, transition: float, tau: float) -> np.ndarray:
    """Normalised (0 -> 1) response of an RC load to a saturated ramp.

    The ramp starts at ``t0``, reaches 1 at ``t0 + transition``; ``tau`` is the
    ``R_TH * C_load`` time constant.
    """
    t_rel = np.asarray(t, dtype=float) - t0
    v = np.zeros_like(t_rel)
    slope = 1.0 / transition
    during = (t_rel > 0) & (t_rel <= transition)
    after = t_rel > transition
    v[during] = slope * (t_rel[during] - tau * (1.0 - np.exp(-t_rel[during] / tau)))
    v_end_of_ramp = slope * (transition - tau * (1.0 - np.exp(-transition / tau)))
    v[after] = 1.0 - (1.0 - v_end_of_ramp) * np.exp(-(t_rel[after] - transition) / tau)
    return v


def _crossing_time(t0: float, transition: float, tau: float, level: float, t_max: float) -> float:
    """Time at which the normalised ramp-RC response crosses ``level``."""

    def f(t):
        return float(_ramp_rc_response(np.array([t]), t0, transition, tau)[0]) - level

    lo = t0 + 1e-18
    hi = t_max
    # Expand hi if needed (slow drivers).
    while f(hi) < 0.0 and hi < 100.0 * t_max:
        hi *= 2.0
    return brentq(f, lo, hi, xtol=1e-16)


def quiet_driver_resistance(
    cell: StandardCell,
    technology: Technology,
    input_values: Mapping[str, bool],
    *,
    vout_probe: Optional[float] = None,
) -> float:
    """Small-signal output (holding) resistance of a cell for static inputs.

    The inputs are held at the given logic values, the output is forced a
    small excursion away from its quiescent rail and the injected current is
    measured.  Used both for aggressor ``R_TH`` estimation and for the victim
    holding resistance of the linear-superposition baseline.
    """
    vdd = technology.vdd
    output_high = cell.logic(input_values)
    quiescent = vdd if output_high else 0.0
    if vout_probe is None:
        vout_probe = quiescent - 0.5 * vdd if output_high else quiescent + 0.5 * vdd

    circuit = Circuit(f"rout_{cell.name}")
    circuit.add_voltage_source("VDD", "vdd", "0", vdd)
    pin_nodes = {cell.output_pin: "out"}
    for pin in cell.inputs:
        node = f"in_{pin}"
        pin_nodes[pin] = node
        circuit.add_voltage_source(f"V_{pin}", node, "0", vdd if input_values[pin] else 0.0)
    vout_source = circuit.add_voltage_source("VOUT", "out", "0", DCValue(vout_probe))
    cell.instantiate(circuit, "DUT", pin_nodes, technology)

    solution = dc_operating_point(circuit)
    injected = solution.source_current("VOUT")
    delta_v = quiescent - vout_probe
    if abs(injected) < 1e-15:
        return float("inf")
    return abs(delta_v / injected)


def characterize_thevenin_driver(
    cell: StandardCell,
    technology: Technology,
    *,
    rising: bool = True,
    input_pin: Optional[str] = None,
    side_inputs: Optional[Mapping[str, bool]] = None,
    load_capacitance: float = 20e-15,
    input_transition: float = 30e-12,
    dt: float = 1e-12,
    cell_name: Optional[str] = None,
) -> TheveninDriverModel:
    """Fit a Thevenin driver model for a switching cell.

    Parameters
    ----------
    rising:
        Direction of the *output* transition being modelled.
    input_pin:
        The switching input (defaults to the first input).  ``side_inputs``
        must sensitise the arc; by default they are chosen automatically from
        the cell's noise arcs.
    load_capacitance:
        Test load used for the fit.  Use a value close to the capacitance the
        driver will actually see for best accuracy (the calling code passes
        the victim/aggressor net capacitance).
    input_transition:
        Transition time of the saturated ramp applied to the switching input.
    """
    vdd = technology.vdd
    setup = switching_input_setup(
        cell, technology, rising=rising, input_pin=input_pin, side_inputs=side_inputs
    )
    input_pin = setup.input_pin
    side_inputs = setup.side_inputs
    input_start, input_end = setup.input_start, setup.input_end

    # --- step 1: R_TH from a DC measurement at mid swing ---------------------
    resistance = quiet_driver_resistance(
        cell, technology, setup.final_state, vout_probe=0.5 * vdd
    )

    # --- step 2: transient of the transistor-level driver --------------------
    circuit = Circuit(f"thevenin_{cell.name}")
    circuit.add_voltage_source("VDD", "vdd", "0", vdd)
    delay = 5.0 * input_transition
    pin_nodes = {cell.output_pin: "out"}
    for pin in cell.inputs:
        node = f"in_{pin}"
        pin_nodes[pin] = node
        if pin == input_pin:
            circuit.add_voltage_source(
                f"V_{pin}", node, "0", SaturatedRamp(input_start, input_end, delay, input_transition)
            )
        else:
            circuit.add_voltage_source(
                f"V_{pin}", node, "0", vdd if side_inputs[pin] else 0.0
            )
    cell.instantiate(circuit, "DUT", pin_nodes, technology)
    circuit.add_capacitor("CLOAD", "out", "0", load_capacitance)

    tau_estimate = resistance * load_capacitance
    t_stop = delay + input_transition + max(10.0 * tau_estimate, 200e-12)
    # The DUT makes this circuit nonlinear, so the run takes the Newton path;
    # the compiled kernel still caches the linear base matrix so each
    # iteration only re-stamps the cell's transistors.
    result = transient(circuit, t_stop=t_stop, dt=dt)
    out = result["out"]

    # Normalise the output waveform to a 0 -> 1 swing in the transition
    # direction so rising and falling cases share the fitting code.
    if rising:
        normalised = Waveform(out.times, (out.values - 0.0) / vdd)
    else:
        normalised = Waveform(out.times, (vdd - out.values) / vdd)

    t20 = _first_crossing(normalised, 0.2)
    t50 = _first_crossing(normalised, 0.5)
    t80 = _first_crossing(normalised, 0.8)
    if t20 is None or t50 is None or t80 is None or t80 <= t20:
        raise RuntimeError(
            f"could not measure the output transition of {cell.name} "
            "(check the arc sensitisation and load)"
        )

    # Jointly fit the effective driving resistance and the ramp transition so
    # that the analytic ramp-RC response reproduces the measured 20/50/80 %
    # crossing spreads; the DC mid-swing resistance is only the starting
    # point (it tends to overestimate the effective switching resistance of a
    # strongly non-linear driver).  The delay is then set to align the 50 %
    # crossing exactly.
    measured_spread_2080 = t80 - t20
    measured_spread_2050 = t50 - t20

    def residuals(params):
        log_r, log_t = params
        r = math.exp(log_r)
        trans = math.exp(log_t)
        tau_fit = max(r * load_capacitance, 1e-16)
        c20 = _crossing_time(0.0, trans, tau_fit, 0.2, t_stop)
        c50 = _crossing_time(0.0, trans, tau_fit, 0.5, t_stop)
        c80 = _crossing_time(0.0, trans, tau_fit, 0.8, t_stop)
        return [
            ((c80 - c20) - measured_spread_2080) / measured_spread_2080,
            ((c50 - c20) - measured_spread_2050) / max(measured_spread_2050, 1e-15),
        ]

    start = [math.log(max(resistance, 1.0)), math.log(max(measured_spread_2080, 1e-12))]
    fit = least_squares(residuals, start, xtol=1e-12, ftol=1e-12, max_nfev=200)
    resistance_fit = float(math.exp(fit.x[0]))
    transition_fit = float(math.exp(fit.x[1]))

    tau_fit = max(resistance_fit * load_capacitance, 1e-16)
    model_t50 = _crossing_time(0.0, transition_fit, tau_fit, 0.5, t_stop)
    # The fitted delay is expressed relative to the start of the *input*
    # transition, so callers can place the model at an arbitrary input
    # switching instant via ``ramp(extra_delay=input_switch_time)``.
    delay_fit = (t50 - model_t50) - delay

    v_start, v_end = (0.0, vdd) if rising else (vdd, 0.0)
    return TheveninDriverModel(
        v_start=v_start,
        v_end=v_end,
        delay=delay_fit,
        transition=transition_fit,
        resistance=resistance_fit,
        cell_name=cell_name or cell.name,
    )


def _first_crossing(waveform: Waveform, level: float) -> Optional[float]:
    crossings = waveform.crossings(level)
    return crossings[0] if crossings else None
