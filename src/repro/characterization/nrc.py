"""Noise Rejection Curves (dynamic noise margins).

The paper's SNA flow compares the combined noise glitch at the victim
receiver against *dynamic noise margins* represented by a Noise Rejection
Curve (NRC, [4]): for every glitch width there is a maximum glitch height the
receiving cell can tolerate before the disturbance propagates as a (possibly
latched) logic error.  Points above the curve are failures.

The curve is characterised per receiver cell and input pin by bisection on
the glitch height: a triangular glitch of the given width is applied to the
receiver input and the receiver output is observed; the failure criterion is
an output excursion beyond half the supply (the standard "unity gain /
switching threshold" criterion used when no downstream latch model is
available).

The bisection is speculative.  Heights of one width share a time axis, so
each round simulates, as lockstep lanes of one transient, every midpoint the
serial bisection could visit in its next :data:`SPECULATION_DEPTH` steps
(the first round adds the two search bounds), then walks that tree with the
results.  The midpoints use the serial ``0.5 * (low + high)`` arithmetic and
each lane equals its height simulated alone, so the curve is exactly the
serial bisection's -- two runs per width (17 lanes, then 15) instead of ten
simulations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from ..technology.cells import NoiseArc, StandardCell
from ..technology.process import Technology
from ..units import ps
from .propagation import _GlitchBench, _settled

__all__ = ["NoiseRejectionCurve", "characterize_nrc"]

#: Bisection steps resolved per round of lockstep lanes.  A depth-4 tree is
#: 15 midpoints, so the 8 steps to 1 % of the supply take two rounds; one
#: stacked iteration over 17 lanes costs about 1.2 times one over 9, which
#: makes this faster than three rounds of depth 3.
SPECULATION_DEPTH = 4


@dataclass(frozen=True)
class NoiseRejectionCurve:
    """Maximum tolerable glitch height as a function of glitch width."""

    widths: np.ndarray
    failure_heights: np.ndarray
    cell_name: str = ""
    input_pin: str = "A"
    vdd: float = 1.2
    criterion: str = "half-vdd"

    def __post_init__(self):
        widths = np.asarray(self.widths, dtype=float)
        heights = np.asarray(self.failure_heights, dtype=float)
        if widths.ndim != 1 or widths.shape != heights.shape:
            raise ValueError("widths and failure_heights must be 1-D arrays of equal length")
        if np.any(np.diff(widths) <= 0):
            raise ValueError("widths must be strictly increasing")
        object.__setattr__(self, "widths", widths)
        object.__setattr__(self, "failure_heights", heights)

    def failure_height(self, width: float) -> float:
        """Interpolated failure height for a glitch of the given width.

        Widths narrower than the characterised range use the first point
        (conservative: narrow glitches are harder to reject than the first
        characterised width suggests is optimistic, so we clamp rather than
        extrapolate); wider glitches use the last point, which approaches the
        DC noise margin.
        """
        return float(np.interp(width, self.widths, self.failure_heights))

    def fails(self, height: float, width: float) -> bool:
        """True when a glitch (height, width) lies in the failure region."""
        return abs(height) >= self.failure_height(width)

    def margin(self, height: float, width: float) -> float:
        """Noise margin in volts (positive = safe, negative = failing)."""
        return self.failure_height(width) - abs(height)

    def describe(self) -> str:
        pts = ", ".join(
            f"{w / ps(1):.0f}ps:{h:.3f}V" for w, h in zip(self.widths, self.failure_heights)
        )
        return f"NRC({self.cell_name}/{self.input_pin}): {pts}"


def characterize_nrc(
    receiver: StandardCell,
    technology: Technology,
    arc: Optional[NoiseArc] = None,
    *,
    widths: Optional[Sequence[float]] = None,
    load_capacitance: float = 10e-15,
    height_tolerance: float = 0.01,
    dt: float = 2e-12,
    max_height_factor: float = 1.5,
) -> NoiseRejectionCurve:
    """Characterise the noise rejection curve of a receiver input.

    Parameters
    ----------
    receiver:
        The receiving cell.
    arc:
        The input arc to characterise (defaults to the first arc whose
        output is quiet high, i.e. a rising input glitch on a low input --
        the most common victim-low configuration).
    widths:
        Glitch widths to characterise (defaults to 50 ps ... 500 ps).
    height_tolerance:
        Bisection resolution as a fraction of the supply.
    max_height_factor:
        Upper bound of the height search, as a multiple of the supply; if
        even that does not upset the receiver the failure height is recorded
        as ``max_height_factor * vdd`` (effectively "never fails" for
        realistic glitches).
    """
    vdd = technology.vdd
    if arc is None:
        arcs = receiver.noise_arcs()
        rising_arcs = [a for a in arcs if a.glitch_rising]
        arc = rising_arcs[0] if rising_arcs else arcs[0]
    if widths is None:
        widths = np.array([ps(50), ps(100), ps(200), ps(350), ps(500)])
    widths = np.asarray(widths, dtype=float)

    bench = _GlitchBench.build(receiver, technology, arc, load_capacitance)
    x0 = bench.operating_point()
    tolerance = height_tolerance * vdd
    failure_heights = np.array(
        [
            _bisect(
                lambda heights, width=float(width): _upsets(bench, heights, width, dt, x0),
                0.1 * vdd,
                max_height_factor * vdd,
                tolerance,
            )
            for width in widths
        ]
    )

    return NoiseRejectionCurve(
        widths=widths,
        failure_heights=failure_heights,
        cell_name=receiver.name,
        input_pin=arc.input_pin,
        vdd=vdd,
        criterion="half-vdd",
    )


def _upsets(bench: _GlitchBench, heights: Sequence[float], width: float, dt: float, x0):
    """Per height: does the receiver output swing past half the supply?

    A failed simulation is returned as its exception, raised only if the
    bisection needs that height.
    """
    return [
        outcome if isinstance(outcome, Exception) else abs(outcome[1].peak) >= 0.5 * bench.vdd
        for outcome in bench.simulate(heights, width, dt=dt, x0=x0)
    ]


def _midpoints(low: float, high: float, tolerance: float, depth: int) -> List[float]:
    """Every midpoint serial bisection of ``[low, high]`` may visit in its
    next ``depth`` steps, breadth first."""
    heights: List[float] = []
    intervals = [(low, high)]
    for _ in range(depth):
        narrower = []
        for lo, hi in intervals:
            if hi - lo > tolerance:
                middle = 0.5 * (lo + hi)
                heights.append(middle)
                narrower += [(lo, middle), (middle, hi)]
        intervals = narrower
    return heights


def _bisect(
    upsets: Callable[[List[float]], list], low: float, high: float, tolerance: float
) -> float:
    """The serial bisection's failure height, resolved in speculative rounds.

    Returns ``high`` when even it does not upset the receiver and ``low``
    when that already does; otherwise bisects to ``tolerance``.
    """
    first = True
    while first or high - low > tolerance:
        heights = _midpoints(low, high, tolerance, SPECULATION_DEPTH)
        bounds = [high, low] if first else []
        outcome: Dict[float, object] = dict(zip(bounds + heights, upsets(bounds + heights)))
        if first:
            first = False
            if not _settled(outcome[high]):
                return high
            if _settled(outcome[low]):
                return low
        for _ in range(SPECULATION_DEPTH):
            if not high - low > tolerance:
                break
            middle = 0.5 * (low + high)
            if _settled(outcome[middle]):
                high = middle
            else:
                low = middle
    return 0.5 * (low + high)
