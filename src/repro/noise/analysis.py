"""Per-cluster NRC checking.

:class:`NRCCheck` / :func:`check_against_nrc` implement the pass/fail
criterion of the SNA flow: the total noise glitch against the receiver's
Noise Rejection Curve.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..characterization.nrc import NoiseRejectionCurve
from .results import NoiseAnalysisResult

__all__ = ["NRCCheck", "check_against_nrc"]


@dataclass(frozen=True)
class NRCCheck:
    """Outcome of comparing a noise glitch with a noise rejection curve."""

    fails: bool
    height: float
    width: float
    failure_height: float
    margin: float
    receiver_cell: str = ""

    def describe(self) -> str:
        status = "FAIL" if self.fails else "pass"
        return (
            f"[{status}] glitch {abs(self.height):.3f} V x {self.width * 1e12:.0f} ps vs "
            f"NRC limit {self.failure_height:.3f} V (margin {self.margin:+.3f} V) "
            f"at {self.receiver_cell}"
        )


def check_against_nrc(result: NoiseAnalysisResult, nrc: NoiseRejectionCurve) -> NRCCheck:
    """Check an analysis result's glitch against a noise rejection curve."""
    height = result.metrics.peak
    width = result.metrics.width
    failure_height = nrc.failure_height(width)
    return NRCCheck(
        fails=nrc.fails(height, width),
        height=height,
        width=width,
        failure_height=failure_height,
        margin=nrc.margin(height, width),
        receiver_cell=nrc.cell_name,
    )

