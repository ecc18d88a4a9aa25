"""repro -- Static noise analysis with a non-linear victim-driver macromodel.

Reproduction of Forzan & Pandini, "Modeling the Non-Linear Behavior of Library
Cells for an Accurate Static Noise Analysis", DATE 2005.

Sub-packages
------------
``repro.api``
    The unified front door: ``NoiseAnalysisSession`` (single/batch/design
    analysis), frozen ``AnalysisConfig`` and the pluggable analysis-method
    registry.
``repro.circuit``
    SPICE-class non-linear circuit simulator (the golden reference).
``repro.technology``
    Process presets and transistor-level standard-cell generators.
``repro.characterization``
    Cell characterisation: VCCS load surfaces, holding resistance, Thevenin
    driver models, noise-propagation tables, noise rejection curves.
``repro.interconnect``
    Coupled RC interconnect construction, moments and reduced-order models.
``repro.noise``
    The paper's noise-cluster macromodel and the baselines it is compared to.
``repro.sna``
    Design database, parasitics annotation and noise-cluster extraction.
``repro.golden``
    Transistor-level golden cluster simulations.

The lightweight value types are re-exported eagerly; the session API
(``NoiseAnalysisSession``, ``AnalysisConfig``, ``list_methods``,
``register_method``, ...) is re-exported lazily so ``import repro`` stays
cheap for scripts that only need units and waveforms.
"""

from .units import fF, kohm, mV, ns, ps, to_fF, to_mV, to_ps, to_v_ps, um
from .waveform import GlitchMetrics, Waveform

__version__ = "0.4.0"

#: Session-API names resolved lazily from :mod:`repro.api` (PEP 562).
_API_EXPORTS = (
    "NoiseAnalysisSession",
    "AnalysisConfig",
    "ClusterError",
    "ClusterReport",
    "SessionReport",
    "WireFormatError",
    "list_methods",
    "method_descriptions",
    "register_method",
    "unregister_method",
)

#: Service names resolved lazily from :mod:`repro.service` -- the daemon
#: stack (asyncio, sockets) must not tax ``import repro``.
_SERVICE_EXPORTS = (
    "AnalysisServer",
    "ServiceClient",
)

#: The stable public surface of the package, wire-versioned since 0.3.0.
__all__ = [
    "Waveform",
    "GlitchMetrics",
    "ps",
    "ns",
    "fF",
    "kohm",
    "um",
    "mV",
    "to_ps",
    "to_fF",
    "to_mV",
    "to_v_ps",
    "__version__",
    *_API_EXPORTS,
    *_SERVICE_EXPORTS,
]


def __getattr__(name):
    if name in _API_EXPORTS:
        from . import api

        return getattr(api, name)
    if name in _SERVICE_EXPORTS:
        from . import service

        return getattr(service, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_API_EXPORTS) | set(_SERVICE_EXPORTS))
