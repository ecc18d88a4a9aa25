"""Noise-cluster analysis: the paper's macromodel and its baselines.

* :class:`MacromodelAnalysis` -- the contribution being reproduced: victim
  driver as a table VCCS, reduced coupled interconnect, Thevenin aggressors,
  solved by a dedicated engine.
* :class:`LinearSuperpositionAnalysis` -- the conventional baseline that adds
  separately-computed injected and propagated noise.
* :class:`ZolotovIterativeAnalysis` -- the iterative linear-Thevenin victim
  model of reference [4].

:class:`repro.api.NoiseAnalysisSession` runs any of these (plus the golden
transistor-level simulation) on a :class:`NoiseClusterSpec`.
"""

from .analysis import NRCCheck, check_against_nrc
from .builder import ClusterModelBuilder
from .cluster import AggressorSpec, InputGlitchSpec, NoiseClusterSpec, VictimSpec
from .engine import DedicatedNoiseEngine, EngineStatistics, MacromodelNetwork
from .injected import compute_injected_noise, compute_per_aggressor_noise
from .macromodel import MacromodelAnalysis
from .results import NoiseAnalysisResult, compare_results
from .superposition import LinearSuperpositionAnalysis
from .vccs import TableVCCS, victim_input_waveform
from .zolotov import ZolotovIterativeAnalysis

__all__ = [
    "NoiseClusterSpec",
    "VictimSpec",
    "AggressorSpec",
    "InputGlitchSpec",
    "ClusterModelBuilder",
    "TableVCCS",
    "victim_input_waveform",
    "MacromodelNetwork",
    "DedicatedNoiseEngine",
    "EngineStatistics",
    "MacromodelAnalysis",
    "LinearSuperpositionAnalysis",
    "ZolotovIterativeAnalysis",
    "NoiseAnalysisResult",
    "compare_results",
    "compute_injected_noise",
    "compute_per_aggressor_noise",
    "NRCCheck",
    "check_against_nrc",
]
