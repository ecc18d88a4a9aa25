"""A small SPICE-class circuit simulator.

This package is the "golden reference" substrate of the reproduction: a
Modified Nodal Analysis engine with Newton-Raphson non-linear solution, DC
operating-point and transient analyses, level-1 / alpha-power MOSFET models
and a SPICE-like netlist parser.  It plays the role ELDO(TM) plays in the
paper's experiments.
"""

from .batched import (
    BATCHING_MODES,
    BatchedTransientSolver,
    BatchRunStats,
    FactorizationCache,
    TransientJob,
)
from .dc import ConvergenceError, DCSolution, dc_operating_point
from .elements import (
    GROUND,
    BehavioralCurrentSource,
    Capacitor,
    CurrentSource,
    Diode,
    Element,
    Inductor,
    Resistor,
    StampContext,
    VCCS,
    VCVS,
    VoltageSource,
)
from .mna import SingularMatrixError, assemble, solve_linear_system
from .mosfet import AlphaPowerModel, Level1Model, MOSFET, MOSFETParams
from .netlist import Circuit
from .stamping import (
    SOLVER_BACKENDS,
    SPARSE_AUTO_THRESHOLD,
    CompiledKernel,
    DescriptorSystem,
    KernelStats,
    LinearSolver,
    SparseLinearSolver,
    resolve_backend,
)
from .parser import NetlistError, ParsedNetlist, parse_netlist, parse_value
from .sources import (
    DCValue,
    ExponentialGlitch,
    PiecewiseLinear,
    PulseWaveform,
    SaturatedRamp,
    SineWaveform,
    SourceWaveform,
    TriangularGlitch,
)
from .transient import (
    TransientResult,
    TransientStats,
    build_time_axis,
    transient,
    transient_lanes,
)

__all__ = [
    "GROUND",
    "Circuit",
    "Element",
    "Resistor",
    "Capacitor",
    "Inductor",
    "CurrentSource",
    "VoltageSource",
    "VCCS",
    "VCVS",
    "BehavioralCurrentSource",
    "Diode",
    "MOSFET",
    "MOSFETParams",
    "Level1Model",
    "AlphaPowerModel",
    "StampContext",
    "DCValue",
    "PulseWaveform",
    "PiecewiseLinear",
    "SaturatedRamp",
    "SineWaveform",
    "TriangularGlitch",
    "ExponentialGlitch",
    "SourceWaveform",
    "dc_operating_point",
    "DCSolution",
    "ConvergenceError",
    "transient",
    "transient_lanes",
    "build_time_axis",
    "TransientResult",
    "TransientStats",
    "BATCHING_MODES",
    "BatchedTransientSolver",
    "BatchRunStats",
    "FactorizationCache",
    "TransientJob",
    "DescriptorSystem",
    "assemble",
    "solve_linear_system",
    "SingularMatrixError",
    "CompiledKernel",
    "KernelStats",
    "LinearSolver",
    "SparseLinearSolver",
    "SOLVER_BACKENDS",
    "SPARSE_AUTO_THRESHOLD",
    "resolve_backend",
    "parse_netlist",
    "ParsedNetlist",
    "NetlistError",
    "parse_value",
]
