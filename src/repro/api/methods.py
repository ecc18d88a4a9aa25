"""Built-in analysis-method registrations.

The four analysis backends the paper compares are published in the method
registry here (``golden``, ``macromodel``, ``superposition``,
``iterative_thevenin``).  ``reduced`` adds the PRIMA reduced-order path of
:mod:`repro.reduction` on top of that set.

Importing this module registers the builtins; :mod:`repro.api.registry`
triggers that import lazily the first time the registry is queried.
"""

from __future__ import annotations

from .registry import AnalysisMethod, MethodContext, register_method

__all__ = []  # nothing to export: importing this module registers the builtins


@register_method(
    "golden",
    description="Transistor-level transient simulation of the full cluster "
    "(the role ELDO plays in the paper); the accuracy reference.",
)
def _golden(context: MethodContext) -> AnalysisMethod:
    from ..golden.cluster_sim import GoldenClusterAnalysis

    return GoldenClusterAnalysis(
        context.library, solver_backend=context.config.solver_backend
    )


@register_method(
    "macromodel",
    description="The paper's non-linear victim-driver macromodel solved by "
    "the dedicated noise engine.",
)
def _macromodel(context: MethodContext) -> AnalysisMethod:
    from ..noise.macromodel import MacromodelAnalysis

    return MacromodelAnalysis(
        context.library,
        characterizer=context.characterizer,
        reduction=context.config.reduction,
        vccs_grid=context.config.vccs_grid,
        solver_backend=context.config.solver_backend,
        solver_cache=context.solver_cache,
    )


@register_method(
    "reduced",
    description="PRIMA/Krylov reduced-order macromodel of the full cluster "
    "wiring, with the table-VCCS victim evaluated through the projection "
    "basis; large clusters collapse to a few dozen states.",
)
def _reduced(context: MethodContext) -> AnalysisMethod:
    from ..reduction.analysis import ReducedClusterAnalysis

    return ReducedClusterAnalysis(
        context.library,
        characterizer=context.characterizer,
        vccs_grid=context.config.vccs_grid,
        solver_backend=context.config.solver_backend,
        reduction_order=context.config.reduction_order,
        reduction_threshold=context.config.reduction_threshold,
    )


@register_method(
    "superposition",
    description="Conventional linear superposition of separately-evaluated "
    "injected and propagated noise (the baseline the paper argues against).",
)
def _superposition(context: MethodContext) -> AnalysisMethod:
    from ..noise.superposition import LinearSuperpositionAnalysis

    return LinearSuperpositionAnalysis(
        context.library,
        characterizer=context.characterizer,
        reduction=context.config.reduction,
        vccs_grid=context.config.vccs_grid,
    )


@register_method(
    "iterative_thevenin",
    description="Iteratively linearised Thevenin victim model of Zolotov "
    "et al. (reference [4] of the paper).",
)
def _iterative_thevenin(context: MethodContext) -> AnalysisMethod:
    from ..noise.zolotov import ZolotovIterativeAnalysis

    return ZolotovIterativeAnalysis(
        context.library,
        characterizer=context.characterizer,
        reduction=context.config.reduction,
        vccs_grid=context.config.vccs_grid,
    )
