"""Frozen, validated configuration for an analysis session.

One immutable :class:`AnalysisConfig` carries the method list, the time
discretisation, the NRC policy and the characterisation options; deriving a
variant goes through :meth:`replace`.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

__all__ = ["AnalysisConfig", "DEFAULT_METHODS"]

#: Methods run when the caller does not choose any.
DEFAULT_METHODS: Tuple[str, ...] = ("macromodel",)

#: Interconnect reductions understood by the model builder.
_VALID_REDUCTIONS = ("coupled_pi", "full")

#: Circuit-solver backends (mirrors repro.circuit.stamping.SOLVER_BACKENDS;
#: kept literal here so the config module stays import-light).
_VALID_BACKENDS = ("auto", "dense", "sparse")

#: Batched-solve modes (mirrors repro.circuit.batched.BATCHING_MODES).
_VALID_BATCHING = ("auto", "off")


@dataclass(frozen=True)
class AnalysisConfig:
    """Immutable configuration of a :class:`~repro.api.session.NoiseAnalysisSession`.

    Parameters
    ----------
    methods:
        Registry names of the analysis methods to run per cluster (see
        :func:`repro.api.list_methods`).  Name validity is checked when the
        session resolves them, so methods registered after this config was
        created are usable.
    dt, t_stop:
        Time step and stop time (seconds) for every analysis; ``None`` lets
        each cluster derive its own window from the aggressor/glitch timing.
    reduction:
        Interconnect representation inside the macromodel: ``"coupled_pi"``
        (the paper's driving-point reduction) or ``"full"``.
    vccs_grid:
        Grid resolution of the VCCS load-surface characterisation.
    check_nrc:
        Whether to evaluate each result against the victim receiver's noise
        rejection curve.
    nrc_widths:
        Optional glitch widths (seconds) at which the NRC is characterised.
    reduction_order:
        Block-Arnoldi iteration count of the ``method="reduced"`` analysis
        path (matched moments per injection site; see
        :data:`repro.reduction.DEFAULT_REDUCTION_ORDER`).  Higher orders
        tighten the reduced model at the cost of more states.
    reduction_threshold:
        Macromodel node count at which ``method="reduced"`` starts
        projecting instead of handing the cluster to the dedicated engine
        directly.  ``None`` (default) selects
        :data:`repro.reduction.REDUCTION_AUTO_THRESHOLD`; ``0`` forces
        reduction for every cluster.
    solver_backend:
        Linear-algebra backend of every circuit solve the session performs
        (golden transistor-level transients, DC operating points, the
        dedicated engine's linear macromodels): ``"auto"`` (default) picks
        scipy.sparse ``splu`` for large systems and dense LAPACK for small
        ones (see :data:`repro.circuit.stamping.SPARSE_AUTO_THRESHOLD`);
        ``"dense"`` / ``"sparse"`` force one side everywhere.
    batching:
        Batched-solve policy.  ``"auto"`` (default) gives the session a
        shared :class:`~repro.circuit.batched.FactorizationCache`:
        structurally identical macromodels (Monte Carlo samples of one
        cluster, repeated analyses of one victim) factorise their base
        matrices once per session instead of once per analysis, and
        same-matrix transient groups are solved with stacked right-hand
        sides.  A cache hit reuses a factorization of a *bit-identical*
        matrix, so results never change; ``"off"`` disables the sharing
        (the differential-testing baseline).
    degradation:
        Whether batch executors (the scenario sweep runner) route clusters
        through the numerical degradation ladder
        (:mod:`repro.resilience`): on a numerical failure or a rejected
        result the cluster is retried on progressively more conservative
        configurations (``reduced -> sparse -> dense``) instead of erroring
        out.  ``True`` by default; turn off for baselines that must observe
        raw first-try failures.
    max_workers:
        Default parallelism of ``analyze_many``/``run_design``; 1 runs
        sequentially.
    cache_dir:
        Persistent characterisation-cache location.  ``None`` disables the
        on-disk cache (in-memory only); ``"auto"`` resolves to
        ``$REPRO_CACHE_DIR`` or ``~/.cache/repro``; any other string is used
        as the cache directory itself.  Sessions built from this config share
        characterised models across processes and runs through that
        directory.
    """

    methods: Tuple[str, ...] = DEFAULT_METHODS
    dt: Optional[float] = None
    t_stop: Optional[float] = None
    reduction: str = "coupled_pi"
    reduction_order: int = 12
    reduction_threshold: Optional[int] = None
    vccs_grid: int = 17
    solver_backend: str = "auto"
    batching: str = "auto"
    degradation: bool = True
    check_nrc: bool = True
    nrc_widths: Optional[Tuple[float, ...]] = None
    max_workers: int = 1
    cache_dir: Optional[str] = None

    def __post_init__(self):
        # Accept any sequence of names but store canonical tuples so the
        # config stays hashable and safely shareable between sessions.
        object.__setattr__(self, "methods", self._as_name_tuple(self.methods))
        if self.nrc_widths is not None:
            object.__setattr__(
                self, "nrc_widths", tuple(float(w) for w in self.nrc_widths)
            )

        if not self.methods:
            raise ValueError("methods must name at least one analysis method")
        if self.dt is not None and not self.dt > 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if self.t_stop is not None and not self.t_stop > 0:
            raise ValueError(f"t_stop must be positive, got {self.t_stop}")
        if self.dt is not None and self.t_stop is not None and self.dt > self.t_stop:
            raise ValueError(f"dt ({self.dt}) must not exceed t_stop ({self.t_stop})")
        if self.reduction not in _VALID_REDUCTIONS:
            raise ValueError(
                f"unknown reduction {self.reduction!r}; valid: {_VALID_REDUCTIONS}"
            )
        if self.reduction_order < 1:
            raise ValueError(
                f"reduction_order must be at least 1, got {self.reduction_order}"
            )
        if self.reduction_threshold is not None and self.reduction_threshold < 0:
            raise ValueError(
                "reduction_threshold must be None or non-negative, "
                f"got {self.reduction_threshold}"
            )
        if self.vccs_grid < 3:
            raise ValueError(f"vccs_grid must be at least 3, got {self.vccs_grid}")
        if self.solver_backend not in _VALID_BACKENDS:
            raise ValueError(
                f"unknown solver_backend {self.solver_backend!r}; "
                f"valid: {_VALID_BACKENDS}"
            )
        if self.batching not in _VALID_BATCHING:
            raise ValueError(
                f"unknown batching {self.batching!r}; valid: {_VALID_BATCHING}"
            )
        if self.max_workers < 1:
            raise ValueError(f"max_workers must be at least 1, got {self.max_workers}")
        if self.nrc_widths is not None:
            if not self.nrc_widths:
                raise ValueError("nrc_widths must be None or non-empty")
            if any(not w > 0 for w in self.nrc_widths):
                raise ValueError("nrc_widths must all be positive")
        if self.cache_dir is not None and (
            not isinstance(self.cache_dir, str) or not self.cache_dir
        ):
            raise ValueError("cache_dir must be None, 'auto' or a directory path")

    def resolve_cache_dir(self) -> Optional[str]:
        """The effective cache directory (``"auto"`` resolved), or ``None``."""
        if self.cache_dir is None:
            return None
        if self.cache_dir == "auto":
            from ..characterization.diskcache import default_cache_dir

            return str(default_cache_dir())
        return self.cache_dir

    @staticmethod
    def _as_name_tuple(methods: Sequence[str]) -> Tuple[str, ...]:
        if isinstance(methods, str):
            # A bare string is almost always a bug ("macromodel" -> one
            # method, not nine single-character ones); accept it as one name.
            return (methods,)
        names = tuple(methods)
        for name in names:
            if not isinstance(name, str) or not name:
                raise ValueError(f"method names must be non-empty strings, got {name!r}")
        return names

    def replace(self, **changes) -> "AnalysisConfig":
        """A copy of this config with the given fields changed (re-validated)."""
        return dataclasses.replace(self, **changes)

    def describe(self) -> str:
        """One-line human-readable summary of the configuration."""
        window = (
            f"dt={self.dt}" if self.dt is not None else "dt=auto",
            f"t_stop={self.t_stop}" if self.t_stop is not None else "t_stop=auto",
        )
        return (
            f"AnalysisConfig(methods={list(self.methods)}, {window[0]}, {window[1]}, "
            f"reduction={self.reduction!r}, reduction_order={self.reduction_order}, "
            f"vccs_grid={self.vccs_grid}, "
            f"solver_backend={self.solver_backend!r}, "
            f"batching={self.batching!r}, "
            f"degradation={self.degradation}, "
            f"check_nrc={self.check_nrc}, max_workers={self.max_workers}, "
            f"cache_dir={self.cache_dir!r})"
        )
