"""Block-Arnoldi / PRIMA congruence projection -- the reduction core.

Every reduction path in this package (circuit-level descriptor systems,
macromodel networks, port-driven multiports) funnels through the same two
functions:

* :func:`prima_project` -- build an orthonormal Krylov basis ``V`` of the
  moment space of ``(G + s0 C)^{-1} C`` seeded with ``(G + s0 C)^{-1} B``;
* :func:`prima_reduce_system` -- congruence-project ``(G, C, B)`` onto that
  basis: ``Gr = V' G V``, ``Cr = V' C V``, ``Br = V' B``.

For ``q`` block iterations the reduced transfer function to *any* state
(not just the inputs) matches the first ``q`` Taylor moments of the full
system about ``s0``, because the moment vectors of the state response are
exactly the Krylov vectors kept in ``V``.  When ``G`` and ``C`` are the
symmetric positive semi-definite matrices of an RC network, congruence
additionally preserves passivity -- :func:`check_reduced_system` verifies
both properties numerically and reports the reduced pole spectrum.

``G`` and ``C`` may be dense ndarrays or scipy.sparse matrices; the shifted
matrix is factorised exactly once (``splu`` / ``lu_factor``), so the cost of
a reduction is one sparse factorisation plus ``q`` block back-substitutions
-- far below a single transient run of the unreduced system.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

import warnings

import numpy as np
from scipy import sparse as _sparse
from scipy.linalg import lu_factor as _lu_factor
from scipy.linalg import lu_solve as _lu_solve
from scipy.sparse.linalg import splu as _splu

from ..circuit.stamping import SingularMatrixError

__all__ = [
    "DEFAULT_REDUCTION_ORDER",
    "REDUCTION_AUTO_THRESHOLD",
    "ReducedSystem",
    "StabilityReport",
    "check_reduced_system",
    "default_shift",
    "prima_project",
    "prima_reduce_system",
]

#: Default number of block-Arnoldi iterations (matched moments per input).
#: On the synthetic ladder/mesh/tree workloads of
#: ``benchmarks/bench_reduction.py`` this order keeps the relative
#: noise-metric error below 1e-3 while collapsing thousands of RC nodes
#: into a few dozen states.
DEFAULT_REDUCTION_ORDER = 12

#: Cluster size (nodes) at which the reduced analysis path starts
#: projecting.  Below it the dedicated engine solves the macromodel
#: directly -- for paper-sized clusters (tens of nodes) a dense factor-once
#: transient is already cheaper than building a Krylov basis.  Mirrors the
#: role of :data:`repro.circuit.stamping.SPARSE_AUTO_THRESHOLD`.
REDUCTION_AUTO_THRESHOLD = 200

#: Columns whose norm falls below this fraction of the block's largest
#: column norm are deflated (they add no new Krylov direction).
_DEFLATION_TOL = 1e-12


@dataclass
class ReducedSystem:
    """A congruence-projected descriptor system ``Gr x + Cr dx/dt = Br u``.

    ``projection`` is the orthonormal ``(n, q)`` basis; row ``i`` maps the
    reduced state back to unknown ``i`` of the original system, so any node
    voltage is recovered as ``projection[i] @ x_reduced``.
    """

    Gr: np.ndarray
    Cr: np.ndarray
    Br: np.ndarray
    projection: np.ndarray
    s0: float

    @property
    def order(self) -> int:
        """Number of reduced states ``q``."""
        return self.Gr.shape[0]

    @property
    def num_unknowns(self) -> int:
        """Size ``n`` of the original system."""
        return self.projection.shape[0]

    @property
    def num_inputs(self) -> int:
        return self.Br.shape[1]

    def output_rows(self, indices) -> np.ndarray:
        """Projection rows of the given original-unknown indices."""
        return self.projection[np.asarray(indices, dtype=int), :]


@dataclass
class StabilityReport:
    """Numerical passivity/stability diagnostics of a reduced system.

    ``passive`` checks the PRIMA positive-real condition: the symmetric
    parts of ``Gr`` and ``Cr`` must be positive semi-definite.  Congruence
    guarantees it whenever the original matrices satisfy it -- symmetric RC
    matrices, but also the skew-bordered ``[[G, E], [-E', 0]]`` MNA form
    produced by :func:`repro.reduction.circuit.reduce_circuit`.  Poles are
    the finite generalized eigenvalues of ``(-Gr, Cr)``; a stable reduced
    model keeps them in the left half plane.
    """

    symmetric: bool  #: were the reduced matrices (numerically) symmetric?
    g_min_eigenvalue: float
    c_min_eigenvalue: float
    max_pole_real_part: float
    num_finite_poles: int
    passive: bool
    stable: bool

    def summary(self) -> str:
        return (
            f"order-{self.num_finite_poles} reduced model: "
            f"passive={self.passive} (min eig G={self.g_min_eigenvalue:.2e}, "
            f"C={self.c_min_eigenvalue:.2e}), stable={self.stable} "
            f"(max Re(pole)={self.max_pole_real_part:.3e} rad/s)"
        )


def _factorize(shifted) -> Callable[[np.ndarray], np.ndarray]:
    """Factor the shifted matrix once; return a dense-block solver."""
    if _sparse.issparse(shifted):
        try:
            lu = _splu(shifted.tocsc())
        except (RuntimeError, ValueError) as exc:
            raise SingularMatrixError(str(exc)) from exc
        return lu.solve
    dense = np.asarray(shifted, dtype=float)
    try:
        with warnings.catch_warnings():
            # lu_factor only *warns* on an exactly singular matrix; the
            # zero-pivot check below turns that into the error the
            # shifted-expansion fallback needs.
            warnings.simplefilter("ignore")
            lu = _lu_factor(dense)
    except (np.linalg.LinAlgError, ValueError) as exc:
        raise SingularMatrixError(str(exc)) from exc
    pivots = np.abs(np.diag(lu[0]))
    if not np.all(np.isfinite(lu[0])) or (pivots.size and pivots.min() == 0.0):
        raise SingularMatrixError("zero pivot in LU factorization")
    return lambda block: _lu_solve(lu, block)


def default_shift(G, C) -> float:
    """A representative ``1/tau`` when the unshifted ``G`` is singular.

    The trace ratio of ``G`` and ``C`` estimates the segment-scale corner
    frequency of the network; it only has to land within a few orders of
    magnitude to make ``G + s0 C`` invertible and well scaled.  Shared by
    the Krylov projection and the reduced transient's DC-initialisation
    fallback (:mod:`repro.reduction.circuit`), so every shifted-expansion
    retry in the reduction stack picks the same expansion point.
    """
    trace_g = float(np.abs(G.diagonal()).sum())
    trace_c = float(np.abs(C.diagonal()).sum())
    if trace_c <= 0.0:
        return 0.0
    return max(trace_g, 1e-30) / trace_c


#: Backwards-compatible private alias (pre-export name).
_default_shift = default_shift


def prima_project(
    G,
    C,
    B: np.ndarray,
    *,
    order: int,
    s0: float = 0.0,
) -> np.ndarray:
    """Orthonormal block-Krylov basis ``V`` of ``span{A^k R}, k < order``.

    ``A = (G + s0 C)^{-1} C`` and ``R = (G + s0 C)^{-1} B``.  Deflation
    drops linearly dependent columns, and the iteration stops early once
    the basis spans the full space, so ``order`` larger than necessary
    yields an exact (square orthonormal) projection.
    """
    if order < 1:
        raise ValueError(f"reduction order must be at least 1, got {order}")
    B = np.atleast_2d(np.asarray(B, dtype=float))
    n = B.shape[0]
    if B.size == 0 or not np.any(B):
        raise ValueError("the input matrix B has no nonzero column")

    def _seed(solve) -> np.ndarray:
        r = np.atleast_2d(solve(B))
        if r.shape != B.shape:  # splu.solve flattens single-column blocks
            r = r.reshape(B.shape)
        if not np.all(np.isfinite(r)):
            raise SingularMatrixError("non-finite Krylov seed block")
        return r

    shifted = G + s0 * C if s0 != 0.0 else G
    try:
        solve = _factorize(shifted)
        r = _seed(solve)
    except SingularMatrixError:
        if s0 != 0.0:
            raise
        # G alone is singular (e.g. a floating net): retry about a
        # representative corner frequency instead of DC.
        s0 = default_shift(G, C)
        solve = _factorize(G + s0 * C)
        r = _seed(solve)

    blocks: List[np.ndarray] = []
    total = 0
    for _ in range(order):
        # Normalise the incoming columns first: each application of
        # ``(G + s0 C)^{-1} C`` scales norms by roughly the network time
        # constant (femtoseconds * ohms), and the deflation test below must
        # measure *direction* loss, not that absolute scale.
        pre_norms = np.linalg.norm(r, axis=0)
        alive = pre_norms > 0.0
        if not np.any(alive):
            break
        r = r[:, alive] / pre_norms[alive]
        # Orthogonalise against everything kept so far (two MGS passes for
        # numerical hygiene), then against the block's own columns via QR.
        for _pass in range(2):
            for previous in blocks:
                r = r - previous @ (previous.T @ r)
        # A unit column whose orthogonal remainder is negligible was already
        # in the span -- deflate it.
        norms = np.linalg.norm(r, axis=0)
        keep = norms > _DEFLATION_TOL
        if not np.any(keep):
            break
        q_block, rfac = np.linalg.qr(r[:, keep])
        # QR can still return near-null columns when the kept columns are
        # mutually dependent; drop them by the diagonal of R.
        diag = np.abs(np.diag(rfac))
        solid = diag > _DEFLATION_TOL * max(diag.max(), 1.0)
        q_block = q_block[:, solid]
        if q_block.shape[1] == 0:
            break
        blocks.append(q_block)
        total += q_block.shape[1]
        if total >= n:
            break
        r = np.atleast_2d(solve(C @ q_block))
        if r.ndim == 1 or r.shape[0] != n:
            r = r.reshape(n, -1)

    if not blocks:  # pragma: no cover - only on a fully degenerate system
        raise SingularMatrixError("Krylov iteration produced no basis vectors")
    V = np.hstack(blocks)
    # A final orthonormalisation pass; trims the basis to at most n columns.
    V, _ = np.linalg.qr(V)
    return V[:, :n]


def prima_reduce_system(
    G,
    C,
    B: np.ndarray,
    *,
    order: int = DEFAULT_REDUCTION_ORDER,
    s0: float = 0.0,
    projection: Optional[np.ndarray] = None,
) -> ReducedSystem:
    """Congruence-project ``(G, C, B)`` onto its PRIMA basis."""
    V = (
        projection
        if projection is not None
        else prima_project(G, C, B, order=order, s0=s0)
    )
    GV = G @ V
    CV = C @ V
    return ReducedSystem(
        Gr=np.asarray(V.T @ GV),
        Cr=np.asarray(V.T @ CV),
        Br=np.asarray(V.T @ np.asarray(B, dtype=float)),
        projection=V,
        s0=s0,
    )


def check_reduced_system(
    reduced: ReducedSystem, *, symmetric: Optional[bool] = None, tol: float = 1e-9
) -> StabilityReport:
    """Numerical passivity/stability diagnostics of a reduced system.

    ``symmetric`` should state whether the original ``(G, C)`` were
    symmetric (congruence guarantees passivity only then); when omitted it
    is inferred from the reduced matrices.
    """
    Gr, Cr = reduced.Gr, reduced.Cr
    if symmetric is None:
        scale_g = max(float(np.abs(Gr).max()), 1e-30)
        scale_c = max(float(np.abs(Cr).max()), 1e-30)
        symmetric = bool(
            np.allclose(Gr, Gr.T, atol=1e-9 * scale_g)
            and np.allclose(Cr, Cr.T, atol=1e-9 * scale_c)
        )
    g_eigs = np.linalg.eigvalsh((Gr + Gr.T) / 2.0)
    c_eigs = np.linalg.eigvalsh((Cr + Cr.T) / 2.0)
    g_min = float(g_eigs.min()) if g_eigs.size else 0.0
    c_min = float(c_eigs.min()) if c_eigs.size else 0.0
    g_tol = tol * max(float(g_eigs.max()), 1.0) if g_eigs.size else tol
    c_tol = tol * max(float(c_eigs.max()), 1.0) if c_eigs.size else tol
    passive = g_min >= -g_tol and c_min >= -c_tol

    # Poles: finite generalized eigenvalues of lambda Cr x = -Gr x.
    from scipy.linalg import eig as _geig

    alphas, betas = _geig(-Gr, Cr, right=False, homogeneous_eigvals=True)
    alphas = np.asarray(alphas).ravel()
    betas = np.asarray(betas).ravel()
    finite = np.abs(betas) > 1e-12 * max(float(np.abs(betas).max()), 1.0)
    poles = alphas[finite] / betas[finite]
    max_real = float(poles.real.max()) if poles.size else -np.inf
    pole_scale = float(np.abs(poles).max()) if poles.size else 1.0
    stable = max_real <= tol * max(pole_scale, 1.0)
    return StabilityReport(
        symmetric=symmetric,
        g_min_eigenvalue=g_min,
        c_min_eigenvalue=c_min,
        max_pole_real_part=max_real,
        num_finite_poles=int(poles.size),
        passive=passive,
        stable=stable,
    )
