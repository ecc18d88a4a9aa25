"""Modified Nodal Analysis system assembly.

Assembly is delegated to the circuit's compiled stamping kernel
(:mod:`repro.circuit.stamping`): constant (static-linear) stamps and
``(dt, method)``-dependent companion stamps are precompiled into flat COO
arrays and cached as *base matrices*, so a Newton iteration only copies the
cached base and stamps the nonlinear elements.  The paper's noise clusters
are small (tens to a few hundreds of unknowns) and stay on dense
NumPy/LAPACK linear algebra; large interconnect clusters (thousands of RC
nodes) assemble the same COO triples into scipy.sparse CSC matrices instead
-- see :func:`repro.circuit.stamping.resolve_backend` for the auto-selection
policy.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from .. import faults
from .elements import StampContext
from .netlist import Circuit
from .stamping import SingularMatrixError

__all__ = [
    "assemble",
    "solve_linear_system",
    "SingularMatrixError",
]


def assemble(circuit: Circuit, ctx: StampContext) -> Tuple[np.ndarray, np.ndarray]:
    """Assemble the MNA matrix ``A`` and right-hand side ``z`` for ``ctx``.

    The circuit must already be prepared (``Circuit.prepare()``); solver
    entry points prepare once and the per-iteration hot path only asserts.
    """
    return circuit.kernel.assemble(ctx)


def solve_linear_system(A, z: np.ndarray) -> np.ndarray:
    """Solve ``A x = z``, raising :class:`SingularMatrixError` when singular.

    ``A`` may be a dense ndarray (LAPACK ``np.linalg.solve``) or a
    scipy.sparse matrix (``scipy.sparse.linalg.splu`` through
    :class:`~repro.circuit.stamping.SparseLinearSolver`) -- Newton loops
    stay backend-agnostic by calling this on whatever ``assemble`` produced.
    ``z`` may be one right-hand side (1-D) or a stack of them (``(n, k)``);
    the batched transient core relies on the stacked form to amortise one
    factorization over many scenarios.
    """
    if not isinstance(A, np.ndarray):
        from .stamping import SparseLinearSolver

        return SparseLinearSolver(A).solve(z)
    # Injected "singular" faults emulate a failing *dense* factorisation
    # (the sparse backend's pivoting survives the same system), which is
    # exactly the situation the degradation ladder's sparse rung recovers
    # from end to end.
    if faults.fire("solve") == "singular":
        raise SingularMatrixError("injected singular matrix [fault plan]")
    try:
        x = np.linalg.solve(A, z)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(str(exc)) from exc
    if not np.all(np.isfinite(x)):
        raise SingularMatrixError("solution contains non-finite values")
    return x

