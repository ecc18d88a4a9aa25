"""MOSFET device models.

Two static I-V models are provided:

* :class:`Level1Model` -- the classical Shichman-Hodges (SPICE level-1) square
  law with channel-length modulation.  Simple, smooth enough for Newton, and
  adequate to reproduce the qualitative non-linearity of a library cell's
  holding transistor that the paper exploits.
* :class:`AlphaPowerModel` -- the Sakurai-Newton alpha-power law, which models
  the weaker gate-overdrive dependence (velocity saturation) of short-channel
  devices.  Used for the 90 nm technology preset.

The transistor element itself (:class:`MOSFET`) is a three/four terminal
non-linear element; its drain-source current is stamped as a linearised
Norton companion at every Newton iteration.  Device capacitances are not part
of the static model -- the cell generators in :mod:`repro.technology` add
explicit gate / diffusion capacitors, which keeps the device model simple and
the capacitive loading visible in the netlist.

:class:`MOSFETBlock` is the compiled form the lane-stepped Newton core uses:
every plain MOSFET of a circuit in struct-of-arrays form, evaluated and
stamped for all devices and all lanes in one pass of numpy operations.  Its
array formulas repeat the scalar ones operation for operation (powers go
through ``np.float_power``, which rounds like Python's ``**``), so the block
equals :meth:`MOSFET._evaluate` exactly and stamps in the same order as the
per-element path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .elements import GROUND, Element, StampContext, stamp_nonlinear_current

__all__ = ["MOSFETParams", "Level1Model", "AlphaPowerModel", "MOSFET", "MOSFETBlock"]

#: Device-lane count from which the block's array formulas beat evaluating
#: device by device (about 50 small numpy calls against ~3 us of Python per
#: device).  One ``linearize`` call on cmos130 cells, 2-core x86 box: one
#: lane of 2-6 devices costs 17-20 us device by device and 49-82 us as
#: arrays; 17 lanes cost 112-329 us against 68-74 us; 4 lanes x 4 devices
#: sit at the crossover (53 vs 59 us).
ARRAY_EVALUATION_MIN = 16


@dataclass(frozen=True)
class MOSFETParams:
    """Technology parameters of a MOSFET model card.

    Attributes
    ----------
    polarity:
        ``"n"`` for NMOS, ``"p"`` for PMOS.
    vto:
        Zero-bias threshold voltage (positive number for both polarities).
    kp:
        Transconductance parameter ``mu * Cox`` in A/V^2.
    lambda_:
        Channel-length modulation coefficient in 1/V.
    alpha:
        Velocity-saturation exponent for the alpha-power model
        (2.0 reproduces the square law).
    vdsat_coeff:
        Coefficient of the saturation drain voltage in the alpha-power model:
        ``Vdsat = vdsat_coeff * (Vgs - Vth) ** (alpha / 2)``.
    cox:
        Gate-oxide capacitance per area (F/m^2), used by the cell generators
        to compute explicit gate capacitances.
    cj:
        Junction (diffusion) capacitance per area (F/m^2).
    cjsw:
        Junction sidewall capacitance per length (F/m).
    cgdo:
        Gate-drain overlap capacitance per width (F/m).
    l_nominal:
        Nominal (minimum) channel length of the technology (m).
    """

    polarity: str
    vto: float
    kp: float
    lambda_: float = 0.05
    alpha: float = 2.0
    vdsat_coeff: float = 1.0
    cox: float = 8e-3
    cj: float = 1e-3
    cjsw: float = 1e-10
    cgdo: float = 3e-10
    l_nominal: float = 0.13e-6

    def __post_init__(self):
        if self.polarity not in ("n", "p"):
            raise ValueError("polarity must be 'n' or 'p'")
        if self.vto <= 0:
            raise ValueError("vto is specified as a positive magnitude")
        if self.kp <= 0:
            raise ValueError("kp must be positive")

    def scaled(self, **kwargs) -> "MOSFETParams":
        """Return a copy with selected parameters replaced."""
        return replace(self, **kwargs)


class _StaticModel:
    """Interface of a static MOSFET I-V model.

    ``ids(vgs, vds)`` must accept ``vds >= 0`` and return
    ``(ids, gm, gds)`` -- the drain current and its partial derivatives with
    respect to ``vgs`` and ``vds``.
    """

    def __init__(self, params: MOSFETParams):
        self.params = params

    def ids(self, vgs: float, vds: float) -> Tuple[float, float, float]:
        raise NotImplementedError


class Level1Model(_StaticModel):
    """Shichman-Hodges square-law model with channel-length modulation."""

    def __init__(self, params: MOSFETParams, w: float, l: float):
        super().__init__(params)
        self.beta = params.kp * w / l

    def ids(self, vgs: float, vds: float) -> Tuple[float, float, float]:
        p = self.params
        vov = vgs - p.vto
        if vov <= 0.0:
            return 0.0, 0.0, 0.0
        lam = p.lambda_
        clm = 1.0 + lam * vds
        if vds < vov:
            # Triode (linear) region.
            ids = self.beta * (vov * vds - 0.5 * vds * vds) * clm
            gm = self.beta * vds * clm
            gds = self.beta * (vov - vds) * clm + self.beta * (vov * vds - 0.5 * vds * vds) * lam
        else:
            # Saturation region.
            ids = 0.5 * self.beta * vov * vov * clm
            gm = self.beta * vov * clm
            gds = 0.5 * self.beta * vov * vov * lam
        return ids, gm, gds


class AlphaPowerModel(_StaticModel):
    """Sakurai-Newton alpha-power-law model for short-channel devices."""

    def __init__(self, params: MOSFETParams, w: float, l: float):
        super().__init__(params)
        self.w_over_l = w / l
        # Scale the current factor so that alpha = 2 coincides with level 1.
        self.b = 0.5 * params.kp * self.w_over_l

    def ids(self, vgs: float, vds: float) -> Tuple[float, float, float]:
        p = self.params
        vov = vgs - p.vto
        if vov <= 0.0:
            return 0.0, 0.0, 0.0
        alpha = p.alpha
        lam = p.lambda_
        clm = 1.0 + lam * vds
        i_sat = self.b * vov ** alpha
        di_sat_dvgs = self.b * alpha * vov ** (alpha - 1.0)
        vdsat = p.vdsat_coeff * vov ** (alpha / 2.0)
        dvdsat_dvgs = p.vdsat_coeff * (alpha / 2.0) * vov ** (alpha / 2.0 - 1.0)
        if vds >= vdsat:
            ids = i_sat * clm
            gm = di_sat_dvgs * clm
            gds = i_sat * lam
            return ids, gm, gds
        # Triode region: quadratic interpolation that matches the saturation
        # current and its slope at vds = vdsat (Sakurai-Newton form).
        u = vds / vdsat
        shape = u * (2.0 - u)
        ids = i_sat * shape * clm
        dshape_dvds = (2.0 - 2.0 * u) / vdsat
        dshape_dvdsat = -u * (2.0 - 2.0 * u) / vdsat
        gm = (di_sat_dvgs * shape + i_sat * dshape_dvdsat * dvdsat_dvgs) * clm
        gds = i_sat * dshape_dvds * clm + i_sat * shape * lam
        return ids, gm, gds


def _level1_ids(vgs, vds, vto, lam, beta, half_beta, half, one, zero):
    """:meth:`Level1Model.ids` over arrays, operation for operation.

    Every operand has the shape of ``vgs`` (``half``/``one``/``zero`` are
    constant arrays): same-shape contiguous operands keep numpy on its
    fastest path.  Clamping the overdrive at zero reproduces the cut-off
    branch exactly (the saturation formulas then give zero).
    """
    vov = np.maximum(vgs - vto, zero)
    clm = one + lam * vds
    square = half_beta * vov * vov
    triode = vds < vov
    beta_quad = beta * (vov * vds - half * vds * vds)
    ids = np.where(triode, beta_quad * clm, square * clm)
    gm = np.where(triode, beta * vds * clm, beta * vov * clm)
    gds = np.where(triode, beta * (vov - vds) * clm + beta_quad * lam, square * lam)
    return ids, gm, gds


def _alpha_ids(vgs, vds, vto, lam, b, alpha, vdsat_coeff):
    """:meth:`AlphaPowerModel.ids` over arrays, operation for operation."""
    vov = vgs - vto
    off = vov <= 0.0
    vov = np.where(off, 1.0, vov)  # keeps fractional powers finite when cut off
    clm = 1.0 + lam * vds
    i_sat = b * np.float_power(vov, alpha)
    di_sat_dvgs = b * alpha * np.float_power(vov, alpha - 1.0)
    vdsat = vdsat_coeff * np.float_power(vov, alpha / 2.0)
    dvdsat_dvgs = vdsat_coeff * (alpha / 2.0) * np.float_power(vov, alpha / 2.0 - 1.0)
    u = vds / vdsat
    shape = u * (2.0 - u)
    dshape_dvds = (2.0 - 2.0 * u) / vdsat
    dshape_dvdsat = -u * (2.0 - 2.0 * u) / vdsat
    sat = vds >= vdsat
    ids = np.where(sat, i_sat * clm, i_sat * shape * clm)
    gm = np.where(
        sat, di_sat_dvgs * clm, (di_sat_dvgs * shape + i_sat * dshape_dvdsat * dvdsat_dvgs) * clm
    )
    gds = np.where(sat, i_sat * lam, i_sat * dshape_dvds * clm + i_sat * shape * lam)
    return np.where(off, 0.0, ids), np.where(off, 0.0, gm), np.where(off, 0.0, gds)


def make_model(params: MOSFETParams, w: float, l: float, model: str = "auto") -> _StaticModel:
    """Instantiate the static model named ``model`` for the given geometry."""
    if model == "auto":
        model = "alpha" if abs(params.alpha - 2.0) > 1e-9 else "level1"
    if model == "level1":
        return Level1Model(params, w, l)
    if model == "alpha":
        return AlphaPowerModel(params, w, l)
    raise ValueError(f"unknown MOSFET model '{model}'")


class MOSFET(Element):
    """A MOSFET instance (drain, gate, source[, bulk]).

    The bulk terminal is accepted for netlist compatibility but the body
    effect is not modelled; the device is electrically symmetric, so source
    and drain are swapped internally when ``Vds < 0``.
    """

    def __init__(
        self,
        name: str,
        drain: str,
        gate: str,
        source: str,
        params: MOSFETParams,
        w: float,
        l: Optional[float] = None,
        bulk: Optional[str] = None,
        model: str = "auto",
    ):
        super().__init__(name)
        self.drain = drain
        self.gate = gate
        self.source = source
        self.bulk = bulk if bulk is not None else source
        self.params = params
        self.w = float(w)
        self.l = float(l) if l is not None else params.l_nominal
        if self.w <= 0 or self.l <= 0:
            raise ValueError(f"MOSFET {name}: W and L must be positive")
        self.model_name = model
        self._model = make_model(params, self.w, self.l, model)
        self.gds_min = 1e-9

    @property
    def gds_min(self) -> float:
        """Small minimum output conductance added for Newton robustness."""
        return self._gds_min

    @gds_min.setter
    def gds_min(self, value: float) -> None:
        # Compiled into the owning circuit's MOSFET block.
        self._gds_min = float(value)
        self._invalidate_owner()

    def node_names(self) -> List[str]:
        return [self.drain, self.gate, self.source, self.bulk]

    def is_nonlinear(self) -> bool:
        return True

    # -- static evaluation ----------------------------------------------------

    def drain_current(self, vd: float, vg: float, vs: float) -> float:
        """Drain current (flowing into the drain terminal) at the given biases."""
        i, _, _, _ = self._evaluate(vd, vg, vs)
        return i

    def _evaluate(self, vd: float, vg: float, vs: float) -> Tuple[float, float, float, float]:
        """Return ``(id, dId/dVd, dId/dVg, dId/dVs)`` at the given node voltages.

        ``id`` is the current flowing from the drain node, through the
        channel, to the source node (positive for a conducting NMOS with
        ``Vds > 0``; negative values appear for PMOS pull-ups, where the
        physical current flows source-to-drain).
        """
        if self.params.polarity == "p":
            # Evaluate the complementary NMOS with mirrored voltages and
            # mirror the current back.
            i, did_vd, did_vg, did_vs = self._evaluate_nmos(-vd, -vg, -vs)
            return -i, did_vd, did_vg, did_vs
        return self._evaluate_nmos(vd, vg, vs)

    def _evaluate_nmos(self, vd: float, vg: float, vs: float) -> Tuple[float, float, float, float]:
        swapped = vd < vs
        if swapped:
            vd, vs = vs, vd
        vgs = vg - vs
        vds = vd - vs
        ids, gm, gds = self._model.ids(vgs, vds)
        gds = gds + self.gds_min
        # Partial derivatives with respect to the terminal voltages.
        did_vg = gm
        did_vd = gds
        did_vs = -(gm + gds)
        if swapped:
            # The current we computed flows from the (swapped) drain to the
            # (swapped) source, i.e. from the original source to the original
            # drain: flip the sign and swap the drain/source derivatives.
            return -ids, -did_vs, -did_vg, -did_vd
        return ids, did_vd, did_vg, did_vs

    # -- stamping ---------------------------------------------------------------

    def stamp(self, A: np.ndarray, z: np.ndarray, ctx: StampContext) -> None:
        nd, ng, ns, _nb = self.nodes
        vd, vg, vs = ctx.v(nd), ctx.v(ng), ctx.v(ns)
        i0, did_vd, did_vg, did_vs = self._evaluate(vd, vg, vs)
        gradients = [(nd, did_vd), (ng, did_vg), (ns, did_vs)]
        # The channel current flows from drain to source.
        stamp_nonlinear_current(A, z, nd, ns, i0, gradients, ctx)

    # -- capacitance estimates (used by the cell generators) --------------------

    def gate_capacitance(self) -> float:
        """Total gate capacitance estimate: C_ox * W * L plus overlaps."""
        p = self.params
        return p.cox * self.w * self.l + 2.0 * p.cgdo * self.w

    def diffusion_capacitance(self, diffusion_length: Optional[float] = None) -> float:
        """Drain/source diffusion capacitance estimate.

        ``diffusion_length`` defaults to 2.5 drawn gate lengths, a typical
        layout assumption for standard cells.
        """
        p = self.params
        ld = diffusion_length if diffusion_length is not None else 2.5 * self.l
        area = self.w * ld
        perimeter = 2.0 * (self.w + ld)
        return p.cj * area + p.cjsw * perimeter

    def overlap_capacitance(self) -> float:
        """Gate-drain (Miller) overlap capacitance."""
        return self.params.cgdo * self.w

    def __repr__(self) -> str:
        return (
            f"MOSFET({self.name}, {self.params.polarity}, W={self.w * 1e6:.3f}um, "
            f"L={self.l * 1e6:.3f}um)"
        )


class MOSFETBlock:
    """Plain MOSFETs of one circuit as struct-of-arrays.

    :meth:`linearize` evaluates every device of every lane at once and
    returns the Norton-companion values in the order
    :func:`~repro.circuit.elements.stamp_nonlinear_current` stamps them,
    device by device; :meth:`stamp` scatters them into stacked dense
    systems.  Iterates are ``(lanes, n + 1)`` arrays whose last column is
    a zero standing in for ground, and stamps onto ground are dropped at
    compile time.  Work arrays are ``(devices, lanes)`` and every
    coefficient is pre-broadcast to that shape per lane count.
    """

    def __init__(self, mosfets: Sequence[MOSFET], n: int):
        self.elements = list(mosfets)
        self.n = n
        m = len(self.elements)
        nodes = np.array([e.nodes[:3] for e in self.elements], dtype=int).reshape(-1, 3)
        # Drain, gate and source rows of the transposed extended iterate.
        self._terminals = np.where(nodes == GROUND, n, nodes).T.copy()
        self._sign = np.array([-1.0 if e.params.polarity == "p" else 1.0 for e in self.elements])
        self._gds_min = np.array([e.gds_min for e in self.elements], dtype=float)

        # One entry per model class: (rows, formula, per-device coefficients).
        self._groups = []
        for model_cls in (Level1Model, AlphaPowerModel):
            rows = [j for j, e in enumerate(self.elements) if type(e._model) is model_cls]
            if not rows:
                continue
            models = [self.elements[j]._model for j in rows]
            vto = np.array([mod.params.vto for mod in models])
            lam = np.array([mod.params.lambda_ for mod in models])
            if model_cls is Level1Model:
                beta = np.array([mod.beta for mod in models])
                coeffs = [vto, lam, beta, 0.5 * beta, 0.5, 1.0, 0.0]
                formula = _level1_ids
            else:
                coeffs = [
                    vto,
                    lam,
                    np.array([mod.b for mod in models]),
                    np.array([mod.params.alpha for mod in models]),
                    np.array([mod.params.vdsat_coeff for mod in models]),
                ]
                formula = _alpha_ids
            whole = len(rows) == m
            self._groups.append((None if whole else np.array(rows), formula, coeffs))

        # Stamp pattern, in stamp_nonlinear_current order: for each gradient
        # (drain, gate, source) the drain row gets +g, the source row -g;
        # the right-hand side gets -ieq at the drain and +ieq at the source.
        # ``_plan`` holds the same pattern per device for the scalar path:
        # which gradient each matrix entry takes (negated or not) and which
        # of -ieq / +ieq reach the right-hand side.
        rows, cols, grads, signs = [], [], [], []
        z_rows, z_devs, z_signs = [], [], []
        self._plan = []
        for j, element in enumerate(self.elements):
            nd, ng, ns = element.nodes[:3]
            entries, ends = [], []
            for k, node in enumerate((nd, ng, ns)):
                for row, sign in ((nd, 1.0), (ns, -1.0)):
                    if row != GROUND and node != GROUND:
                        rows.append(row)
                        cols.append(node)
                        grads.append(k * m + j)
                        signs.append(sign)
                        entries.append((k, sign < 0.0))
            for row, sign in ((nd, -1.0), (ns, 1.0)):
                if row != GROUND:
                    z_rows.append(row)
                    z_devs.append(j)
                    z_signs.append(sign)
                    ends.append(sign < 0.0)
            terminals = tuple(int(node) for node in self._terminals[:, j])
            self._plan.append((element, terminals, entries, ends))
        self.rows = np.array(rows, dtype=int)
        self.cols = np.array(cols, dtype=int)
        self._grads = np.array(grads, dtype=int)
        self._signs = np.array(signs)
        self.z_rows = np.array(z_rows, dtype=int)
        self._z_devs = np.array(z_devs, dtype=int)
        self._z_signs = np.array(z_signs)
        self._shaped: dict = {}

    def __len__(self) -> int:
        return len(self.elements)

    def _for_lanes(self, lanes: int) -> dict:
        """Coefficients and scatter indices broadcast for ``lanes`` lanes."""
        shaped = self._shaped.get(lanes)
        if shaped is None:
            def wide(values):
                return np.repeat(np.asarray(values, dtype=float).reshape(-1, 1), lanes, axis=1)

            m = len(self.elements)
            offsets = np.arange(lanes)
            shaped = {
                "sign": wide(self._sign),
                "sign3": wide(np.tile(self._sign, 3)).reshape(3, m, lanes),
                "gds_min": wide(self._gds_min),
                "ones": wide(np.ones(m)),
                "groups": [
                    (
                        rows,
                        formula,
                        [
                            wide(np.broadcast_to(c, (m if rows is None else len(rows),)))
                            for c in coeffs
                        ],
                    )
                    for rows, formula, coeffs in self._groups
                ],
                "signs": wide(self._signs),
                "z_signs": wide(self._z_signs),
                "a_flat": (self.rows * self.n + self.cols)[:, None]
                + offsets * (self.n * self.n),
                "z_flat": self.z_rows[:, None] + offsets * self.n,
            }
            self._shaped[lanes] = shaped
        return shaped

    def evaluate(self, vd: np.ndarray, vg: np.ndarray, vs: np.ndarray):
        """:meth:`MOSFET._evaluate` over ``(lanes, devices)`` arrays.

        Returns ``(id, dId/dVd, dId/dVg, dId/dVs)`` with the same shape.
        """
        shaped = self._for_lanes(len(vd))
        v = np.stack((vd.T, vg.T, vs.T)) * shaped["sign3"]
        i0, grads = self._evaluate(v, shaped)
        m = len(self.elements)
        return i0.T, grads[:m].T, grads[m : 2 * m].T, grads[2 * m :].T

    def _evaluate(self, v: np.ndarray, shaped: dict):
        """Current ``(devices, lanes)`` and the stacked derivatives
        ``[dId/dVd; dId/dVg; dId/dVs]`` at polarity-folded terminal
        voltages ``v`` (``(3, devices, lanes)``)."""
        vd, vg, vs = v
        swapped = vd < vs
        # Evaluate with drain and source exchanged where Vds < 0.
        drain = np.maximum(vd, vs)
        source = np.minimum(vd, vs)
        vgs = vg - source
        vds = drain - source
        groups = shaped["groups"]
        if len(groups) == 1 and groups[0][0] is None:
            _, formula, coeffs = groups[0]
            ids, gm, gds = formula(vgs, vds, *coeffs)
        else:
            ids = np.empty_like(vgs)
            gm = np.empty_like(vgs)
            gds = np.empty_like(vgs)
            for rows, formula, coeffs in groups:
                ids[rows], gm[rows], gds[rows] = formula(vgs[rows], vds[rows], *coeffs)
        gds = gds + shaped["gds_min"]
        # A swapped device's current flows source to drain: the current and
        # every derivative flip sign and the drain/source derivatives trade
        # places, i.e. (-ids, gm + gds, -gm, -gds) against the unswapped
        # (ids, gds, gm, -(gm + gds)).
        total = gm + gds
        ones = shaped["ones"]
        flip = np.where(swapped, -ones, ones)
        grads = np.concatenate(
            (np.where(swapped, total, gds), gm * flip, -np.where(swapped, gds, total))
        )
        return ids * (flip * shaped["sign"]), grads

    def linearize(self, x_ext: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Matrix and right-hand-side stamp values at the iterates ``x_ext``.

        Returns ``(a_vals, z_vals)`` shaped ``(stamps, lanes)``:
        ``a_vals[i]`` adds to ``(rows[i], cols[i])`` and ``z_vals[i]`` to
        right-hand-side row ``z_rows[i]``, both in per-element stamping
        order.
        """
        m = len(self.elements)
        shaped = self._for_lanes(len(x_ext))
        v = x_ext.T[self._terminals]
        i0, grads = self._evaluate(v * shaped["sign3"], shaped)
        products = grads * v.reshape(3 * m, -1)
        ieq = i0 - products[:m] - products[m : 2 * m] - products[2 * m :]
        a_vals = grads[self._grads] * shaped["signs"]
        z_vals = ieq[self._z_devs] * shaped["z_signs"]
        return a_vals, z_vals

    def linearize_scalar(self, x_ext: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """:meth:`linearize` through each device's own ``_evaluate``.

        The same values in the same layout; cheaper than the array
        formulas when few devices and lanes share the call.
        """
        a_vals: List[float] = []
        z_vals: List[float] = []
        for lane in x_ext.tolist():
            for element, (d, g, s), entries, ends in self._plan:
                vd, vg, vs = lane[d], lane[g], lane[s]
                i0, g_d, g_g, g_s = element._evaluate(vd, vg, vs)
                ieq = i0 - g_d * vd - g_g * vg - g_s * vs
                grads = (g_d, g_g, g_s)
                a_vals += [-grads[k] if negate else grads[k] for k, negate in entries]
                z_vals += [-ieq if negate else ieq for negate in ends]
        lanes = len(x_ext)
        return (
            np.array(a_vals).reshape(lanes, -1).T,
            np.array(z_vals).reshape(lanes, -1).T,
        )

    def stamp(self, A: np.ndarray, z: np.ndarray, x_ext: np.ndarray) -> None:
        """Stamp every lane: ``A`` is ``(lanes, n, n)``, ``z`` ``(lanes, n)``.

        Both must be C-contiguous; each entry receives its additions in
        per-element stamping order.  Small calls evaluate device by device,
        large ones with the array formulas (the results are identical).
        """
        lanes = len(x_ext)
        shaped = self._for_lanes(lanes)
        if lanes * len(self.elements) < ARRAY_EVALUATION_MIN:
            a_vals, z_vals = self.linearize_scalar(x_ext)
        else:
            a_vals, z_vals = self.linearize(x_ext)
        np.add.at(A.reshape(-1), shaped["a_flat"], a_vals)
        np.add.at(z.reshape(-1), shaped["z_flat"], z_vals)
