"""Point-wise and integrated checkers for the geometric inequalities.

Every checker is a pure function returning a :class:`BoundReport` whose
per-point left/right sides are stored verbatim, so a failed report can be
audited.  Margins are normalized by the local magnitude scale before the
pass/fail decision; the default tolerances (:mod:`nhgeo.tolerances`)
separate genuine violations from floating-point noise.  A NaN or infinite
margin (or PSD input entry) is a numerical failure (NonFiniteError), not a FAIL.

Each checker allocates each report array once; ``_finish`` overwrites the
``scale`` array it is given, so every caller passes a fresh one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import BranchViolationError, NonFiniteError, NonHermitianInputError
from .geometry import GeometryGrid
from .tolerances import ABSORPTIVE_PSD_TOL, BOUND_TOL, BRANCH_TOL, HERM_TOL, PSD_TOL, QGT_TOL
from .topology import ChernResult, local_bound_sides

#: the BZ-frame lines used for the saturation diagnostic: boundary lines of
#: the [-pi, pi) and [0, 2 pi) plotting frames (mesh pixels within 1.5 cells
#: count as edge pixels; the exact frame nodes saturate the bound at ratio 1)
_EDGE_LINES = (-np.pi, 0.0)


@dataclass
class BoundReport:
    """Auditable outcome of one inequality check.

    ``margin`` is rhs - lhs per entry (or the minimum eigenvalue for PSD
    checks); ``worst_margin`` is the minimum of margin normalized by the
    local scale, and ``passed`` is exactly worst_margin >= -tolerance.
    """

    name: str
    labels: np.ndarray
    lhs: np.ndarray
    rhs: np.ndarray
    margin: np.ndarray
    tolerance: float
    worst_margin: float
    passed: bool
    extra: dict = field(default_factory=dict)

    def __str__(self):
        state = "PASS" if self.passed else "FAIL"
        return (f"[{state}] {self.name}: worst normalized margin "
                f"{self.worst_margin:.3e} (tolerance -{self.tolerance:.1e})")


def _finish(name, labels, lhs, rhs, scale, tolerance, extra=None):
    """Report of margin = rhs - lhs; ``scale`` (fresh) is overwritten."""
    margin = rhs - lhs
    if not np.isfinite(margin).all():
        bad = int(np.count_nonzero(~np.isfinite(margin)))
        raise NonFiniteError(f"{name}: non-finite margin at {bad} point(s)")
    scale = np.asarray(scale)
    norm = np.divide(margin, np.maximum(scale, 1e-300, out=scale), out=scale)
    worst = float(np.min(norm)) if norm.size else 0.0
    return BoundReport(
        name=name, labels=np.asarray(labels), lhs=lhs, rhs=rhs, margin=margin,
        tolerance=tolerance, worst_margin=worst,
        passed=bool(worst >= -tolerance), extra=extra or {})


def _grid_labels(grid: GeometryGrid):
    return np.stack([grid.kx.ravel(), grid.ky.ravel()], axis=-1)


def check_local_curvature_bound(grid: GeometryGrid, tolerance=BOUND_TOL):
    """|F| <= |Q^RL_xy| + |Q^RL_yx| at every mesh point.

    ``extra`` carries the saturation diagnostics: the bound saturates
    exactly (rhs/lhs = 1) on the high-symmetry frame lines themselves,
    and the ratio climbs past two in the edge pixels next to them;
    ``max_ratio_edge`` takes the maximum over that frame neighborhood.
    """
    lhs, rhs = (side.ravel() for side in local_bound_sides(grid))
    scale = np.maximum(rhs, lhs)
    ratio = rhs / np.maximum(lhs, 1e-300)
    nx, ny = grid.shape
    dx, dy = 2 * np.pi / nx, 2 * np.pi / ny
    kx, ky = grid.kx[:, :1], grid.ky[:1, :]  # the mesh axes, (nx, 1) and (1, ny)
    on_edge = np.zeros((nx, ny), dtype=bool)
    for line in _EDGE_LINES:
        on_edge |= (np.abs(kx - line) < 1.51 * dx) | (np.abs(ky - line) < 1.51 * dy)
    extra = {
        "max_ratio_edge": float(np.max(ratio.reshape(nx, ny)[on_edge])),
        "max_ratio_global": float(np.max(ratio)),
    }
    return _finish("LocalCurvature", _grid_labels(grid), lhs, rhs, scale,
                   tolerance, extra)


def check_qgt_inequality(grid: GeometryGrid, ablation=False, tolerance=QGT_TOL):
    """|Q^RL_{mu nu}|^2 <= N (Q^RR_mumu + |Q^R_mu|^2)(Q^LL_nunu + |Q^L_nu|^2)
    for all four index pairs, N the norm product ||R||^2 ||L||^2.
    |Q^RL_{mu nu}| is read as |Q^LR_{nu mu}|, its adjoint entry.

    ``ablation=True`` drops the N factor: for two-band systems the ablated
    relation is exactly saturated analytically, so its computed margins
    straddle zero at machine precision (any strictly negative value
    demonstrates that the factor carries all the slack).
    """
    rr = np.real(np.einsum("ijkk->ijk", grid.qgt_rr))
    ll = np.real(np.einsum("ijkk->ijk", grid.qgt_ll))
    ar2 = np.abs(grid.anomalous_r) ** 2
    al2 = np.abs(grid.anomalous_l) ** 2
    n_fac = np.ones_like(grid.norm_product) if ablation else grid.norm_product
    right = [n_fac * (rr[..., mu] + ar2[..., mu]) for mu in range(2)]
    left = [ll[..., nu] + al2[..., nu] for nu in range(2)]
    # block 2 mu + nu: rhs = right[mu] * left[nu], the left-to-right product N (.)(.)
    lhs = np.empty((4,) + grid.shape)
    rhs = np.empty_like(lhs)
    labels = np.empty((4, grid.kx.size, 3))
    labels[..., 0], labels[..., 1] = grid.kx.ravel(), grid.ky.ravel()
    for mu in range(2):
        for nu in range(2):
            pair = 2 * mu + nu
            np.square(np.abs(grid.qgt_lr[..., nu, mu], out=lhs[pair]), out=lhs[pair])
            np.multiply(right[mu], left[nu], out=rhs[pair])
            labels[pair, :, 2] = pair
    lhs, rhs = lhs.ravel(), rhs.ravel()
    name = "QGTInequalityAblated" if ablation else "QGTInequality"
    return _finish(name, labels.reshape(-1, 3), lhs, rhs, np.maximum(lhs, rhs), tolerance)


def hermitian_min_eigenvalue(q):
    """Closed-form smallest eigenvalue of Hermitian 2x2 matrices (batched).

    Raises NonFiniteError for a non-finite entry and NonHermitianInputError
    if the anti-Hermitian residue exceeds HERM_TOL relative to the matrix scale.
    """
    q = np.asarray(q, dtype=complex)
    scale = max(float(np.max(np.abs(q))), 1e-300)
    if not np.isfinite(scale):
        raise NonFiniteError("non-finite entry in a Hermitian 2x2 input")
    # |q - q^H| is |q_01 - conj q_10| off the diagonal and 2 |Im q_ii| on it
    resid = np.max([np.max(np.abs(q[..., 0, 1] - np.conj(q[..., 1, 0]))),
                    2 * np.max(np.abs(np.imag(np.diagonal(q, 0, -2, -1))))])
    if resid > HERM_TOL * scale:
        raise NonHermitianInputError(f"anti-Hermitian residue {resid:.2e}")
    # (a + c)/2 - sqrt(((a - c)/2)^2 + |b|^2) on the entries scaled exactly by
    # 2^-e <= 1/scale, so that no square overflows (or underflows early), then
    # scaled back.  |b| is taken unscaled: ``scale`` is the largest |q_ij|, so
    # it cannot overflow.  In place; [()] makes one matrix's result a scalar.
    e, shape = int(np.frexp(scale)[1]), q.shape[:-2]
    a, c, rad = (np.empty(shape) for _ in range(3))
    np.ldexp(q[..., 0, 0].real, -e, out=a)
    np.ldexp(q[..., 1, 1].real, -e, out=c)
    np.subtract(a, c, out=rad)
    rad *= 0.5
    np.square(rad, out=rad)
    a += c
    a *= 0.5
    np.ldexp(np.abs(q[..., 0, 1], out=c), -e, out=c)
    rad += np.square(c, out=c)
    np.sqrt(rad, out=rad)
    a -= rad
    return np.ldexp(a, e, out=a)[()]


def check_psd(q, name="PSD", tolerance=PSD_TOL):
    """Positive semidefiniteness of Hermitian 2x2 tensors (batched stack).

    Margin is the smallest eigenvalue; the pass criterion is
    min eig >= -tolerance * trace pointwise.
    """
    q = np.asarray(q, dtype=complex)
    lam = hermitian_min_eigenvalue(q).ravel()
    tr = (np.real(q[..., 0, 0]) + np.real(q[..., 1, 1])).ravel()
    return _finish(name, np.arange(lam.size), -lam, np.zeros_like(lam), tr, tolerance)


def check_chern_chain(result: ChernResult, tolerance=BOUND_TOL):
    """2 pi |C| <= int|F| <= int(|Q^RL_xy| + |Q^RL_yx|), both links."""
    lhs = np.array([2 * np.pi * abs(result.chern_plaquette),
                    result.curvature_abs_integral])
    rhs = np.array([result.curvature_abs_integral,
                    result.qgt_bound_integral])
    labels = np.array([0, 1])
    return _finish("ChernChain", labels, lhs, rhs, np.maximum(np.abs(rhs), 1.0),
                   tolerance)


def check_absorptive_psd(omegas, pi_abs):
    """Positive semidefiniteness of the absorptive response at each omega,
    with min eig >= -ABSORPTIVE_PSD_TOL * scale.

    ``extra["re_minus_abs_im"]`` records Re Pi^abs_01 - |Im Pi^abs_01| per
    omega (off-diagonal real-vs-imaginary comparison); its sign is reported
    but not asserted, since elementwise positivity is not implied by the
    PSD property.
    """
    omegas = np.asarray(omegas, dtype=float)
    pi_abs = np.asarray(pi_abs, dtype=complex)
    lam = hermitian_min_eigenvalue(pi_abs)
    tr = np.real(pi_abs[..., 0, 0] + pi_abs[..., 1, 1])
    scale = np.maximum(np.abs(tr), np.max(np.abs(pi_abs), axis=(-2, -1)))
    extra = {"re_minus_abs_im": np.real(pi_abs[..., 0, 1]) - np.abs(np.imag(pi_abs[..., 0, 1]))}
    return _finish("AbsorptivePSD", omegas, -lam, np.zeros_like(lam), scale,
                   ABSORPTIVE_PSD_TOL, extra)


def check_optical_weight_bound(weight_trace, chern, arg_infimum,
                               tolerance=BOUND_TOL):
    """Topological lower bound on the optical weight trace.

    Checks (pi + arg_infimum) |C| <= weight_trace / 2 pi, stored as
    (lhs, rhs) in that order; arg_infimum must lie in [-pi, 0]
    (BranchViolationError otherwise).
    """
    if not (-np.pi - BRANCH_TOL <= arg_infimum <= BRANCH_TOL):
        raise BranchViolationError(
            f"argument infimum {arg_infimum} outside [-pi, 0]")
    lhs = np.array([(np.pi + arg_infimum) * abs(chern)])
    rhs = np.array([weight_trace / (2.0 * np.pi)])
    scale = np.maximum(np.abs(rhs), 1.0)
    return _finish("OpticalWeight", np.array([0]), lhs, rhs, scale, tolerance,
                   {"arg_infimum": float(arg_infimum), "chern": int(chern)})
