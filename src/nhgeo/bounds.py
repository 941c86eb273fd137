"""Point-wise and integrated checkers for the geometric inequalities.

Every checker is a pure function returning a :class:`BoundReport` whose
per-point left/right sides are stored verbatim, so a failed report can be
audited.  Margins are normalized by the local magnitude scale before the
pass/fail decision; the default tolerance -1e-9 separates genuine
violations from floating-point noise.  A NaN or infinite margin is a
numerical failure (NonFiniteError), not a FAIL.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import BranchViolationError, NonFiniteError, NonHermitianInputError
from .geometry import GeometryGrid
from .topology import ChernResult

DEFAULT_TOL = 1e-9

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
    margin = rhs - lhs
    bad = ~np.isfinite(margin)
    if np.any(bad):
        raise NonFiniteError(f"{name}: non-finite margin at {int(np.count_nonzero(bad))} point(s)")
    norm = margin / np.maximum(scale, 1e-300)
    worst = float(np.min(norm)) if norm.size else 0.0
    return BoundReport(
        name=name, labels=np.asarray(labels), lhs=lhs, rhs=rhs, margin=margin,
        tolerance=tolerance, worst_margin=worst,
        passed=bool(worst >= -tolerance), extra=extra or {})


def _grid_labels(grid: GeometryGrid):
    return np.stack([grid.kx.ravel(), grid.ky.ravel()], axis=-1)


def check_local_curvature_bound(grid: GeometryGrid, tolerance=DEFAULT_TOL):
    """|F| <= |Q^RL_xy| + |Q^RL_yx| at every mesh point.

    ``extra`` carries the saturation diagnostics: the bound saturates
    exactly (rhs/lhs = 1) on the high-symmetry frame lines themselves,
    and the ratio climbs past two in the edge pixels next to them;
    ``max_ratio_edge`` takes the maximum over that frame neighborhood.
    """
    lhs = np.abs(grid.curvature_lr).ravel()
    rhs = (np.abs(grid.qgt_rl[..., 0, 1]) + np.abs(grid.qgt_rl[..., 1, 0])).ravel()
    scale = np.maximum(rhs, lhs)
    ratio = rhs / np.maximum(lhs, 1e-300)
    nx, ny = grid.shape
    dx, dy = 2 * np.pi / nx, 2 * np.pi / ny
    on_edge = np.zeros((nx, ny), dtype=bool)
    for line in _EDGE_LINES:
        on_edge |= np.abs(grid.kx - line) < 1.51 * dx
        on_edge |= np.abs(grid.ky - line) < 1.51 * dy
    extra = {
        "max_ratio_edge": float(np.max(ratio.reshape(nx, ny)[on_edge])),
        "max_ratio_global": float(np.max(ratio)),
    }
    return _finish("LocalCurvature", _grid_labels(grid), lhs, rhs, scale,
                   tolerance, extra)


def check_qgt_inequality(grid: GeometryGrid, ablation=False, tolerance=1e-10):
    """|Q^RL_{mu nu}|^2 <= N (Q^RR_mumu + |Q^R_mu|^2)(Q^LL_nunu + |Q^L_nu|^2)
    for all four index pairs, N the norm product ||R||^2 ||L||^2.

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
    lhs_list, rhs_list, labels = [], [], []
    base = _grid_labels(grid)
    for mu in range(2):
        for nu in range(2):
            lhs_list.append(np.abs(grid.qgt_rl[..., mu, nu]).ravel() ** 2)
            rhs_list.append((n_fac * (rr[..., mu] + ar2[..., mu])
                             * (ll[..., nu] + al2[..., nu])).ravel())
            pair = np.full((base.shape[0], 1), 2 * mu + nu, dtype=float)
            labels.append(np.concatenate([base, pair], axis=1))
    lhs = np.concatenate(lhs_list)
    rhs = np.concatenate(rhs_list)
    scale = np.maximum(lhs, rhs)
    name = "QGTInequalityAblated" if ablation else "QGTInequality"
    return _finish(name, np.concatenate(labels), lhs, rhs, scale, tolerance)


def hermitian_min_eigenvalue(q, herm_tol=1e-10):
    """Closed-form smallest eigenvalue of Hermitian 2x2 matrices (batched).

    Raises NonHermitianInputError if the anti-Hermitian residue exceeds
    herm_tol relative to the matrix scale.
    """
    q = np.asarray(q, dtype=complex)
    resid = np.max(np.abs(q - np.conj(np.swapaxes(q, -1, -2))))
    scale = max(float(np.max(np.abs(q))), 1e-300)
    if resid > herm_tol * scale:
        raise NonHermitianInputError(f"anti-Hermitian residue {resid:.2e}")
    a = np.real(q[..., 0, 0])
    c = np.real(q[..., 1, 1])
    b = q[..., 0, 1]
    half = 0.5 * (a + c)
    rad = np.sqrt((0.5 * (a - c)) ** 2 + np.abs(b) ** 2)
    return half - rad


def check_psd(q, name="PSD", tolerance=1e-12):
    """Positive semidefiniteness of Hermitian 2x2 tensors (batched stack).

    Margin is the smallest eigenvalue; the pass criterion is
    min eig >= -tolerance * trace pointwise.
    """
    q = np.asarray(q, dtype=complex)
    lam = hermitian_min_eigenvalue(q).ravel()
    tr = np.real(q[..., 0, 0] + q[..., 1, 1]).ravel()
    zeros = np.zeros_like(lam)
    return _finish(name, np.arange(lam.size), -lam, zeros,
                   np.maximum(tr, 1e-300), tolerance)


def check_chern_chain(result: ChernResult, tolerance=DEFAULT_TOL):
    """2 pi |C| <= int|F| <= int(|Q^RL_xy| + |Q^RL_yx|), both links."""
    lhs = np.array([2 * np.pi * abs(result.chern_plaquette),
                    result.curvature_abs_integral])
    rhs = np.array([result.curvature_abs_integral,
                    result.qgt_bound_integral])
    labels = np.array([0, 1])
    return _finish("ChernChain", labels, lhs, rhs, np.maximum(np.abs(rhs), 1.0),
                   tolerance)


def check_absorptive_psd(omegas, pi_abs, tolerance=1e-10):
    """Positive semidefiniteness of the absorptive response at each omega.

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
    return _finish("AbsorptivePSD", omegas, -lam, np.zeros_like(lam),
                   np.maximum(scale, 1e-300), tolerance, extra)


def check_optical_weight_bound(weight_trace, chern, arg_infimum,
                               tolerance=DEFAULT_TOL):
    """Topological lower bound on the optical weight trace.

    Checks (pi + arg_infimum) |C| <= weight_trace / 2 pi, stored as
    (lhs, rhs) in that order; arg_infimum must lie in [-pi, 0]
    (BranchViolationError otherwise).
    """
    if not (-np.pi - 1e-9 <= arg_infimum <= 1e-9):
        raise BranchViolationError(
            f"argument infimum {arg_infimum} outside [-pi, 0]")
    lhs = np.array([(np.pi + arg_infimum) * abs(chern)])
    rhs = np.array([weight_trace / (2.0 * np.pi)])
    scale = np.maximum(np.abs(rhs), 1.0)
    return _finish("OpticalWeight", np.array([0]), lhs, rhs, scale, tolerance,
                   {"arg_infimum": float(arg_infimum), "chern": int(chern)})
