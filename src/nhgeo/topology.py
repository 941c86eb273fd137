"""Non-Hermitian Chern numbers and the integrated curvature bounds.

Two independent routes: biorthogonal plaquette link phases (integer by
construction) and the Riemann sum of the mixed Berry curvature.  Both use
the k-smooth branch band labeling; the plaquette loop orientation is fixed
so that it matches the curvature convention F = i (Q_xy - Q_yx).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (BoundViolationError, LinkCollapseError,
                     NonIntegerResidueError, NonRealCurvatureError)
from .models import BlochModel, bz_mesh
from .spectra import gauge_rescale
from .geometry import GeometryGrid, scan_geometry, solve_mesh

#: links with magnitude below this abort the plaquette sum
LINK_TOL = 1e-6

#: maximum allowed distance of the phase sum from 2*pi*integer
RESIDUE_TOL = 1e-3


@dataclass
class ChernResult:
    """Chern number by both methods plus the integrated bound chain."""

    chern_plaquette: int
    chern_curvature: float
    curvature_abs_integral: float   # int |F| d2k
    qgt_bound_integral: float       # int (|Q^RL_xy| + |Q^RL_yx|) d2k
    grid_plaquette: int
    grid_curvature: int
    band: int
    plaquette_residue: float


def chern_plaquette(model: BlochModel, band=0, n_grid=64, flavor="lr",
                    gauge=None, return_residue=False):
    """Integer Chern number from biorthogonal plaquette link phases.

    Links are U_mu(k) = <L(k)|R(k + delta e_mu)> (``flavor="lr"``) or with
    left/right swapped (``flavor="rl"``); plaquette phases need no gauge
    fixing, and the total phase sum is an exact multiple of 2*pi up to
    roundoff.  ``gauge`` injects per-band rescalings c(k) for invariance
    tests.  The mesh is solved in the fixed kx-row chunks of
    :func:`~nhgeo.geometry.solve_mesh`, one after the other, keeping only
    the selected band's bra and ket vectors; exceptional points of every
    chunk are raised once as sorted (kx, ky) pairs.

    Raises LinkCollapseError when any |U| < 1e-6 and
    NonIntegerResidueError when the rounding residue exceeds 1e-3.
    """
    if flavor not in ("lr", "rl"):
        raise ValueError("flavor must be 'lr' or 'rl'")
    kxg, kyg = bz_mesh(n_grid, n_grid)
    bra = np.empty((n_grid, n_grid, 2), dtype=complex)
    ket = np.empty_like(bra)

    def store(rows, kxr, kyr, eig):
        if gauge is not None:
            eig = gauge_rescale(eig, gauge(kxr, kyr))
        left, right = eig.left[..., band, :], eig.right[..., band, :]
        bra[rows], ket[rows] = (left, right) if flavor == "lr" else (right, left)

    solve_mesh(model, kxg, kyg, store)

    u_x = np.einsum("ijk,ijk->ij", np.conj(bra), np.roll(ket, -1, axis=0))
    u_y = np.einsum("ijk,ijk->ij", np.conj(bra), np.roll(ket, -1, axis=1))
    small = min(float(np.min(np.abs(u_x))), float(np.min(np.abs(u_y))))
    if small < LINK_TOL:
        raise LinkCollapseError(f"plaquette link magnitude {small:.2e} below {LINK_TOL}")

    loop = (u_x * np.roll(u_y, -1, axis=0)
            * np.conj(np.roll(u_x, -1, axis=1) * u_y))
    # loop phases accumulate -Re F per cell; negate to match F = i(Q_xy - Q_yx)
    total = -float(np.sum(np.angle(loop))) / (2.0 * np.pi)
    chern = int(np.rint(total))
    residue = abs(total - chern)
    if residue > RESIDUE_TOL:
        raise NonIntegerResidueError(
            f"plaquette sum {total} is {residue:.2e} away from an integer")
    if return_residue:
        return chern, residue
    return chern


def chern_from_curvature(grid: GeometryGrid):
    """Riemann sum of the mixed curvature over the BZ, divided by 2*pi.

    The pointwise curvature is generically complex; its BZ sum must be
    real (NonRealCurvatureError otherwise) and converges to the integer.
    """
    total = np.sum(grid.curvature_lr) * grid.cell_area() / (2.0 * np.pi)
    if abs(np.imag(total)) > 1e-3 * max(1.0, abs(total)):
        raise NonRealCurvatureError(
            f"BZ-integrated curvature has imaginary part {np.imag(total):.2e}")
    return float(np.real(total))


def bound_integrals(grid: GeometryGrid, tol_scale=1e-9):
    """(int |F|, int (|Q^RL_xy| + |Q^RL_yx|)) with the local chain asserted.

    Local violations beyond tol_scale * local magnitude raise
    BoundViolationError carrying the offending k-points.
    """
    lhs = np.abs(grid.curvature_lr)
    rhs = np.abs(grid.qgt_rl[..., 0, 1]) + np.abs(grid.qgt_rl[..., 1, 0])
    bad = lhs - rhs > tol_scale * np.maximum(rhs, 1.0)
    if np.any(bad):
        pts = [(float(grid.kx[i, j]), float(grid.ky[i, j]))
               for i, j in np.argwhere(bad)]
        raise BoundViolationError(
            f"local curvature bound violated at {len(pts)} point(s)", points=pts)
    area = grid.cell_area()
    return float(np.sum(lhs) * area), float(np.sum(rhs) * area)


def compute_chern(model: BlochModel, band=0, n_plaquette=64, n_curvature=201,
                  workers=1, grid=None):
    """ChernResult combining the plaquette integer, the curvature sum and
    the integrated bound chain 2*pi*|C| <= int|F| <= int(|Q|+|Q|).

    ``grid``, an already scanned GeometryGrid of ``band``, replaces the
    n_curvature^2 scan.
    """
    c_pl, residue = chern_plaquette(model, band=band, n_grid=n_plaquette,
                                    return_residue=True)
    if grid is None:
        grid = scan_geometry(model, band=band, nx=n_curvature, workers=workers)
    c_cv = chern_from_curvature(grid)
    abs_f, qgt_b = bound_integrals(grid)
    return ChernResult(
        chern_plaquette=c_pl,
        chern_curvature=c_cv,
        curvature_abs_integral=abs_f,
        qgt_bound_integral=qgt_b,
        grid_plaquette=n_plaquette,
        grid_curvature=grid.shape[0],
        band=band,
        plaquette_residue=residue,
    )
