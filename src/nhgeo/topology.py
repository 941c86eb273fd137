"""Non-Hermitian Chern numbers and the integrated curvature bounds.

Two independent routes: biorthogonal plaquette link phases (integer by
construction) and the Riemann sum of the mixed Berry curvature.  Both use
the branch labels of :func:`~nhgeo.spectra.eigensystem_two_band` (band 0 =
c + sqrt(d.d)), k-smooth wherever d.d avoids the negative real half-line;
the plaquette loop orientation is fixed so that it matches the curvature
convention F = i (Q_xy - Q_yx).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import LinkCollapseError, NonRealCurvatureError
from .models import BlochModel, bz_mesh
from .spectra import _mul, _to_front, eigensystem_two_band
from .geometry import GeometryGrid, _mesh_chunks, _scan_chunks, berry_curvature_lr
from .tolerances import CURVATURE_SUM_IMAG_TOL, LINK_TOL


@dataclass
class ChernResult:
    """Chern number by both methods plus the integrated bound chain."""

    chern_plaquette: int
    chern_curvature: float
    curvature_abs_integral: float   # int |F| d2k
    qgt_bound_integral: float       # int (|Q^RL_xy| + |Q^RL_yx|) d2k
    grid_plaquette: int
    grid_curvature: int
    plaquette_residue: float


def chern_plaquette(model: BlochModel, band=0, n_grid=64, return_residue=False):
    """Integer Chern number from biorthogonal plaquette link phases of
    branch band ``band``.

    Links are U_mu(k) = <L(k)|R(k + delta e_mu)>; plaquette phases need no
    gauge fixing, and the total phase sum is an exact multiple of 2*pi up
    to roundoff: each link enters one loop forward and one conjugated, so
    the loop phases telescope for any nonzero links.  The residue is
    reported, not guarded; it says nothing about whether the bands braid.
    The mesh is solved in the fixed kx-row chunks of
    :func:`~nhgeo.geometry._mesh_chunks`, keeping only the selected band's
    bra and ket vectors; exceptional points of every chunk are raised once
    as sorted (kx, ky) pairs.

    Raises LinkCollapseError when any |U| < LINK_TOL.
    """
    kxg, kyg = bz_mesh(n_grid, n_grid)
    # bra[i], ket[i]: contiguous (n, n) planes, copied from each chunk's solve planes
    bra, ket = np.empty((2, 2, n_grid, n_grid), dtype=complex)
    for rows, eig in _mesh_chunks(kxg, kyg, lambda kxr, kyr: eigensystem_two_band(
            model.hamiltonian(kxr, kyr))):
        np.conjugate(_to_front(eig.left)[band], out=bra[:, rows])
        ket[:, rows] = _to_front(eig.right)[band]

    u_x, u_y = _links(bra, ket)
    small = min(float(np.min(np.abs(u_x))), float(np.min(np.abs(u_y))))
    if small < LINK_TOL:
        raise LinkCollapseError(f"plaquette link magnitude {small:.2e} below {LINK_TOL}")

    loop, back = np.roll(u_y, -1, axis=0), np.roll(u_x, -1, axis=1)
    np.multiply(u_x, loop, out=loop)
    loop *= np.conj(np.multiply(back, u_y, out=back), out=back)
    # loop phases accumulate -Re F per cell; negate to match F = i(Q_xy - Q_yx)
    total = -float(np.sum(np.angle(loop))) / (2.0 * np.pi)
    chern = int(np.rint(total))
    if return_residue:
        return chern, abs(total - chern)
    return chern


def _links(bra, ket):
    """(U_x, U_y) with U_mu = sum_i bra_i ket_i(k + delta e_mu) on (2, nx, ny)
    component planes: 0 + b_0 k_0 + b_1 k_1 in :func:`~nhgeo.spectra._mul`'s
    rounding, the bits of ``np.einsum("ijk,ijk->ij", ...)`` on (nx, ny, 2)."""
    return tuple(sum(_mul(b, k) for b, k in zip(bra, np.roll(ket, -1, axis=axis)))
                 for axis in (1, 2))


def local_bound_sides(grid: GeometryGrid):
    """(|F|, |Q^RL_xy| + |Q^RL_yx|) per mesh point, shape (nx, ny) each.

    |Q^RL_mu,nu| is read as |Q^LR_nu,mu| (Q^RL is the adjoint of Q^LR), so
    no copy of the tensor is built.  The local bound |F| <= rhs is the
    triangle inequality on F = i (Q^LR_xy - Q^LR_yx).
    """
    q = grid.qgt_lr
    return np.abs(grid.curvature_lr), np.abs(q[..., 1, 0]) + np.abs(q[..., 0, 1])


def _chain_sums(q_lr):
    """[sum F, sum |F|, sum (|Q^RL_xy| + |Q^RL_yx|)] over the Q^LR tensors ``q_lr``."""
    f = berry_curvature_lr(q_lr)
    return np.array([np.sum(f), np.sum(np.abs(f)),
                     np.sum(np.abs(q_lr[..., 1, 0]) + np.abs(q_lr[..., 0, 1]))])


def _chain_integrals(sums, area):
    """(C, int |F|, int (|Q^RL_xy| + |Q^RL_yx|)) from :func:`_chain_sums` over cells
    of ``area``; C, a sum of complex curvatures, must be real (NonRealCurvatureError)."""
    total = sums[0] * area / (2.0 * np.pi)
    if abs(np.imag(total)) > CURVATURE_SUM_IMAG_TOL * max(1.0, abs(total)):
        raise NonRealCurvatureError(
            f"BZ-integrated curvature has imaginary part {np.imag(total):.2e}")
    return float(np.real(total)), float(sums[1].real * area), float(sums[2].real * area)


def chern_from_curvature(grid: GeometryGrid):
    """Riemann sum of the mixed curvature over the BZ, divided by 2*pi; it
    converges to the integer (:func:`_chain_integrals`)."""
    return _chain_integrals(_chain_sums(grid.qgt_lr), grid.cell_area())[0]


def compute_chern(model: BlochModel, band=0, n_plaquette=64, n_curvature=201, grid=None):
    """ChernResult combining the plaquette integer, the curvature sum and
    the two integrals of the bound chain 2*pi*|C| <= int|F| <= int(|Q|+|Q|),
    which :func:`~nhgeo.bounds.check_chern_chain` checks.

    Only the three :func:`_chain_sums` are kept: added up chunk by chunk over
    the n_curvature^2 mesh, whose pass forms and checks ``qgt_lr`` only, or
    taken at once from ``grid``, a scanned GeometryGrid of ``band`` instead.
    """
    c_pl, residue = chern_plaquette(model, band=band, n_grid=n_plaquette,
                                    return_residue=True)
    if grid is None:
        chunks = [_chain_sums(values[0]) for _, values in
                  _scan_chunks(model, band, *bz_mesh(n_curvature, n_curvature), lr_only=True)]
        sums, area, n = np.sum(chunks, axis=0), (2.0 * np.pi / n_curvature) ** 2, n_curvature
    else:
        sums, area, n = _chain_sums(grid.qgt_lr), grid.cell_area(), grid.shape[0]
    return ChernResult(c_pl, *_chain_integrals(sums, area), grid_plaquette=n_plaquette,
                       grid_curvature=n, plaquette_residue=residue)
