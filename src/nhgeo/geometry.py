"""Non-Hermitian quantum geometric tensors at a k-point and on BZ grids.

Conventions
-----------
* ``qgt_lr`` / ``qgt_rl`` are the mixed tensors in the biorthonormal
  (<L|R> = 1) convention without norm factors; their antisymmetric part is
  the mixed Berry curvature whose BZ integral is 2*pi*C.
* ``qgt_rr`` / ``qgt_ll`` are the symmetric tensors of the unit-normalized
  right/left vector rays; they are Hermitian and positive semidefinite.
* ``norm_product`` is the gauge-invariant ||R_n||^2 ||L_n||^2 that converts
  between the two normalizations of the mixed tensor.

Every tensor is a function of the velocity matrix V_mu = <L|d_mu H|R>
(:func:`velocity_matrices`, the one contraction of dH), the energies and
the two Gram matrices.  Everything is batched over leading axes.  All
quantities are gauge invariant under |R_n> -> c(k)|R_n>,
|L_n> -> |L_n>/conj(c(k)).
"""

from __future__ import annotations

from dataclasses import dataclass
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .errors import (ConfigError, ExceptionalPointError, GaugeLockError,
                     NonRealCurvatureError)
from .models import BlochModel, bz_mesh
from .spectra import Eigensystem, eigensystem_two_band, gauge_rescale, matrix_elements

#: minimum |<psi(k)|psi(k')>| for a finite-difference gauge lock
LOCK_MIN_OVERLAP = 0.5

CURVATURE_IMAG_TOL = 1e-9

#: mesh points per batched chunk of :func:`solve_mesh` (whole kx rows);
#: small enough that a chunk's temporaries stay a few MB
CHUNK_POINTS = 2048


def velocity_matrices(eig: Eigensystem, dhx, dhy):
    """V[..., mu, n, m] = <L_n|d_mu H|R_m>, shape (..., 2, N, N).

    The only contraction of the Hamiltonian derivatives; every tensor
    below is a function of V, the energies and the two Gram matrices.
    """
    return np.stack([matrix_elements(eig.left, dh, eig.right) for dh in (dhx, dhy)],
                    axis=-3)


def _gaps(energies, band, others):
    return energies[..., band, None] - energies[..., others]


def _others(eig: Eigensystem, band):
    return [m for m in range(eig.nbands) if m != band]


def qgt_lr(eig: Eigensystem, v, band=0, occupied=None):
    """Mixed LR tensor Q^{LR}_{mu nu} of one band, shape (..., 2, 2).

    Sum over bands outside the occupied set of
    <L_n|dH_mu|R_k><L_k|dH_nu|R_n> / (e_n - e_k)^2, which is the
    gauge-invariant resolvent form of <d_mu psiL|(1 - P_O)|d_nu psiR>.
    ``v`` is the output of :func:`velocity_matrices`.
    """
    occupied = {band} if occupied is None else set(occupied)
    if band not in occupied:
        raise ValueError("band must belong to the occupied set")
    others = [k for k in range(eig.nbands) if k not in occupied]
    gaps = _gaps(eig.energies, band, others)[..., None, None, :]
    num = v[..., band, others][..., :, None, :] * v[..., others, band][..., None, :, :]
    return np.sum(num / gaps**2, axis=-1)


def qgt_rl_from_lr(q_lr):
    """Q^{RL}_{mu nu} = conj(Q^{LR}_{nu mu}); an involution."""
    return np.conj(np.swapaxes(q_lr, -1, -2))


def _schur_weights(gram, band, others):
    """W_mk = I_mk - I_mn I_nk / I_nn restricted to m, k != n (PSD)."""
    sub = gram[..., others, :][..., :, others]
    col = gram[..., others, band]
    row = gram[..., band, others]
    nn = gram[..., band, band]
    return sub - col[..., :, None] * row[..., None, :] / nn[..., None, None]


def _schur_square(b, gram, band, others):
    """sum_{m, k != n} conj(B^mu_m) W_mk B^nu_k; Hermitian PSD in (mu, nu)."""
    w = _schur_weights(gram, band, others)
    return np.einsum("...am,...mk,...bk->...ab", np.conj(b), w, b)


def qgt_rr(eig: Eigensystem, v, band=0):
    """Symmetric RR tensor of the unit-normalized right ray of band n.

    Double band sum over m, k != n with the Schur-complement weights of the
    right Gram matrix and B_k = <L_k|dH|R_n> / (||R_n|| (e_n - e_k)); it is
    the projector QGT in the Hermitian limit.
    """
    others = _others(eig, band)
    gaps = _gaps(eig.energies, band, others)[..., None, :]
    norm = np.sqrt(eig.norms_right_sq()[..., band])[..., None, None]
    return _schur_square(v[..., others, band] / norm / gaps, eig.overlap_right,
                         band, others)


def qgt_ll(eig: Eigensystem, v, band=0):
    """Symmetric LL tensor of band n: left Gram weights and
    B_k = <R_k|dH^dagger|L_n> / (||L_n|| (e_n - e_k)^*), the conjugate of V."""
    others = _others(eig, band)
    gaps = np.conj(_gaps(eig.energies, band, others))[..., None, :]
    norm = np.sqrt(eig.norms_left_sq()[..., band])[..., None, None]
    return _schur_square(np.conj(v[..., band, others]) / norm / gaps,
                         eig.overlap_left, band, others)


def anomalous_connection(eig: Eigensystem, v, band=0, side="R"):
    """Gauge-invariant anomalous connection (Q^R_x, Q^R_y) or (Q^L_x, Q^L_y).

    R side: i sum_{m != n} (I_nm / I_nn) <L_m|dH|R_n> / (e_n - e_m);
    L side mirrors it with the left Gram matrix, daggered velocity and
    conjugated energies.  Shape (..., 2).
    """
    others = _others(eig, band)
    gaps = _gaps(eig.energies, band, others)[..., None, :]
    if side == "R":
        gram = eig.overlap_right
        elem = v[..., others, band] / gaps
    elif side == "L":
        gram = eig.overlap_left
        elem = np.conj(v[..., band, others]) / np.conj(gaps)
    else:
        raise ValueError("side must be 'R' or 'L'")
    ratio = gram[..., band, others] / gram[..., band, band, None]
    return 1j * np.sum(ratio[..., None, :] * elem, axis=-1)


def berry_curvature_lr(q_lr, strict=False):
    """Mixed Berry curvature F = i (Q^{LR}_xy - Q^{LR}_yx).

    The projector pieces of the mixed tensor cancel in the
    antisymmetrization, so this equals the curl of the mixed connection.
    Pointwise F is generically complex for non-Hermitian models; only its
    BZ integral is real (2*pi*C).  With ``strict=True`` the imaginary part
    must vanish pointwise (Hermitian-limit contract).
    """
    f = 1j * (q_lr[..., 0, 1] - q_lr[..., 1, 0])
    if strict:
        scale = max(float(np.max(np.abs(f))), 1.0)
        resid = float(np.max(np.abs(np.imag(f))))
        if resid > CURVATURE_IMAG_TOL * scale:
            raise NonRealCurvatureError(
                f"pointwise curvature imaginary residue {resid:.2e}")
        return np.real(f)
    return f


@dataclass
class GeometryGrid:
    """All geometric quantities of one band on a uniform BZ mesh.

    Arrays are struct-of-arrays with the mesh in the two leading axes,
    row-major in (kx index, ky index).
    """

    kx: np.ndarray
    ky: np.ndarray
    band: int
    qgt_lr: np.ndarray       # (nx, ny, 2, 2)
    qgt_rl: np.ndarray
    qgt_rr: np.ndarray
    qgt_ll: np.ndarray
    anomalous_r: np.ndarray  # (nx, ny, 2)
    anomalous_l: np.ndarray
    curvature_lr: np.ndarray  # (nx, ny) complex
    norm_product: np.ndarray  # (nx, ny) real

    @property
    def shape(self):
        return self.curvature_lr.shape

    def cell_area(self):
        nx, ny = self.shape
        return (2.0 * np.pi / nx) * (2.0 * np.pi / ny)


def compute_geometry(eig: Eigensystem, dhx, dhy, band=0, occupied=None):
    """All per-point geometric objects from one eigensystem (batched).

    The derivatives enter once, through :func:`velocity_matrices`.
    """
    v = velocity_matrices(eig, dhx, dhy)
    q_lr = qgt_lr(eig, v, band=band, occupied=occupied)
    return (q_lr, qgt_rl_from_lr(q_lr), qgt_rr(eig, v, band=band),
            qgt_ll(eig, v, band=band),
            anomalous_connection(eig, v, band=band, side="R"),
            anomalous_connection(eig, v, band=band, side="L"),
            berry_curvature_lr(q_lr))


def solve_mesh(model: BlochModel, kxg, kyg, ordering, store, mapper=map):
    """Solve a (nx, ny) mesh in fixed chunks of whole kx rows.

    Each chunk of about CHUNK_POINTS points is one batched
    ``hamiltonian``/``eigensystem_two_band`` call, handed on as
    ``store(rows, kx, ky, eig)`` with ``rows`` the chunk's kx-row slice.
    ``mapper`` runs the chunks (``map`` serially, an executor's ``map`` on
    threads).  Chunk bounds depend on the mesh shape only.  The exceptional
    points of every chunk are mapped to (kx, ky), sorted and raised once
    after the last chunk.
    """
    nx, ny = kxg.shape
    rows = max(1, CHUNK_POINTS // ny)

    def do_chunk(i0):
        rng = slice(i0, i0 + rows)
        kxr, kyr = kxg[rng], kyg[rng]
        try:
            eig = eigensystem_two_band(model.hamiltonian(kxr, kyr), ordering=ordering)
        except ExceptionalPointError as exc:
            return [(float(kxr[i, j]), float(kyr[i, j])) for i, j in exc.points]
        store(rng, kxr, kyr, eig)
        return []

    bad_points = sorted(pt for pts in mapper(do_chunk, range(0, nx, rows)) for pt in pts)
    if bad_points:
        raise ExceptionalPointError(
            f"{len(bad_points)} exceptional point(s) on the mesh", points=bad_points)


def scan_geometry(model: BlochModel, band=0, nx=64, ny=None, occupied=None,
                  workers=1, ordering="branch"):
    """GeometryGrid over the uniform [-pi, pi)^2 mesh.

    :func:`solve_mesh` cuts the mesh into chunks of whole kx rows;
    ``workers`` threads solve one chunk per batched call and write it into
    preallocated arrays, so the result is identical for any ``workers``.
    Bands carry the k-smooth branch labels by default (integer topology
    requires a labeling that is continuous across the zone).
    """
    if model.dimension != 2:
        raise ConfigError("grid scans support two-band models only")
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    ny = nx if ny is None else ny
    kxg, kyg = bz_mesh(nx, ny)
    fields = {"qgt_lr": (2, 2), "qgt_rl": (2, 2), "qgt_rr": (2, 2), "qgt_ll": (2, 2),
              "anomalous_r": (2,), "anomalous_l": (2,), "curvature_lr": ()}
    out = GeometryGrid(kx=kxg, ky=kyg, band=band, norm_product=np.full((nx, ny), np.nan),
                       **{name: np.full((nx, ny) + tail, np.nan, dtype=complex)
                          for name, tail in fields.items()})

    def store(rng, kxr, kyr, eig):
        values = compute_geometry(eig, model.derivative(kxr, kyr, 0),
                                  model.derivative(kxr, kyr, 1),
                                  band=band, occupied=occupied)
        for name, value in zip(fields, values):
            getattr(out, name)[rng] = value
        out.norm_product[rng] = eig.norm_product(band)

    with ThreadPoolExecutor(max_workers=workers) as pool:
        solve_mesh(model, kxg, kyg, ordering, store, mapper=pool.map)
    return out


# -- phase-locked stencil -----------------------------------------------------

def locked_stencil(model: BlochModel, kx, ky, h, gauge=None):
    """Center eigensystem plus the 4-point stencil locked to the center gauge.

    Returns (center, {(axis, sign): ((kx', ky'), eigensystem)}) with the
    shifted momenta k' = k + sign * h e_axis.  Each stencil eigensystem's
    per-band phase is aligned with the center band (overlap made real
    positive); branch labels keep the stencil on one smooth band.
    ``gauge`` injects a test rescaling c(k) at every point, which the lock
    must cancel.  Raises GaugeLockError when any normalized overlap
    magnitude drops below LOCK_MIN_OVERLAP.
    """
    def solve(akx, aky):
        eig = eigensystem_two_band(model.hamiltonian(akx, aky), ordering="branch")
        return eig if gauge is None else gauge_rescale(eig, gauge(akx, aky))

    kx = np.asarray(kx, dtype=float)
    ky = np.asarray(ky, dtype=float)
    center = solve(kx, ky)
    shifted = {}
    for axis in (0, 1):
        for sign in (1.0, -1.0):
            k = (kx + sign * h, ky) if axis == 0 else (kx, ky + sign * h)
            eig = solve(*k)
            ov = np.einsum("...ni,...ni->...n", np.conj(center.right), eig.right)
            nrm = np.abs(ov) / np.sqrt(center.norms_right_sq() * eig.norms_right_sq())
            if np.any(nrm < LOCK_MIN_OVERLAP):
                raise GaugeLockError(
                    f"stencil overlap below {LOCK_MIN_OVERLAP} at step {h}")
            shifted[(axis, sign)] = (k, gauge_rescale(eig, np.abs(ov) / ov))
    return center, shifted


def anomalous_divergence_integral(model: BlochModel, band=0, n_grid=64,
                                  h=1e-2, side="R"):
    """BZ Riemann sum of the discrete divergence of the anomalous one-form.

    The connection is gauge invariant, so its divergence integrates to zero
    over the torus; the Riemann sum converges to zero with grid refinement.
    The divergence uses a mesh-independent central step ``h``: the shifted
    torus integrals cancel exactly for any step, so ``h`` only sets the
    cancellation-noise floor (larger steps keep it below the quadrature
    error on fine meshes).
    """
    kxg, kyg = bz_mesh(n_grid, n_grid)

    def q_at(kx, ky):
        eig = eigensystem_two_band(model.hamiltonian(kx, ky), ordering="branch")
        v = velocity_matrices(eig, model.derivative(kx, ky, 0), model.derivative(kx, ky, 1))
        return anomalous_connection(eig, v, band=band, side=side)

    div = (q_at(kxg + h, kyg)[..., 0] - q_at(kxg - h, kyg)[..., 0]) / (2 * h) \
        + (q_at(kxg, kyg + h)[..., 1] - q_at(kxg, kyg - h)[..., 1]) / (2 * h)
    area = (2.0 * np.pi / n_grid) ** 2
    return complex(np.sum(div) * area)
