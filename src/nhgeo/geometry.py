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

Two routes compute the same tensors, batched over leading axes:

* The eigenvector route: every tensor is a function of the velocity
  matrix V_mu = <L|d_mu H|R> (:func:`velocity_matrices`, the one
  contraction of dH), the energies and the two Gram matrices of an
  :class:`~nhgeo.spectra.Eigensystem`.  It serves any band count and the
  single-point calls.
* The pseudospin kernel (:func:`pseudospin_geometry`): for two bands,
  H = c + d.sigma, every tensor is a trace of products of the band
  projectors P_+- = (1 +- n.sigma)/2, n = d/sqrt(d.d), with the Pauli
  parts a_mu = d_mu d of d_mu H, from the model's d pass (no eigenvector
  and no matrix is formed).  It serves
  :func:`_scan_chunks`, the mesh pass of every scan, guarded per point and
  cross-checked against the eigenvector route on one kx row of every
  chunk; the streamed ``chern`` pass forms and checks ``qgt_lr`` only.

All quantities are gauge invariant under |R_n> -> c(k)|R_n>,
|L_n> -> |L_n>/conj(c(k)).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (ConfigError, ExceptionalPointError, GaugeLockError,
                     IllConditionedError, NonConvergenceError, NonFiniteError)
from .models import BlochModel, bz_mesh
from .spectra import (Eigensystem, _dot, eigensystem_two_band, matrix_elements,
                      pseudospin_root)
from .tolerances import CROSS_CHECK_RTOL, LOCK_MIN_OVERLAP, NORM_PRODUCT_LIMIT

#: mesh points per batched chunk of :func:`_mesh_chunks` (whole kx rows);
#: small enough that a chunk's temporaries stay a few MB
CHUNK_POINTS = 2048

#: central step of :func:`anomalous_divergence_integral`'s divergence
DIVERGENCE_STEP = 1e-2

#: the stored GeometryGrid fields (besides the mesh), in the order both
#: routes return them
FIELDS = ("qgt_lr", "qgt_rr", "qgt_ll", "anomalous_r", "anomalous_l", "norm_product")


def velocity_matrices(eig: Eigensystem, dhx, dhy):
    """V[..., mu, n, m] = <L_n|d_mu H|R_m>, shape (..., 2, N, N).

    The tensors' only contraction of the Hamiltonian derivatives; every
    tensor below is a function of V, the energies and the two Gram matrices.
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
    return matrix_elements(b, _schur_weights(gram, band, others), b)


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


def berry_curvature_lr(q_lr):
    """Mixed Berry curvature F = i (Q^{LR}_xy - Q^{LR}_yx).

    The projector pieces of the mixed tensor cancel in the
    antisymmetrization, so this equals the curl of the mixed connection.
    Pointwise F is generically complex for non-Hermitian models; only its
    BZ integral is real (2*pi*C).
    """
    return 1j * (q_lr[..., 0, 1] - q_lr[..., 1, 0])


@dataclass
class GeometryGrid:
    """All geometric quantities of one band on a uniform BZ mesh.

    Arrays are struct-of-arrays with the mesh in the two leading axes,
    row-major in (kx index, ky index).  Only the :data:`FIELDS` are stored;
    ``qgt_rl`` and ``curvature_lr`` are read-only functions of ``qgt_lr``.
    """

    kx: np.ndarray
    ky: np.ndarray
    qgt_lr: np.ndarray       # (nx, ny, 2, 2)
    qgt_rr: np.ndarray
    qgt_ll: np.ndarray
    anomalous_r: np.ndarray  # (nx, ny, 2)
    anomalous_l: np.ndarray
    norm_product: np.ndarray  # (nx, ny) real

    @property
    def qgt_rl(self):
        """(nx, ny, 2, 2), :func:`qgt_rl_from_lr` of ``qgt_lr``."""
        return qgt_rl_from_lr(self.qgt_lr)

    @property
    def curvature_lr(self):
        """(nx, ny) complex, :func:`berry_curvature_lr` of ``qgt_lr``."""
        return berry_curvature_lr(self.qgt_lr)

    @property
    def shape(self):
        return self.norm_product.shape

    def cell_area(self):
        nx, ny = self.shape
        return (2.0 * np.pi / nx) * (2.0 * np.pi / ny)


def compute_geometry(eig: Eigensystem, dhx, dhy, band=0):
    """The :data:`FIELDS` of one band from one eigensystem (batched).

    The derivatives enter once, through :func:`velocity_matrices`.
    """
    v = velocity_matrices(eig, dhx, dhy)
    return (qgt_lr(eig, v, band=band), qgt_rr(eig, v, band=band),
            qgt_ll(eig, v, band=band),
            anomalous_connection(eig, v, band=band, side="R"),
            anomalous_connection(eig, v, band=band, side="L"),
            eig.norm_product(band))


def _cross(u, v, out):
    """out[..., i, :] = (u x v)_i over the component axis -2."""
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        np.subtract(u[..., j, :] * v[..., k, :], u[..., k, :] * v[..., j, :],
                    out=out[..., i, :])
    return out


def pseudospin_geometry(c, d, ddx, ddy, band=0, lr_only=False):
    """The :data:`FIELDS` (``qgt_lr`` only if ``lr_only``) of branch band ``band``
    of H = c + d.sigma without eigenvectors, from a model's
    :meth:`~nhgeo.models.BlochModel.pseudospin_pass` (c, d, a_x, a_y): a_mu is
    the Pauli part of d_mu H, whose identity part drops out.

    With s = sqrt(d.d) (branch energies c +- s) and n = d/s, the band
    projectors are P_n = (1 + sig n.sigma)/2 (sig = +1 for band 0, -1 for
    band 1) and Delta = e_n - e_m = 2 sig s.  The interband pieces are the
    traceless matrices P_n A_mu P_m = g_mu.sigma and P_m A_mu P_n = h_mu.sigma
    with g, h = (a_perp +- i sig n x a)/2, and every field is a trace of their
    products with the right/left ray projectors
    rho_R = P P^+/tr(P P^+) = (1 + r.sigma)/2, rho_L = P^+ P/tr(P^+ P)
    = (1 + l.sigma)/2:

    * Q^LR_mu,nu = tr(P_n A_mu P_m A_nu)/Delta^2 = 2 g_mu.h_nu/Delta^2,
    * Q^RR_mu,nu = tr(rho_Rn A_mu^+ P_m^+ P_m A_nu)(1 - tr rho_Rm rho_Rn)/|Delta|^2
      = 2 conj(h_mu).h_nu/(N^2 |Delta|^2), Q^LL mirrored with g,
    * Q^R_mu = i tr(P_m A_mu P_n rho_Rn)/Delta = i h_mu.r/Delta, Q^L mirrored,
    * N = tr(P_n^+ P_n) = |Re n|^2, which also gives 1 - tr rho_Rm rho_Rn = 1/N.

    Everything is elementwise over the batch, so a point gets the same bits
    in any batch.  Guards, each a typed error: the ``GAP_RTOL`` gap of
    :func:`~nhgeo.spectra.pseudospin_root` (ExceptionalPointError with the
    batch indices), N above :data:`NORM_PRODUCT_LIMIT`
    (IllConditionedError) and non-finite output (NonFiniteError).
    """
    if band not in (0, 1):
        raise ValueError("band must be 0 or 1")
    s = pseudospin_root(d, c)
    shape = s.shape
    sig = 1.0 if band == 0 else -1.0
    inv_s = 1.0 / s.reshape(-1)
    size = inv_s.size
    n = np.empty((3, size), dtype=complex)
    np.multiply(np.reshape(d, (size, 3)).T, inv_s, out=n)
    a = np.array([np.reshape(x, (size, 3)).T for x in (ddx, ddy)], dtype=complex)
    x, y = n.real, n.imag
    norm = x[0] * x[0] + x[1] * x[1] + x[2] * x[2]
    bad = norm > NORM_PRODUCT_LIMIT
    if np.any(bad):
        raise IllConditionedError(
            f"norm product up to {float(np.max(norm[bad])):.2e} exceeds "
            f"{NORM_PRODUCT_LIMIT:.0e} at {int(np.count_nonzero(bad))} point(s) "
            "(near-exceptional)")

    # 2g and 2h: a_perp +- i sig n x a_perp, with a_perp = a - (n.a) n
    p = n[0] * a[:, 0] + n[1] * a[:, 1] + n[2] * a[:, 2]
    a -= p[:, None] * n  # now a_perp
    twist = _cross((1j * sig) * n, a, np.empty_like(a))
    hv = a - twist
    g = np.add(a, twist, out=twist)

    # g and h here are 2 g and 2 h; the factors are folded into the scales
    q_lr = np.empty((2, 2, size), dtype=complex)
    for mu in range(2):
        q_lr[mu] = (g[mu] * hv).sum(axis=1)
    q_lr *= 0.125 * inv_s * inv_s
    fields = [q_lr]
    if not lr_only:
        u = _cross(x, y, np.empty((3, size)))  # x cross y = i (n x n*) / 2
        r = (sig * x + u) / norm
        l = (sig * x - u) / norm
        w = 0.125 / (norm * norm * (s.real * s.real + s.imag * s.imag).reshape(-1))
        # Q^RR_mu,nu ~ conj(h_mu).h_nu and Q^LL_mu,nu ~ g_mu.conj(g_nu): diagonals
        # in real arithmetic, mirrored off-diagonals, so both are exactly Hermitian
        for v, upper in ((hv, (0, 1)), (g, (1, 0))):
            q = np.empty((2, 2, size), dtype=complex)
            sq = (v.real * v.real + v.imag * v.imag).sum(axis=1)
            q[0, 0] = sq[0] * w
            q[1, 1] = sq[1] * w
            q[upper] = (np.conj(v[0]) * v[1]).sum(axis=0) * w
            q[upper[::-1]] = np.conj(q[upper])
            fields.append(q)
        fields.append((hv * r).sum(axis=1) * ((0.25j * sig) * inv_s))
        fields.append((np.conj(g) * l).sum(axis=1) * ((0.25j * sig) * np.conj(inv_s)))
    fields.append(norm)

    # one sum sees every NaN or infinity (and overflow, which is as fatal)
    if not np.isfinite(sum(np.sum(v) for v in fields)):
        raise NonFiniteError("non-finite geometry from the pseudospin kernel")
    # (k component axes, size) -> (*shape, k component axes) views
    return tuple(q.reshape(q.shape[:-1] + shape).transpose(
        tuple(range(q.ndim - 1, q.ndim - 1 + len(shape))) + tuple(range(q.ndim - 1)))
        for q in fields[:1 if lr_only else None])


def _row_max(x):
    return np.max(np.abs(x).reshape(len(x), -1), axis=1)


def _cross_check(model: BlochModel, kx, ky, values, band):
    """Compare pseudospin-kernel fields ``values``, the leading :data:`FIELDS`
    that the pass formed, at whole kx rows (kx, ky) with the validated
    eigenvector route (``eigensystem_two_band`` + :func:`compute_geometry`).

    In each row, a field's largest deviation is measured against its own
    largest magnitude, floored by the natural scale of the fields (the
    largest tensor entry T; sqrt(T) for the connections; 1 for the norm
    product), so a field that is pure roundoff (the connections of a
    Hermitian model) does not count.  Raises NonConvergenceError above
    CROSS_CHECK_RTOL.
    """
    h, dhx, dhy = model.hamiltonian(kx, ky, derivatives=True)
    ref = compute_geometry(eigensystem_two_band(h), dhx, dhy, band=band)
    tensor = np.max([_row_max(v) for v in ref[:3]], axis=0)
    floors = (tensor,) * 3 + (np.sqrt(tensor),) * 2 + (1.0,)
    for name, value, want, floor in zip(FIELDS, values, ref, floors):
        err, scale = _row_max(value - want), np.maximum(_row_max(want), floor)
        ok = err <= CROSS_CHECK_RTOL * scale
        if not np.all(ok):
            row = int(np.argmin(ok))
            raise NonConvergenceError(
                f"pseudospin kernel and eigenvector route differ in {name} by "
                f"{err[row]:.2e} at scale {scale[row]:.2e} (limit {CROSS_CHECK_RTOL:.0e} relative)")


def _k_points(exc: ExceptionalPointError, kx, ky):
    """The (kx, ky) pairs at the batch indices that ``exc`` carries."""
    kx, ky = np.broadcast_arrays(kx, ky)
    return [(float(kx[tuple(i)]), float(ky[tuple(i)])) for i in exc.points]


def _branch_eigensystem(h, kx, ky):
    """``eigensystem_two_band(h)`` of the matrices at (kx, ky); exceptional
    points are raised as sorted (kx, ky) pairs."""
    try:
        return eigensystem_two_band(h)
    except ExceptionalPointError as exc:
        raise ExceptionalPointError(str(exc), points=sorted(_k_points(exc, kx, ky))) from exc


def _chunk_rows(ny):
    """kx rows per chunk of a mesh with ``ny`` points per row."""
    return max(1, CHUNK_POINTS // ny)


def _mesh_chunks(kxg, kyg, solve):
    """Solve a (nx, ny) mesh in fixed chunks of whole kx rows, one after the other.

    Yields ``(rows, solve(kx, ky))`` per chunk of about CHUNK_POINTS points
    (one batched model pass and what is built from it), with ``rows`` the
    chunk's kx-row slice.  Chunk bounds depend on the mesh shape only.  The
    exceptional points of every chunk are mapped to (kx, ky), sorted and
    raised once after the last chunk.
    """
    nx, ny = kxg.shape
    step = _chunk_rows(ny)
    bad_points = []
    for i0 in range(0, nx, step):
        rows = slice(i0, i0 + step)
        kxr, kyr = kxg[rows], kyg[rows]
        try:
            result = solve(kxr, kyr)
        except ExceptionalPointError as exc:
            bad_points += _k_points(exc, kxr, kyr)
            continue
        yield rows, result
    if bad_points:
        raise ExceptionalPointError(
            f"{len(bad_points)} exceptional point(s) on the mesh", points=sorted(bad_points))


def _scan_chunks(model: BlochModel, band, kxg, kyg, lr_only=False):
    """Yield ``(rows, values)``, the :data:`FIELDS` (``qgt_lr`` only when
    ``lr_only``) of each :func:`_mesh_chunks` chunk of the mesh (kxg, kyg),
    from one :meth:`~nhgeo.models.BlochModel.pseudospin_pass` per chunk.

    The first kx row of every chunk is :func:`_cross_check`-ed in batches of
    ``_chunk_rows(ny)`` chunks, each as soon as all its chunks are solved and
    before the last of them is yielded; only the current batch's rows are kept.
    """
    if model.dimension != 2:
        raise ConfigError("grid scans support two-band models only")
    step = _chunk_rows(kxg.shape[1])
    starts = np.arange(0, len(kxg), step)  # the first kx row of every chunk
    batch, firsts = None, []
    for rows, values in _mesh_chunks(kxg, kyg, lambda kxr, kyr: pseudospin_geometry(
            *model.pseudospin_pass(kxr, kyr), band=band, lr_only=lr_only)):
        if rows.start // step**2 != batch:  # a batch that lost a chunk to exceptional
            batch, firsts = rows.start // step**2, []  # points is never checked
        firsts.append([np.array(value[0]) for value in values])
        sel = starts[batch * step:(batch + 1) * step]
        if len(firsts) == len(sel):
            _cross_check(model, kxg[sel], kyg[sel], [np.stack(f) for f in zip(*firsts)], band)
            firsts = []
        yield rows, values


def scan_geometry(model: BlochModel, band=0, nx=64, ny=None, workers=1):
    """GeometryGrid of branch band ``band`` over the uniform [-pi, pi)^2 mesh,
    filled chunk by chunk by :func:`_scan_chunks`.  Bands carry the k-smooth
    branch labels (integer topology requires a labeling that is continuous
    across the zone).  ``workers`` (>= 1) is accepted for the callers that
    pass a thread count and has no effect: the scan is serial."""
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    kxg, kyg = bz_mesh(nx, nx if ny is None else ny)
    fields = []  # every element is written by a chunk, or the scan raises
    for rows, values in _scan_chunks(model, band, kxg, kyg):
        fields = fields or [np.empty(kxg.shape + v.shape[2:], v.dtype) for v in values]
        for field, value in zip(fields, values):
            field[rows] = value
    return GeometryGrid(kxg, kyg, *fields)


# -- phase-locked stencil -----------------------------------------------------

@dataclass
class LockedSet:
    """A validated stencil eigensystem rephased to the center, without its Gram matrices."""

    energies: np.ndarray
    right: np.ndarray
    left: np.ndarray


def locked_stencil(model: BlochModel, kx, ky, h):
    """Center eigensystem plus the 4-point stencil locked to the center gauge.

    Returns (center, {(axis, sign): ((kx', ky'), LockedSet)}, dh) with the
    shifted momenta k' = k + sign * h e_axis.  Each stencil eigensystem's
    per-band phase is aligned with the center band (overlap made real
    positive); branch labels keep the stencil on one smooth band.  Raises
    GaugeLockError when any normalized overlap magnitude drops below
    LOCK_MIN_OVERLAP, and ExceptionalPointError with the sorted (kx, ky)
    pairs of the first k set that has any.

    Each k set is solved from one ``model.hamiltonian(..., derivatives=True)``
    pass; ``dh`` maps ``"center"`` and every (axis, sign) key to that set's
    (d_x H, d_y H).
    """
    dh = {}

    def solve(key, akx, aky):
        ham, *dh[key] = model.hamiltonian(akx, aky, derivatives=True)
        return _branch_eigensystem(ham, akx, aky)

    kx = np.asarray(kx, dtype=float)
    ky = np.asarray(ky, dtype=float)
    center = solve("center", kx, ky)
    bra, center_sq = np.conj(center.right), center.norms_right_sq()
    shifted = {}
    for axis in (0, 1):
        for sign in (1.0, -1.0):
            k = (kx + sign * h, ky) if axis == 0 else (kx, ky + sign * h)
            eig = solve((axis, sign), *k)
            ov = _dot(bra, eig.right)
            nrm = np.abs(ov) / np.sqrt(center_sq * eig.norms_right_sq())
            if np.any(nrm < LOCK_MIN_OVERLAP):
                raise GaugeLockError(
                    f"stencil overlap below {LOCK_MIN_OVERLAP} at step {h}")
            c = np.abs(ov) / ov  # gauge_rescale's factor; its Gram transform is not needed
            shifted[(axis, sign)] = (k, LockedSet(eig.energies, eig.right * c[..., None],
                                                  eig.left / np.conj(c)[..., None]))
            del eig  # the unlocked copy is not held through the next solve
    return center, shifted, dh


def anomalous_divergence_integral(model: BlochModel, band=0, n_grid=64):
    """BZ Riemann sum of the discrete divergence of the right anomalous one-form.

    The connection is gauge invariant, so its divergence integrates to zero
    over the torus; the Riemann sum converges to zero with grid refinement.
    The divergence uses the mesh-independent central step
    :data:`DIVERGENCE_STEP`: the shifted torus integrals cancel exactly for
    any step, so the step only sets the cancellation-noise floor (larger
    steps keep it below the quadrature error on fine meshes).  Exceptional
    points are raised as the sorted (kx, ky) pairs of the first shifted mesh
    that has any.
    """
    kxg, kyg = bz_mesh(n_grid, n_grid)
    h = DIVERGENCE_STEP

    def q_at(kx, ky):
        ham, dhx, dhy = model.hamiltonian(kx, ky, derivatives=True)
        eig = _branch_eigensystem(ham, kx, ky)
        return anomalous_connection(eig, velocity_matrices(eig, dhx, dhy), band=band)

    div = (q_at(kxg + h, kyg)[..., 0] - q_at(kxg - h, kyg)[..., 0]) / (2 * h) \
        + (q_at(kxg, kyg + h)[..., 1] - q_at(kxg, kyg - h)[..., 1]) / (2 * h)
    area = (2.0 * np.pi / n_grid) ** 2
    return complex(np.sum(div) * area)
