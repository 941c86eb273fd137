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
  parts a_mu of d_mu H; no eigenvector is formed.  It serves
  :func:`scan_geometry`, guarded per point and cross-checked against the
  eigenvector route on one kx row of every chunk.

All quantities are gauge invariant under |R_n> -> c(k)|R_n>,
|L_n> -> |L_n>/conj(c(k)).
"""

from __future__ import annotations

from dataclasses import dataclass
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .errors import (ConfigError, ExceptionalPointError, GaugeLockError,
                     IllConditionedError, NonConvergenceError, NonFiniteError,
                     NonRealCurvatureError)
from .models import BlochModel, bz_mesh
from .spectra import (Eigensystem, eigensystem_two_band, gauge_rescale, matrix_elements,
                      pseudospin_split)

#: minimum |<psi(k)|psi(k')>| for a finite-difference gauge lock
LOCK_MIN_OVERLAP = 0.5

CURVATURE_IMAG_TOL = 1e-9

#: mesh points per batched chunk of :func:`solve_mesh` (whole kx rows);
#: small enough that a chunk's temporaries stay a few MB
CHUNK_POINTS = 2048

#: largest norm product ||R||^2 ||L||^2 (Petermann factor) the pseudospin
#: kernel serves.  The eigenvector route's Gram inverse carries a roundoff
#: of about 1.1e-16 N^2, which its validation rejects above 1e-9 (from
#: N ~ 3e3); beyond this limit neither route can be cross-checked to
#: CROSS_CHECK_RTOL.
NORM_PRODUCT_LIMIT = 1e3

#: largest relative disagreement between the pseudospin kernel and the
#: eigenvector route on a chunk's cross-check row
CROSS_CHECK_RTOL = 1e-10

#: GeometryGrid fields in the order both routes return them
FIELDS = ("qgt_lr", "qgt_rl", "qgt_rr", "qgt_ll", "anomalous_r", "anomalous_l",
          "curvature_lr", "norm_product")


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


def compute_geometry(eig: Eigensystem, dhx, dhy, band=0):
    """All per-point geometric objects from one eigensystem (batched).

    The derivatives enter once, through :func:`velocity_matrices`.
    """
    v = velocity_matrices(eig, dhx, dhy)
    q_lr = qgt_lr(eig, v, band=band)
    return (q_lr, qgt_rl_from_lr(q_lr), qgt_rr(eig, v, band=band),
            qgt_ll(eig, v, band=band),
            anomalous_connection(eig, v, band=band, side="R"),
            anomalous_connection(eig, v, band=band, side="L"),
            berry_curvature_lr(q_lr))


def _cross(u, v, out):
    """out[..., i, :] = (u x v)_i over the component axis -2."""
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        np.subtract(u[..., j, :] * v[..., k, :], u[..., k, :] * v[..., j, :],
                    out=out[..., i, :])
    return out


def pseudospin_geometry(h, dhx, dhy, band=0):
    """The eight :class:`GeometryGrid` fields of branch band ``band`` of
    two-band matrices, in :data:`FIELDS` order, without eigenvectors.

    With h = c + d.sigma, s = sqrt(d.d) (branch energies c +- s), n = d/s
    and a_mu the Pauli part of d_mu h, the band projectors are
    P_n = (1 + sig n.sigma)/2 (sig = +1 for band 0, -1 for band 1) and
    Delta = e_n - e_m = 2 sig s.  The interband pieces are the traceless
    matrices P_n A_mu P_m = g_mu.sigma and P_m A_mu P_n = h_mu.sigma with
    g, h = (a_perp +- i sig n x a)/2, and every field is a trace of their
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
    :func:`~nhgeo.spectra.pseudospin_split` (ExceptionalPointError with the
    batch indices), N above :data:`NORM_PRODUCT_LIMIT`
    (IllConditionedError) and non-finite output (NonFiniteError).
    """
    if band not in (0, 1):
        raise ValueError("band must be 0 or 1")
    d, _, s = pseudospin_split(h)
    shape = s.shape
    sig = 1.0 if band == 0 else -1.0
    inv_s = 1.0 / s.reshape(-1)
    size = inv_s.size
    n = np.empty((3, size), dtype=complex)
    np.multiply(d.reshape(size, 3).T, inv_s, out=n)
    a = np.empty((2, 3, size), dtype=complex)  # 2 a_mu, Pauli parts of d_mu h
    for mu, dh in enumerate((dhx, dhy)):
        dh = np.asarray(dh).reshape(size, 2, 2)
        np.add(dh[:, 0, 1], dh[:, 1, 0], out=a[mu, 0])
        np.subtract(dh[:, 0, 1], dh[:, 1, 0], out=a[mu, 1])
        np.subtract(dh[:, 0, 0], dh[:, 1, 1], out=a[mu, 2])
    a[:, 1] *= 1j
    x, y = n.real, n.imag
    norm = x[0] * x[0] + x[1] * x[1] + x[2] * x[2]
    bad = norm > NORM_PRODUCT_LIMIT
    if np.any(bad):
        raise IllConditionedError(
            f"norm product up to {float(np.max(norm[bad])):.2e} exceeds "
            f"{NORM_PRODUCT_LIMIT:.0e} at {int(np.count_nonzero(bad))} point(s) "
            "(near-exceptional)")

    # 4g and 4h: 2 (a_perp +- i sig n x a_perp), with a_perp = a - (n.a) n
    p = n[0] * a[:, 0] + n[1] * a[:, 1] + n[2] * a[:, 2]
    a -= p[:, None] * n  # now 2 a_perp
    twist = _cross((1j * sig) * n, a, np.empty_like(a))
    hv = a - twist
    g = np.add(a, twist, out=twist)
    u = _cross(x, y, np.empty((3, size)))  # x cross y = i (n x n*) / 2
    r = (sig * x + u) / norm
    l = (sig * x - u) / norm

    # g and h here are 4 g and 4 h; the factors are folded into the scales
    q_lr = np.empty((2, 2, size), dtype=complex)
    for mu in range(2):
        q_lr[mu] = (g[mu] * hv).sum(axis=1)
    q_lr *= 0.03125 * inv_s * inv_s
    w = 0.03125 / (norm * norm * (s.real * s.real + s.imag * s.imag).reshape(-1))
    # Q^RR_mu,nu ~ conj(h_mu).h_nu and Q^LL_mu,nu ~ g_mu.conj(g_nu): diagonals
    # in real arithmetic, mirrored off-diagonals, so both are exactly Hermitian
    q_rr = np.empty((2, 2, size), dtype=complex)
    q_ll = np.empty_like(q_rr)
    for q, v, upper in ((q_rr, hv, (0, 1)), (q_ll, g, (1, 0))):
        sq = (v.real * v.real + v.imag * v.imag).sum(axis=1)
        q[0, 0] = sq[0] * w
        q[1, 1] = sq[1] * w
        q[upper] = (np.conj(v[0]) * v[1]).sum(axis=0) * w
        q[upper[::-1]] = np.conj(q[upper])
    q_r = (hv * r).sum(axis=1) * ((0.125j * sig) * inv_s)
    q_l = (np.conj(g) * l).sum(axis=1) * ((0.125j * sig) * np.conj(inv_s))
    curv = 1j * (q_lr[0, 1] - q_lr[1, 0])

    # one sum sees every NaN or infinity (and overflow, which is as fatal)
    if not np.isfinite(sum(np.sum(v) for v in (q_lr, q_rr, q_ll, q_r, q_l, norm))):
        raise NonFiniteError("non-finite geometry from the pseudospin kernel")
    batch = len(shape)

    def trailing(q, k):
        """(k component axes, *shape) -> (*shape, k component axes) view."""
        order = tuple(range(k, k + batch)) + tuple(range(k))
        return q.reshape(q.shape[:k] + shape).transpose(order)

    lr = trailing(q_lr, 2)
    return (lr, qgt_rl_from_lr(lr), trailing(q_rr, 2), trailing(q_ll, 2),
            trailing(q_r, 1), trailing(q_l, 1), curv.reshape(shape), norm.reshape(shape))


def _row_max(x):
    return np.max(np.abs(x).reshape(len(x), -1), axis=1)


def _cross_check(model: BlochModel, kx, ky, values, band):
    """Compare pseudospin-kernel fields ``values`` at whole kx rows (kx, ky)
    with the validated eigenvector route (``eigensystem_two_band`` +
    :func:`compute_geometry`).

    In each row, a field's largest deviation is measured against its own
    largest magnitude, floored by the natural scale of the fields (the
    largest tensor entry T; sqrt(T) for the connections; 1 for the norm
    product), so a field that is pure roundoff (the connections of a
    Hermitian model) does not count.  Raises NonConvergenceError above
    CROSS_CHECK_RTOL.
    """
    eig = eigensystem_two_band(model.hamiltonian(kx, ky), ordering="branch")
    ref = compute_geometry(eig, model.derivative(kx, ky, 0), model.derivative(kx, ky, 1),
                           band=band) + (eig.norm_product(band),)
    tensor = np.max([_row_max(v) for v in ref[:4]], axis=0)
    floors = (tensor,) * 4 + (np.sqrt(tensor),) * 2 + (tensor, 1.0)
    for name, value, want, floor in zip(FIELDS, values, ref, floors):
        err, scale = _row_max(value - want), np.maximum(_row_max(want), floor)
        ok = err <= CROSS_CHECK_RTOL * scale
        if not np.all(ok):
            row = int(np.argmin(ok))
            raise NonConvergenceError(
                f"pseudospin kernel and eigenvector route differ in {name} by "
                f"{err[row]:.2e} at scale {scale[row]:.2e} (limit {CROSS_CHECK_RTOL:.0e} relative)")


def _chunk_rows(ny):
    """kx rows per chunk of a mesh with ``ny`` points per row."""
    return max(1, CHUNK_POINTS // ny)


def _branch_eigensystem(kx, ky, h):
    return eigensystem_two_band(h, ordering="branch")


def solve_mesh(model: BlochModel, kxg, kyg, store, mapper=map, solve=_branch_eigensystem):
    """Solve a (nx, ny) mesh in fixed chunks of whole kx rows.

    Each chunk of about CHUNK_POINTS points is one batched ``hamiltonian``
    call and one ``solve(kx, ky, h)`` call (by default the branch-labelled
    ``eigensystem_two_band``), handed on as ``store(rows, kx, ky, result)``
    with ``rows`` the chunk's kx-row slice.  ``mapper`` runs the chunks
    (``map`` serially, an executor's ``map`` on threads).  Chunk bounds
    depend on the mesh shape only.  The exceptional points of every chunk
    are mapped to (kx, ky), sorted and raised once after the last chunk.
    """
    nx, ny = kxg.shape
    rows = _chunk_rows(ny)

    def do_chunk(i0):
        rng = slice(i0, i0 + rows)
        kxr, kyr = kxg[rng], kyg[rng]
        try:
            result = solve(kxr, kyr, model.hamiltonian(kxr, kyr))
        except ExceptionalPointError as exc:
            return [(float(kxr[i, j]), float(kyr[i, j])) for i, j in exc.points]
        store(rng, kxr, kyr, result)
        return []

    bad_points = sorted(pt for pts in mapper(do_chunk, range(0, nx, rows)) for pt in pts)
    if bad_points:
        raise ExceptionalPointError(
            f"{len(bad_points)} exceptional point(s) on the mesh", points=bad_points)


def scan_geometry(model: BlochModel, band=0, nx=64, ny=None, workers=1):
    """GeometryGrid of branch band ``band`` over the uniform [-pi, pi)^2 mesh.

    :func:`solve_mesh` cuts the mesh into chunks of whole kx rows;
    ``workers`` threads each hand one chunk's H, d_x H and d_y H to
    :func:`pseudospin_geometry` and write the fields into preallocated
    arrays.  The kernel is elementwise, so the result is identical for any
    ``workers``.  The first kx row of every chunk is then recomputed
    through the validated eigenvector route, batched like the chunks
    (:func:`_cross_check`).  Bands carry the k-smooth branch labels
    (integer topology requires a labeling that is continuous across the
    zone).
    """
    if model.dimension != 2:
        raise ConfigError("grid scans support two-band models only")
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    ny = nx if ny is None else ny
    kxg, kyg = bz_mesh(nx, ny)
    tails = ((2, 2),) * 4 + ((2,),) * 2 + ((),)
    out = GeometryGrid(kx=kxg, ky=kyg, band=band, norm_product=np.full((nx, ny), np.nan),
                       **{name: np.full((nx, ny) + tail, np.nan, dtype=complex)
                          for name, tail in zip(FIELDS, tails)})

    def solve(kxr, kyr, h):
        return pseudospin_geometry(h, model.derivative(kxr, kyr, 0),
                                   model.derivative(kxr, kyr, 1), band=band)

    def store(rng, kxr, kyr, values):
        for name, value in zip(FIELDS, values):
            getattr(out, name)[rng] = value

    with ThreadPoolExecutor(max_workers=workers) as pool:
        solve_mesh(model, kxg, kyg, store, mapper=pool.map, solve=solve)
    rows = _chunk_rows(ny)
    firsts = np.arange(0, nx, rows)  # the first kx row of every chunk
    for i in range(0, len(firsts), rows):
        sel = firsts[i:i + rows]
        _cross_check(model, kxg[sel], kyg[sel], [getattr(out, name)[sel] for name in FIELDS],
                     band)
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
