"""Biorthogonal eigensystems of non-Hermitian matrices.

Vectors are stored band-first: ``right[..., n, :]`` are the components of
|R_n>, ``left[..., n, :]`` those of |L_n>, normalized so <L_n|R_m> =
delta_nm.  Right vectors are unit norm with the first non-vanishing
component real positive; every reported quantity downstream is gauge
invariant, so the convention only serves determinism.  The batched two-band
solve returns plane stacks (:func:`_to_back`): (..., N, N) views of contiguous
(N, N, ...) planes, which are not C-contiguous, so compare their bytes through
``np.ascontiguousarray``.

Two-band eigensystems carry the k-smooth branch labels: band 0 has energy
c + sqrt(d.d), band 1 c - sqrt(d.d), with h = c + d.sigma and the principal
square root.  :func:`eigensystem_general` sorts its bands by descending
Im(e), ties by ascending Re(e); :func:`decays_slower` is that rule for one
pair.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ExceptionalPointError, IllConditionedError, NonConvergenceError
from .models import _sum3, pauli_decompose
from .tolerances import (BIORTHO_TOL, DEFECTIVE_OVERLAP_TOL, GAP_RTOL, PAIRING_RTOL,
                         PHASE_COMPONENT_TOL, RECON_TOL)


def braket(a, b):
    """<a|b> over the last axis, batched."""
    return np.sum(np.conj(a) * b, axis=-1)


def _to_front(x):
    """The (rows, cols, ...) planes of a (..., rows, cols) stack, as a view."""
    return x.transpose((x.ndim - 2, x.ndim - 1) + tuple(range(x.ndim - 2)))


def _to_back(planes):
    """The (..., rows, cols) plane stack, a view, of (rows, cols, ...) planes."""
    return planes.transpose(tuple(range(2, planes.ndim)) + (0, 1))


def mm(a, b, out=None):
    """a @ b over the trailing two axes, batched and broadcast like matmul, as a plane
    stack, or written into ``out``, a plane stack of the result's shape.  Each entry
    plane adds the products a_ik b_kj, formed in one term buffer, in k order: for
    small N that beats matmul on long stacks, and a single matrix never rounds
    through numpy's scalar arithmetic."""
    a, b = _to_front(a), _to_front(b)
    if out is None:
        out = _to_back(np.empty((a.shape[0], b.shape[1]) + np.broadcast_shapes(
            a.shape[2:], b.shape[2:]), dtype=np.result_type(a, b)))
    planes = _to_front(out)
    term = np.empty(planes.shape[2:], dtype=planes.dtype)
    for i in range(a.shape[0]):
        for j in range(b.shape[1]):
            np.multiply(a[i, 0, ...], b[0, j, ...], out=planes[i, j, ...])
            for k in range(1, a.shape[1]):
                planes[i, j, ...] += np.multiply(a[i, k, ...], b[k, j, ...], out=term)
    return out


def _mul(a, b):
    """a * b of complex arrays, broadcast, as (ar br - ai bi) + i (ar bi + ai br) in
    real arithmetic: einsum's rounding, which numpy's complex multiply loop need not share."""
    re = a.real * b.real
    out = np.empty(re.shape, dtype=complex)
    np.subtract(re, a.imag * b.imag, out=out.real)
    np.add(a.real * b.imag, a.imag * b.real, out=out.imag)
    return out


def _dot(a, b):
    """sum_i a_i b_i over the last axis: the bits of ``np.einsum("...i,...i", a, b)``,
    which, as ``sum`` does, starts at 0 and adds the :func:`_mul` terms left to right."""
    return sum(_mul(a[..., i], b[..., i]) for i in range(a.shape[-1]))


def _norms_sq(v):
    """||v_n||^2 over the last axis: the bits of the real part of ``_dot(np.conj(v), v)``."""
    re, im = v.real, v.imag
    return sum(re[..., i] * re[..., i] + im[..., i] * im[..., i] for i in range(v.shape[-1]))


def matrix_elements(left, op, right):
    """M[n, m] = <L_n|op|R_m>, batched, for any number of n and m.  The terms
    (conj(L_ni) op_ij) R_mj, two :func:`_mul` each, summed over j, then over i, are for
    N = 2 the bits of ``np.einsum("...ni,...ij,...mj->...nm", np.conj(left), op, right)``."""
    bra, size = np.conj(left), op.shape[-1]
    out = np.empty(np.broadcast_shapes(left.shape[:-2], op.shape[:-2], right.shape[:-2])
                   + (left.shape[-2], right.shape[-2]), dtype=complex)
    for n in range(left.shape[-2]):
        row = [[_mul(bra[..., n, i], op[..., i, j]) for j in range(size)] for i in range(size)]
        for m in range(right.shape[-2]):
            out[..., n, m] = sum(sum(_mul(c, right[..., m, j]) for j, c in enumerate(cs))
                                 for cs in row)
    return out


def decays_slower(e_a, e_b):
    """True where level a sorts before level b: larger Im(e), ties by smaller Re(e).

    The band order of :func:`eigensystem_general` and the ``band="slowest"``
    selection of the response routines.
    """
    im_a, im_b = np.imag(e_a), np.imag(e_b)
    return (im_a > im_b) | ((im_a == im_b) & (np.real(e_a) < np.real(e_b)))


@dataclass
class Eigensystem:
    """Complex band energies with paired right/left eigenvectors.

    ``overlap_right`` is the right Gram matrix I_nm = <R_n|R_m>; the left
    Gram matrix equals its inverse by the <L|R> = delta normalization and
    is stored as ``overlap_left``.
    """

    energies: np.ndarray      # (..., N) complex
    right: np.ndarray         # (..., N, N)
    left: np.ndarray          # (..., N, N)
    overlap_right: np.ndarray
    overlap_left: np.ndarray

    @property
    def nbands(self):
        return self.energies.shape[-1]

    def norms_right_sq(self):
        """||R_n||^2 per band."""
        return _norms_sq(self.right)

    def norms_left_sq(self):
        return _norms_sq(self.left)

    def norm_product(self, band):
        """Gauge-invariant ||R_n||^2 ||L_n||^2 (>= 1, = 1 iff left = right)."""
        return self.norms_right_sq()[..., band] * self.norms_left_sq()[..., band]

    def validate(self, h):
        """Check the biorthogonality, completeness and overlap-inverse identities
        and the reconstruction of the matrices ``h`` (:meth:`_residuals`).

        Every comparison fails on NaN, so a non-finite eigensystem raises
        NonConvergenceError.  The band labels are not checked.
        """
        for identity, err, bound in self._residuals(h):
            if not err <= bound:
                raise NonConvergenceError(f"{identity} residual {err:.2e}")
        return self

    def _residuals(self, h):
        """Yield (identity, residual, bound) of the four identities, each formed once the
        one before is checked: the :func:`mm` products of the (M >= 1, N, N) field stacks
        share a product and a magnitude buffer; 1 is taken off the diagonal planes."""
        n = self.nbands
        right_t = np.swapaxes(self.right.reshape((-1, n, n)), -1, -2)
        left_h = np.conj(self.left.reshape((-1, n, n)))
        planes = np.empty((n, n, len(left_h)), dtype=complex)
        mag, diagonal = np.empty(planes.shape), planes.reshape(n * n, -1)[::n + 1]

        def from_identity(a, b):  # max |a b - 1|
            mm(a, b, out=_to_back(planes))
            diagonal[...] -= 1
            return np.max(np.abs(planes, out=mag))

        yield "biorthonormality", from_identity(left_h, right_t), BIORTHO_TOL
        yield "completeness", from_identity(right_t, left_h), BIORTHO_TOL
        overlap_right = self.overlap_right.reshape((-1, n, n))
        err = from_identity(self.overlap_left.reshape((-1, n, n)), overlap_right)
        bound = RECON_TOL * max(1.0, float(np.max(np.abs(_to_front(overlap_right), out=mag))))
        yield "overlap inverse", err, bound
        np.multiply(self.energies.reshape(-1, n).T[:, None], _to_front(left_h),
                    out=_to_front(left_h))
        mm(right_t, left_h, out=_to_back(planes))
        h = _to_front(np.broadcast_to(h, self.right.shape).reshape(-1, n, n))
        scale = np.max(np.abs(h, out=mag)) or 1.0
        planes -= h
        yield "reconstruction", np.max(np.abs(planes, out=mag)) / scale, RECON_TOL


def _fix_phase(v):
    """Make the first non-vanishing component of each (unit) vector real positive."""
    n = v.shape[-1]
    comp = v[..., 0]
    for i in range(1, n):
        comp = np.where(np.abs(comp) > PHASE_COMPONENT_TOL, comp, v[..., i])
    mag = np.abs(comp)
    phase = np.where(mag > 0, comp / np.where(mag > 0, mag, 1.0), 1.0)
    return v * np.conj(phase)[..., None]


def _gram(v):
    """Gram matrix <v_n|v_m>, the bits of ``np.einsum("...ni,...mi->...nm", np.conj(v), v)``:
    :func:`_norms_sq` on the diagonal (imaginary part exactly 0); above it
    0 + sum_i conj(v_ni) v_mi with each :func:`_mul` term written out in real
    arithmetic, (ar br + ai bi) + i (ar bi - ai br); below it the exact
    conj(I_nm) + 0, giving a vanishing imaginary part einsum's +0; a plane stack."""
    size, terms, re, im = v.shape[-2], range(v.shape[-1]), v.real, v.imag
    out = _to_back(np.empty((size, size) + v.shape[:-2], dtype=complex))
    out[..., range(size), range(size)] = _norms_sq(v)
    for n in range(size):
        for m in range(n + 1, size):
            entry = out[..., n, m]
            entry.real = sum(re[..., n, i] * re[..., m, i] + im[..., n, i] * im[..., m, i]
                             for i in terms)
            entry.imag = sum(re[..., n, i] * im[..., m, i] - im[..., n, i] * re[..., m, i]
                             for i in terms)
            np.add(np.conj(entry), 0, out=out[..., m, n])
    return out


def _dual_two_band(right, gram):
    """Dual (left) basis of two right vectors via the projection formulas, from
    their Gram matrix ``gram`` (:func:`_gram` of ``right``), each entry formed
    on the component planes.
    Raises IllConditionedError where I00, I11 or a Schur denominator is not
    positive and finite (numerically parallel right vectors); a NaN is left to
    validation."""
    i00, i11, i01 = gram[..., 0, 0], gram[..., 1, 1], gram[..., 0, 1]
    _require_positive(i00, i11)
    a01 = np.abs(i01) ** 2
    den0, den1 = i00 - a01 / i11, i11 - a01 / i00
    _require_positive(den0, den1)
    w0, w1 = np.conj(i01) / i11, i01 / i00
    left = np.empty_like(right)
    for i in (0, 1):
        r0, r1 = right[..., 0, i], right[..., 1, i]
        np.divide(r0 - w0 * r1, den0, out=left[..., 0, i])
        np.divide(r1 - w1 * r0, den1, out=left[..., 1, i])
    return left


def _require_positive(*values):
    if any(np.any((v.real <= 0) | (v.real == np.inf)) for v in values):
        raise IllConditionedError("right eigenvectors numerically parallel: a Gram "
                                  "denominator of the dual basis is not positive and finite")


def pseudospin_root(d, c):
    """s = sqrt(d.d) on the principal branch, batched over d (..., 3) and c: the
    branch energies of c + d.sigma are c +- s.  Raises ExceptionalPointError, with
    the batch indices, where |e_+ - e_-| < GAP_RTOL * max|e_+-|."""
    s = np.sqrt(_sum3(d * d))
    e_plus, e_minus = c + s, c - s
    scale = np.maximum(np.abs(e_plus), np.abs(e_minus))
    bad = np.abs(e_plus - e_minus) < GAP_RTOL * np.maximum(scale, 1e-300)
    if np.any(bad):
        raise ExceptionalPointError(
            f"two-band gap below tolerance at {int(np.count_nonzero(bad))} point(s)",
            points=np.argwhere(bad))
    return s


def eigensystem_two_band(h):
    """Closed-form biorthogonal eigensystem of 2x2 matrices, batched.

    Eigenvectors come from the pseudospin decomposition h = d.sigma + c;
    left vectors from the dual-basis projection of the two right vectors.
    Band 0 = c + sqrt(d.d), band 1 = c - sqrt(d.d) with the principal
    branch: for models whose d.d avoids the negative real half-line these
    are the k-smooth labels that topology scans and k derivatives need.
    Band 0 is the zero-dissipation limit of the slowest-decaying band of
    the Rice-Mele family (whose uniform-loss term shifts the two branch
    energies by +-i*Gamma/2).

    Raises
    ------
    ExceptionalPointError
        where |e_1 - e_0| < GAP_RTOL * max|e|.
    NonConvergenceError
        from :meth:`Eigensystem.validate`, which every result passes.
    """
    if np.shape(h)[-2:] != (2, 2):
        raise ValueError("two-band routines expect (..., 2, 2) input")
    d, c = pauli_decompose(h)
    s = pseudospin_root(d, c)
    shape = s.shape
    # each stage writes flat (band, component, N) planes (numpy keeps their layout),
    # 1-D even for one matrix (numpy's scalar complex product rounds unlike its array
    # loops), once the previous stage's temporaries are freed; the fields view them
    energies, right = _branch_vectors(d.reshape(-1, 3), c.reshape(-1), s.reshape(-1))
    del d, c, s
    overlap_right = _gram(right)
    left = _dual_two_band(right, overlap_right)
    eig = Eigensystem(*(x.reshape(shape + x.shape[1:]) for x in (
        energies, right, left, overlap_right, _gram(left))))
    return eig.validate(h)


def _branch_vectors(d, c, s):
    """Energies (N, 2) and unit right vectors (N, 2, 2), plane stacks, of the
    branches c +- s from flat (d, c, s), phased by :func:`_fix_phase`."""
    dx, dy, dz = d[:, 0], d[:, 1], d[:, 2]
    off, off_c = dx - 1j * dy, dx + 1j * dy
    n_off, n_off_c = np.abs(off) ** 2, np.abs(off_c) ** 2
    energies = np.empty((2, len(s)), dtype=complex).T
    np.add(c, s, out=energies[:, 0])
    np.subtract(c, s, out=energies[:, 1])
    right = _to_back(np.empty((2, 2, len(s)), dtype=complex))
    for band, sign in enumerate((1.0, -1.0)):
        ss = sign * s
        va1, vb0 = ss - dz, dz + ss
        na = n_off + np.abs(va1) ** 2
        nb = np.abs(vb0) ** 2 + n_off_c
        pick = na >= nb
        norm = np.sqrt(np.where(pick, na, nb))
        np.divide(np.where(pick, off, vb0), norm, out=right[:, band, 0])
        np.divide(np.where(pick, va1, off_c), norm, out=right[:, band, 1])
    return energies, _fix_phase(right)


def eigensystem_general(h):
    """Dense biorthogonal eigensystem of a single N x N matrix.

    Right vectors come from the LAPACK nonsymmetric solver, left vectors
    from the adjoint eigenproblem paired by eigenvalue and rescaled to
    <L_n|R_n> = 1 (never by inverting the eigenvector matrix).  The
    result is validated against ``h`` (:meth:`Eigensystem.validate`).
    A failure at a normalized overlap o = |<L_n|R_n>|/(||L_n|| ||R_n||) below
    eps/BIORTHO_TOL (its first-order error eps/o exceeds BIORTHO_TOL) is an
    ExceptionalPointError: rounding splits a Jordan pair at o ~ sqrt(eps).
    """
    h = np.asarray(h, dtype=complex)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError("eigensystem_general expects one square matrix")
    n = h.shape[0]
    try:
        w, v = np.linalg.eig(h)
        wl, u = np.linalg.eig(h.conj().T)
    except np.linalg.LinAlgError as exc:
        raise NonConvergenceError(f"dense eigensolver failed: {exc}") from exc

    scale = max(float(np.max(np.abs(w))), 1e-300)
    diff = np.abs(w[:, None] - w[None, :]) + np.diag(np.full(n, np.inf))
    if diff.min() < GAP_RTOL * scale:
        raise ExceptionalPointError(
            f"eigenvalue gap {diff.min():.2e} below {GAP_RTOL:.1e}*{scale:.2e}")

    # pair adjoint eigenvalues: conj(wl_j) ~ w_i, bijectively
    cost = np.abs(np.conj(wl)[None, :] - w[:, None])
    order = np.full(n, -1)
    taken = np.zeros(n, dtype=bool)
    for i in np.argsort(cost.min(axis=1)):
        row = np.where(taken, np.inf, cost[i])
        j = int(np.argmin(row))
        order[i] = j
        taken[j] = True
        if row[j] > PAIRING_RTOL * scale:
            raise NonConvergenceError("left/right eigenvalue pairing failed")

    idx = np.lexsort((np.real(w), -np.imag(w)))
    energies = w[idx]
    right = v.T[idx]
    right = right / np.linalg.norm(right, axis=-1, keepdims=True)
    right = _fix_phase(right)
    left = u.T[order][idx]
    s = np.sum(np.conj(left) * right, axis=-1)  # unit vectors: |s_n| = o_n
    if np.any(np.abs(s) < DEFECTIVE_OVERLAP_TOL):
        raise ExceptionalPointError("left/right pairing degenerate (defective?)")
    left = left / np.conj(s)[:, None]

    try:
        return Eigensystem(energies, right, left, _gram(right), _gram(left)).validate(h)
    except NonConvergenceError as exc:
        overlap = float(np.min(np.abs(s)))
        if not overlap < np.finfo(float).eps / BIORTHO_TOL:
            raise
        raise ExceptionalPointError(f"smallest normalized left/right overlap {overlap:.2e} "
                                    f"below eps/BIORTHO_TOL (a split Jordan pair): {exc}") from exc


def gauge_rescale(eig: Eigensystem, c):
    """Rescale |R_n> -> c_n |R_n>, |L_n> -> |L_n>/conj(c_n).

    Biorthonormality is preserved for any nonzero complex c (shape
    broadcastable to the band axis); used by gauge-invariance checks.  The
    Gram matrices are transformed, not recomputed:
    I^R_nm -> conj(c_n) c_m I^R_nm, I^L_nm -> I^L_nm / (c_n conj(c_m)).
    """
    c = np.asarray(c, dtype=complex)
    if np.any(np.abs(c) == 0.0):
        raise ValueError("gauge factors must be nonzero")
    right = eig.right * c[..., None]
    left = eig.left / np.conj(c)[..., None]
    cc = np.conj(c)[..., :, None] * c[..., None, :]  # conj(c_n) c_m
    return Eigensystem(eig.energies.copy(), right, left, eig.overlap_right * cc,
                       eig.overlap_left / np.conj(cc))
