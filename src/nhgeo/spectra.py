"""Biorthogonal eigensystems of non-Hermitian matrices.

Vectors are stored band-first: ``right[..., n, :]`` are the components of
|R_n>, ``left[..., n, :]`` those of |L_n>, normalized so <L_n|R_m> =
delta_nm.  Right vectors are unit norm with the first non-vanishing
component real positive; every reported quantity downstream is gauge
invariant, so the convention only serves determinism.

Bands are sorted by descending Im(e) (band 0 decays slowest), ties broken
by ascending Re(e); :func:`decays_slower` is that rule for one pair.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (ExceptionalPointError, IllConditionedError,
                     NonConvergenceError)
from .models import pauli_decompose

#: relative eigenvalue gap below which a point counts as exceptional
GAP_RTOL = 1e-8

#: overlap condition number treated as near-exceptional
COND_LIMIT = 1e12

_BIORTHO_TOL = 1e-10
_RECON_TOL = 1e-9


def braket(a, b):
    """<a|b> over the last axis, batched."""
    return np.sum(np.conj(a) * b, axis=-1)


def mm(a, b):
    """a @ b over the trailing two axes, batched and broadcast like matmul.

    Each entry is the sum over the unrolled inner index of whole-stack
    products: for the small N here that beats matmul's per-matrix dispatch
    on long stacks, and the same path serves single matrices.
    """
    n, inner, m = a.shape[-2], a.shape[-1], b.shape[-1]
    out = np.empty(np.broadcast_shapes(a.shape[:-2], b.shape[:-2]) + (n, m),
                   dtype=np.result_type(a, b))
    for i in range(n):
        for j in range(m):
            acc = a[..., i, 0] * b[..., 0, j]
            for k in range(1, inner):
                acc += a[..., i, k] * b[..., k, j]
            out[..., i, j] = acc
    return out


def matrix_elements(left, op, right):
    """M[n, m] = <L_n|op|R_m>, batched over leading axes."""
    return np.einsum("...ni,...ij,...mj->...nm", np.conj(left), op, right)


def decays_slower(e_a, e_b):
    """True where level a sorts before level b: larger Im(e), ties by smaller Re(e).

    The slowest-band rule of ``ordering="im"`` and of the response routines.
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
        return np.real(np.einsum("...ni,...ni->...n", np.conj(self.right), self.right))

    def norms_left_sq(self):
        return np.real(np.einsum("...ni,...ni->...n", np.conj(self.left), self.left))

    def norm_product(self, band):
        """Gauge-invariant ||R_n||^2 ||L_n||^2 (>= 1, = 1 iff left = right)."""
        return self.norms_right_sq()[..., band] * self.norms_left_sq()[..., band]

    def validate(self, h=None, check_order=True):
        """Check the biorthogonality, completeness and reconstruction identities.

        Every comparison fails on NaN, so a non-finite eigensystem raises
        NonConvergenceError.
        """
        eye = np.eye(self.nbands)
        left_h = np.conj(self.left)
        right_t = np.swapaxes(self.right, -1, -2)
        err = np.max(np.abs(mm(left_h, right_t) - eye))
        if not err <= _BIORTHO_TOL:
            raise NonConvergenceError(f"biorthonormality residual {err:.2e}")
        err = np.max(np.abs(mm(right_t, left_h) - eye))
        if not err <= _BIORTHO_TOL:
            raise NonConvergenceError(f"completeness residual {err:.2e}")
        err = np.max(np.abs(mm(self.overlap_left, self.overlap_right) - eye))
        if not err <= _RECON_TOL * max(1.0, float(np.max(np.abs(self.overlap_right)))):
            raise NonConvergenceError(f"overlap inverse residual {err:.2e}")
        if h is not None:
            recon = mm(right_t, self.energies[..., :, None] * left_h)
            scale = np.max(np.abs(h)) or 1.0
            err = np.max(np.abs(recon - h)) / scale
            if not err <= _RECON_TOL:
                raise NonConvergenceError(f"reconstruction residual {err:.2e}")
        if check_order:
            key = np.diff(np.imag(self.energies), axis=-1)
            if np.any(key > 1e-30 + 1e-15 * np.max(np.abs(self.energies))):
                raise NonConvergenceError("bands not sorted by descending Im(e)")
        return self


def _fix_phase(v):
    """Make the first non-vanishing component of each (unit) vector real positive."""
    n = v.shape[-1]
    comp = v[..., 0]
    for i in range(1, n):
        comp = np.where(np.abs(comp) > 1e-12, comp, v[..., i])
    mag = np.abs(comp)
    phase = np.where(mag > 0, comp / np.where(mag > 0, mag, 1.0), 1.0)
    return v * np.conj(phase)[..., None]


def _grams(right, left):
    i_right = np.einsum("...ni,...mi->...nm", np.conj(right), right)
    i_left = np.einsum("...ni,...mi->...nm", np.conj(left), left)
    return i_right, i_left


def _dual_two_band(right):
    """Dual (left) basis of two right vectors via the projection formulas."""
    r0, r1 = right[..., 0, :], right[..., 1, :]
    i00 = braket(r0, r0)
    i11 = braket(r1, r1)
    i01 = braket(r0, r1)
    l0 = (r0 - (np.conj(i01) / i11)[..., None] * r1) / \
        (i00 - np.abs(i01) ** 2 / i11)[..., None]
    l1 = (r1 - (i01 / i00)[..., None] * r0) / \
        (i11 - np.abs(i01) ** 2 / i00)[..., None]
    return np.stack([l0, l1], axis=-2)


def pseudospin_split(h, gap_rtol=GAP_RTOL):
    """(d, c, s) of 2x2 matrices h = c + d.sigma, batched, with s = sqrt(d.d)
    on the principal branch: the branch energies are c + s and c - s.

    Raises
    ------
    ExceptionalPointError
        where |e_+ - e_-| < gap_rtol * max|e_+-|, with the batch indices of
        those points.
    """
    h = np.asarray(h, dtype=complex)
    if h.shape[-2:] != (2, 2):
        raise ValueError("two-band routines expect (..., 2, 2) input")
    d, c = pauli_decompose(h)
    s = np.sqrt(np.sum(d * d, axis=-1))
    e_plus, e_minus = c + s, c - s
    scale = np.maximum(np.abs(e_plus), np.abs(e_minus))
    bad = np.abs(e_plus - e_minus) < gap_rtol * np.maximum(scale, 1e-300)
    if np.any(bad):
        raise ExceptionalPointError(
            f"two-band gap below tolerance at {int(np.count_nonzero(bad))} point(s)",
            points=np.argwhere(bad))
    return d, c, s


def eigensystem_two_band(h, gap_rtol=GAP_RTOL, validate=True, ordering="im"):
    """Closed-form biorthogonal eigensystem of 2x2 matrices, batched.

    Eigenvectors come from the pseudospin decomposition h = d.sigma + c;
    left vectors from the dual-basis projection of the two right vectors.

    ``ordering`` selects the band labels:

    * ``"im"`` (default): descending Im(e) pointwise, ties by ascending
      Re(e).  Band 0 is the slowest-decaying band at each k separately;
      this labeling is not k-smooth when Im(e_0 - e_1) changes sign.
    * ``"branch"``: band 0 = c + sqrt(d.d), band 1 = c - sqrt(d.d) with
      the principal branch.  For models whose d.d avoids the negative
      real half-line this is the k-smooth labeling required by topology
      scans; band 0 is the zero-dissipation limit of the slowest-decaying
      band of the Rice-Mele family (whose uniform-loss term shifts the
      two branch energies by +-i*Gamma/2).

    Raises
    ------
    ExceptionalPointError
        where |e_1 - e_0| < gap_rtol * max|e|.
    """
    d, c, s = pseudospin_split(h, gap_rtol)
    e_plus, e_minus = c + s, c - s
    dx, dy, dz = d[..., 0], d[..., 1], d[..., 2]
    off = dx - 1j * dy

    def eigvec(sign):
        va = np.stack([off, sign * s - dz], axis=-1)
        vb = np.stack([dz + sign * s, dx + 1j * dy], axis=-1)
        na = np.sum(np.abs(va) ** 2, axis=-1)
        nb = np.sum(np.abs(vb) ** 2, axis=-1)
        v = np.where((na >= nb)[..., None], va, vb)
        return v / np.sqrt(np.sum(np.abs(v) ** 2, axis=-1))[..., None]

    v_plus, v_minus = eigvec(1.0), eigvec(-1.0)

    if ordering == "im":
        plus_first = decays_slower(e_plus, e_minus)
    elif ordering == "branch":
        plus_first = np.ones(np.shape(e_plus), dtype=bool)
    else:
        raise ValueError("ordering must be 'im' or 'branch'")
    energies = np.where(plus_first, e_plus, e_minus)
    energies = np.stack([energies, np.where(plus_first, e_minus, e_plus)], axis=-1)
    sel = plus_first[..., None]
    right = np.stack([np.where(sel, v_plus, v_minus),
                      np.where(sel, v_minus, v_plus)], axis=-2)
    right = _fix_phase(right)
    left = _dual_two_band(right)
    i_right, i_left = _grams(right, left)
    eig = Eigensystem(energies, right, left, i_right, i_left)
    if validate:
        eig.validate(h, check_order=(ordering == "im"))
    return eig


def eigensystem_general(h, gap_rtol=GAP_RTOL, validate=True):
    """Dense biorthogonal eigensystem of a single N x N matrix.

    Right vectors come from the LAPACK nonsymmetric solver, left vectors
    from the adjoint eigenproblem paired by eigenvalue and rescaled to
    <L_n|R_n> = 1 (never by inverting the eigenvector matrix).
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
    if diff.min() < gap_rtol * scale:
        raise ExceptionalPointError(
            f"eigenvalue gap {diff.min():.2e} below {gap_rtol:.1e}*{scale:.2e}")

    # pair adjoint eigenvalues: conj(wl_j) ~ w_i, bijectively
    cost = np.abs(np.conj(wl)[None, :] - w[:, None])
    order = np.full(n, -1)
    taken = np.zeros(n, dtype=bool)
    for i in np.argsort(cost.min(axis=1)):
        row = np.where(taken, np.inf, cost[i])
        j = int(np.argmin(row))
        order[i] = j
        taken[j] = True
        if row[j] > 1e-6 * scale:
            raise NonConvergenceError("left/right eigenvalue pairing failed")

    idx = np.lexsort((np.real(w), -np.imag(w)))
    energies = w[idx]
    right = v.T[idx]
    right = right / np.linalg.norm(right, axis=-1, keepdims=True)
    right = _fix_phase(right)
    left = u.T[order][idx]
    s = np.sum(np.conj(left) * right, axis=-1)
    if np.any(np.abs(s) < 1e-12):
        raise ExceptionalPointError("left/right pairing degenerate (defective?)")
    left = left / np.conj(s)[:, None]

    i_right, i_left = _grams(right, left)
    eig = Eigensystem(energies, right, left, i_right, i_left)
    if validate:
        eig.validate(h)
    return eig


def eigensystem(h, gap_rtol=GAP_RTOL, validate=True):
    """Dispatch to the closed-form two-band or the dense general solver."""
    h = np.asarray(h, dtype=complex)
    if h.shape[-1] == 2:
        return eigensystem_two_band(h, gap_rtol=gap_rtol, validate=validate)
    if h.ndim == 2:
        return eigensystem_general(h, gap_rtol=gap_rtol, validate=validate)
    raise ValueError("batched input is only supported for two-band matrices")


def overlap_matrices(eig: Eigensystem):
    """(I, I^-1) with I_nm = <R_n|R_m>; the inverse is the left Gram matrix.

    The stored left Gram matrix is verified against direct inversion of I.
    """
    i_right = eig.overlap_right
    evals = np.linalg.eigvalsh(i_right)
    cond = np.max(evals, axis=-1) / np.maximum(np.min(evals, axis=-1), 1e-300)
    if np.any(cond > COND_LIMIT):
        raise IllConditionedError(
            f"overlap condition number up to {float(np.max(cond)):.2e} exceeds {COND_LIMIT:.0e}")
    direct = np.linalg.inv(i_right)
    err = np.max(np.abs(direct - eig.overlap_left))
    if err > _RECON_TOL * max(1.0, float(np.max(np.abs(direct)))):
        raise NonConvergenceError(
            f"left Gram matrix deviates from inv(I) by {err:.2e}")
    return i_right, eig.overlap_left


def gauge_rescale(eig: Eigensystem, c):
    """Rescale |R_n> -> c_n |R_n>, |L_n> -> |L_n>/conj(c_n).

    Biorthonormality is preserved for any nonzero complex c (shape
    broadcastable to the band axis); used by gauge-invariance checks.
    """
    c = np.asarray(c, dtype=complex)
    if np.any(np.abs(c) == 0.0):
        raise ValueError("gauge factors must be nonzero")
    right = eig.right * c[..., None]
    left = eig.left / np.conj(c)[..., None]
    i_right, i_left = _grams(right, left)
    return Eigensystem(eig.energies.copy(), right, left, i_right, i_left)
