"""Quadratic-jump synthesis of NH Hamiltonians and Keldysh response bubbles.

A jump operator J = a . c contributes the rank-one Hermitian matrix
M(a)_ij = conj(a_i) a_j to the decay, and the effective single-particle
Hamiltonian is h - (i/2) sum_m M(a_m).  ``decompose_antihermitian`` builds
at most three such jumps (one per Pauli axis) realizing a target
anti-Hermitian part -i D up to an identity shift that keeps every decay
rate nonnegative.

Frequency integrals of retarded/advanced/Keldysh products are evaluated
by closing the contour (residue sums); the polarization bubble is the
Lehmann kernel of :mod:`nhgeo.response` in the Keldysh convention.  The
adaptive-quadrature oracles live in :mod:`nhgeo.oracles`.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteError, NonHermitianTargetError, NonIntegrableError
from .models import pauli_decompose
from .response import lehmann_correlator
from .tolerances import HERM_TOL, UNDAMPED_RTOL


def m_matrix_from_vector(a):
    """M_ij = conj(a_i) a_j for a jump J = a . c; Hermitian, PSD, rank <= 1."""
    a = np.asarray(a, dtype=complex)
    return np.conj(a)[:, None] * a[None, :]


@dataclass
class JumpSpec:
    """Jump vectors plus the identity shift their sum adds beyond the target.

    The reconstruction identity is
    -(i/2) sum_m M(a_m) = -i D_target + identity_shift * 1,
    with identity_shift = -(i/2)(sum of axis weights - trace part); it is
    what keeps the total decay nonnegative.
    """

    jumps: list
    identity_shift: complex

    def m_total(self):
        n = self.jumps[0].shape[0] if self.jumps else 2
        total = np.zeros((n, n), dtype=complex)
        for a in self.jumps:
            total += m_matrix_from_vector(a)
        return total

    def target(self):
        """Hermitian D with -(i/2) sum M = -i D + identity_shift."""
        return 0.5 * self.m_total() - 1j * self.identity_shift * np.eye(
            self.jumps[0].shape[0] if self.jumps else 2)


def decompose_antihermitian(d):
    """Jump vectors realizing the anti-Hermitian part -i d of a Hamiltonian.

    ``d`` must be Hermitian 2x2.  Per Pauli axis with weight ``a`` the jump is

    * x: (sqrt|a|, sgn(a) sqrt|a|)
    * y: (sqrt|a|, -i sgn(a) sqrt|a|)
    * z: (sqrt(2a), 0) for a > 0, (0, sqrt(2|a|)) for a < 0

    applied to the doubled matrix 2 d (so that -(i/2) sum J^dag J matches
    -i d up to the identity shift).
    """
    d = np.asarray(d, dtype=complex)
    if d.shape != (2, 2):
        raise NonHermitianTargetError("decomposition implemented for 2x2 targets")
    if np.max(np.abs(d - d.conj().T)) > HERM_TOL * max(1.0, float(np.max(np.abs(d)))):
        raise NonHermitianTargetError("target matrix is not Hermitian")
    vec, c = pauli_decompose(2.0 * d)
    vec = np.real(vec)
    c = complex(c)
    jumps = []
    shift_weight = 0.0
    a = vec[0]
    if abs(a) > 0:
        r = np.sqrt(abs(a))
        jumps.append(np.array([r, np.sign(a) * r], dtype=complex))
        shift_weight += abs(a)
    a = vec[1]
    if abs(a) > 0:
        r = np.sqrt(abs(a))
        jumps.append(np.array([r, -1j * np.sign(a) * r], dtype=complex))
        shift_weight += abs(a)
    a = vec[2]
    if abs(a) > 0:
        if a > 0:
            jumps.append(np.array([np.sqrt(2.0 * a), 0.0], dtype=complex))
        else:
            jumps.append(np.array([0.0, np.sqrt(2.0 * abs(a))], dtype=complex))
        shift_weight += abs(a)
    # -(i/2) sum M = -i d + (i/2)(c - shift_weight) * 1
    return JumpSpec(jumps=jumps, identity_shift=0.5j * (c - shift_weight))


def effective_hamiltonian(h, spec: JumpSpec):
    """h - (i/2) sum_m J_m^dag J_m (the identity shift included implicitly)."""
    h = np.asarray(h, dtype=complex)
    if not spec.jumps:
        return h.copy()
    return h - 0.5j * spec.m_total()


@dataclass
class KeldyshSet:
    """Keldysh and retarded self-energies with their proportionality class.

    ``sigma_r`` is the Hermitian decay matrix D (the target Hamiltonian is
    h - i D); for pure-loss vector jumps sigma_k = -2i sigma_r exactly
    (class "minus_two_i"); the inverted-bath variant flips the sign
    ("plus_two_i").  :func:`keldysh_sigma` builds both classes exactly.
    """

    sigma_k: np.ndarray
    sigma_r: np.ndarray
    proportionality: str = "minus_two_i"


def keldysh_sigma(spec: JumpSpec, inverted=False):
    """KeldyshSet of a jump specification.

    The Keldysh self-energy is -2i times the Hermitian target D (the
    identity regularizer, immaterial for the dynamics, is excluded);
    ``inverted=True`` models a population-inverted bath where the
    proportionality flips sign.
    """
    d = spec.target()
    sign = 1.0 if not inverted else -1.0
    return KeldyshSet(sigma_k=-2j * sign * d, sigma_r=d,
                      proportionality="minus_two_i" if not inverted else "plus_two_i")


def bubble_h(eps_n, eps_m, omega, side="A", sigma_k_m=None):
    """Contour value of int domega' G^{A|R}_n(omega' + omega) G^K_m(omega').

    ``sigma_k_m`` defaults to the vacuum Keldysh weight 2i Im(eps_m).  The
    G^K_m poles eps_m and conj(eps_m) lie in opposite half-planes, so closing
    the contour away from the G_n pole g leaves one residue: exact for any
    pole configuration (gain levels included), and never pinched since
    |g - q| >= |Im g - Im q| > 0.  An undamped level n takes the i0
    prescription: its G^A pole counts as upper, its G^R pole as lower.
    Computes on Python numbers and returns a Python complex.  Raises
    NonFiniteError for a NaN or infinite input or result, and
    NonIntegrableError when level m has no decay (G^K not integrable).
    """
    eps_n, eps_m, omega = complex(eps_n), complex(eps_m), float(omega)
    sigma = 2j * eps_m.imag if sigma_k_m is None else complex(sigma_k_m)
    if not (cmath.isfinite(eps_n) and cmath.isfinite(eps_m) and math.isfinite(omega)
            and cmath.isfinite(sigma)):
        raise NonFiniteError(f"bubble input not finite: {eps_n, eps_m, omega, sigma}")
    im_m = eps_m.imag
    if abs(im_m) < UNDAMPED_RTOL * max(1.0, abs(eps_m)):
        raise NonIntegrableError("level m must decay or grow: Im eps_m = 0")
    if side not in ("A", "R"):
        raise ValueError("side must be 'A' or 'R'")
    g_pole = (eps_n.conjugate() if side == "A" else eps_n) - omega  # pole of G_n(w' + omega)
    g_upper = g_pole.imag > 0.0 or (g_pole.imag == 0.0 and side == "A")
    # the G^K_m pole across the real axis from g; its residue, times the
    # partial-fraction weight sigma / (2i Im eps_m), is -pi sigma / |Im eps_m|
    q = eps_m if g_upper == (im_m < 0.0) else eps_m.conjugate()
    val = -math.pi * (sigma / abs(im_m)) / (g_pole - q)
    if not cmath.isfinite(val):
        raise NonFiniteError(f"bubble overflows: {eps_n, eps_m, omega, sigma}")
    return val


def bubble_positivity(eps_n, eps_m, omega, side="A", sigma_k_m=None):
    """Signed real part (a Python float) of :func:`bubble_h`, whose
    nonnegativity encodes an uninverted bath (side A counts +Re, side R
    counts -Re); same i0 prescription and errors."""
    val = bubble_h(eps_n, eps_m, omega, side=side, sigma_k_m=sigma_k_m).real
    return val if side == "A" else -val


def bubble_matrix(energies, ops, omega, sign=+1):
    """Operator-indexed polarization bubble pi_ij(omega) for simultaneously
    diagonal self-energies.

    pi_ij(omega) = -sign/2 * sum_nm O^i_nm O^j_mn / (E_nm - omega + i S''_nm)
    with E_nm = E_n - E_m and S''_nm = S''_n + S''_m: the Lehmann kernel at
    uniform occupation 1/N, scaled by sign N/2, with the operator indices
    swapped.  ``omega`` may be an array (leading output axes).

    sign=+1 is the branch whose absorptive part (pi - pi^dagger)/2i is the
    Lorentzian sum (pi/2) sum_nm L_nm(omega) O^i_nm O^j_mn, positive
    semidefinite at every omega when all levels decay.  sign=-1 is the
    vector-jump response (1/2) sum_nm O^i_nm O^j_mn / (eps_n^* - eps_m - omega),
    valid whenever Sigma^K = -2i Sigma^R (single-vector jumps).  The
    combination pi(omega) + pi(-omega)^* is reactive: its anti-Hermitian
    part cancels between the two terms.

    Raises PoleOnAxisError for an undamped transition on resonance.
    """
    energies = np.asarray(energies, dtype=complex)
    n = energies.shape[-1]
    k = lehmann_correlator(energies, np.stack(ops), np.full(n, 1.0 / n), omega)
    return sign * (n / 2.0) * np.swapaxes(k, -1, -2)
