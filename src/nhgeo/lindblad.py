"""Quadratic-jump synthesis of NH Hamiltonians and Keldysh response bubbles.

A jump operator J = a . c contributes the rank-one Hermitian matrix
M(a)_ij = conj(a_i) a_j to the decay, and the effective single-particle
Hamiltonian is h - (i/2) sum_m M(a_m).  ``decompose_antihermitian`` builds
at most three such jumps (one per Pauli axis) realizing a target
anti-Hermitian part -i D up to an identity shift that keeps every decay
rate nonnegative.

Frequency integrals of retarded/advanced/Keldysh products are evaluated
both by closing the contour (residue sums) and by adaptive quadrature.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import integrate

from .errors import (CommutatorViolationError, NonHermitianTargetError,
                     NonIntegrableError, ProportionalityError)
from .models import pauli_decompose

_HERM_TOL = 1e-10


def m_matrix(alpha, beta):
    """Rank-one decay matrix [[|a|^2, a* b], [a b*, |b|^2]] of one 2-mode jump."""
    return m_matrix_from_vector(np.array([alpha, beta], dtype=complex))


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
    if np.max(np.abs(d - d.conj().T)) > _HERM_TOL * max(1.0, float(np.max(np.abs(d)))):
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
    ("plus_two_i").
    """

    sigma_k: np.ndarray
    sigma_r: np.ndarray
    proportionality: str = "minus_two_i"

    def check(self):
        """Raise ProportionalityError unless sigma_k = -+2i sigma_r as declared."""
        factor = {"minus_two_i": -2j, "plus_two_i": 2j}.get(self.proportionality)
        if factor is None:
            raise ProportionalityError(
                f"unknown proportionality class {self.proportionality!r}")
        if not np.allclose(self.sigma_k, factor * self.sigma_r):
            raise ProportionalityError(
                f"sigma_k and sigma_r violate their class {self.proportionality}")
        return self


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


def lindbladian_matrix(h_eff, sigma_k):
    """Superoperator block matrix [[H, Sigma^K], [0, -H^T]] (stored, never exponentiated)."""
    h_eff = np.asarray(h_eff, dtype=complex)
    sigma_k = np.asarray(sigma_k, dtype=complex)
    n = h_eff.shape[0]
    out = np.zeros((2 * n, 2 * n), dtype=complex)
    out[:n, :n] = h_eff
    out[:n, n:] = sigma_k
    out[n:, n:] = -h_eff.T
    return out


def keldysh_green(h_eff, sigma_k, omega, mode="auto", comm_tol=1e-10):
    """G^K(omega) = G^R Sigma^K G^A with G^R = (omega - H)^-1.

    Every mode evaluates the product with a matrix inverse.
    ``mode="projected"`` additionally demands [H, Sigma^K] = 0
    (CommutatorViolationError otherwise), the condition under which the
    eigenbasis (projected) form holds; "full" and "auto" skip that check.
    G^K is anti-Hermitian whenever Sigma^K is.
    """
    h_eff = np.asarray(h_eff, dtype=complex)
    sigma_k = np.asarray(sigma_k, dtype=complex)
    comm = h_eff @ sigma_k - sigma_k @ h_eff
    scale = max(float(np.max(np.abs(h_eff)) * np.max(np.abs(sigma_k))), 1e-300)
    commuting = float(np.max(np.abs(comm))) <= comm_tol * scale
    if mode == "projected" and not commuting:
        raise CommutatorViolationError(
            f"[H, Sigma^K] relative norm {float(np.max(np.abs(comm)))/scale:.2e}")
    n = h_eff.shape[0]
    g_r = np.linalg.inv(omega * np.eye(n) - h_eff)
    return g_r @ sigma_k @ g_r.conj().T


def _gk_scalar(eps_m, sigma_k_m, w):
    return sigma_k_m / ((w - eps_m) * (w - np.conj(eps_m)))


def _pair_integral(p, q):
    """int dw / ((w - p)(w - q)) over the real line by residues.

    Zero when both poles share a half-plane; the opposite-half-plane case
    never pinches (|p - q| >= |Im p - Im q| > 0), so this is confluent-safe.
    """
    sp, sq = np.sign(np.imag(p)), np.sign(np.imag(q))
    if sp == sq:
        return 0.0 + 0.0j
    return 2j * np.pi * (1.0 if sp > 0 else -1.0) / (p - q)


def bubble_h(eps_n, eps_m, omega, side="A", sigma_k_m=None):
    """Contour value of int domega' G^{A|R}_n(omega' + omega) G^K_m(omega').

    ``sigma_k_m`` defaults to the vacuum Keldysh weight 2i Im(eps_m).
    Partial fractions split G^K_m into its two simple poles, so the result
    is exact for any pole configuration (gain levels included).

    Raises NonIntegrableError when level m has no decay (G^K not integrable).
    """
    eps_n, eps_m = complex(eps_n), complex(eps_m)
    if abs(np.imag(eps_m)) < 1e-14 * max(1.0, abs(eps_m)):
        raise NonIntegrableError("level m must decay or grow: Im eps_m = 0")
    if sigma_k_m is None:
        sigma_k_m = 2j * np.imag(eps_m)
    if side == "A":
        g_pole = np.conj(eps_n) - omega          # pole of G^{A}_n(w' + omega) in w'
    elif side == "R":
        g_pole = eps_n - omega
    else:
        raise ValueError("side must be 'A' or 'R'")
    coeff = sigma_k_m / (eps_m - np.conj(eps_m))
    return coeff * (_pair_integral(g_pole, eps_m)
                    - _pair_integral(g_pole, np.conj(eps_m)))


def bubble_h_quadrature(eps_n, eps_m, omega, side="A", sigma_k_m=None,
                        cut_factor=200.0):
    """Adaptive-quadrature oracle for :func:`bubble_h` (same conventions)."""
    eps_n, eps_m = complex(eps_n), complex(eps_m)
    if sigma_k_m is None:
        sigma_k_m = 2j * np.imag(eps_m)
    if side == "A":
        g_fun = lambda w: 1.0 / (w + omega - np.conj(eps_n))
    else:
        g_fun = lambda w: 1.0 / (w + omega - eps_n)

    def integrand(w):
        return g_fun(w) * _gk_scalar(eps_m, sigma_k_m, w)

    cut = cut_factor * max(abs(eps_n), abs(eps_m), abs(omega), 1.0)
    points = sorted({np.real(eps_m), np.real(eps_n) - omega, np.real(eps_n) + omega})
    points = [p for p in points if -cut < p < cut]
    re, _ = integrate.quad(lambda w: np.real(integrand(w)), -cut, cut,
                           points=points, limit=400)
    im, _ = integrate.quad(lambda w: np.imag(integrand(w)), -cut, cut,
                           points=points, limit=400)
    return re + 1j * im


def bubble_positivity(eps_n, eps_m, omega, side="A", sigma_k_m=None):
    """Signed real part of the bubble: the quantity whose nonnegativity
    encodes an uninverted bath (side A counts +Re, side R counts -Re)."""
    val = bubble_h(eps_n, eps_m, omega, side=side, sigma_k_m=sigma_k_m)
    return float(np.real(val)) if side == "A" else -float(np.real(val))


def polarization_bubble_commuting(energies, op_i, op_j, omega, sign=+1):
    """Closed-form polarization bubble for simultaneously diagonal self-energies.

    pi_ij(omega) = -sign/2 * sum_nm O^i_nm O^j_mn / (E_nm - omega + i S''_nm)
    with E_nm = E_n - E_m and S''_nm = S''_n + S''_m; sign=+1 is the branch
    whose absorptive part is positive semidefinite for decaying levels.
    """
    energies = np.asarray(energies, dtype=complex)
    e = np.real(energies)
    s = -np.imag(energies)
    denom = (e[:, None] - e[None, :]) - omega + 1j * (s[:, None] + s[None, :])
    num = np.asarray(op_i, dtype=complex) * np.asarray(op_j, dtype=complex).T
    return -0.5 * sign * np.sum(num / denom)


def polarization_bubble_quadrature(energies, op_i, op_j, omega, sign=+1,
                                   cut_factor=200.0):
    """Frequency-integral oracle for :func:`polarization_bubble_commuting`.

    Evaluates sign * int dw/2pi sum_nm O^i_nm G^R_m(w) O^j_mn
    G^R_n(w + omega) Im(eps_n) G^A_n(w + omega) over a symmetric window
    (the integrand decays cubically, so the truncation error is quartic).
    """
    energies = np.asarray(energies, dtype=complex)
    n = energies.shape[0]
    op_i = np.asarray(op_i, dtype=complex)
    op_j = np.asarray(op_j, dtype=complex)

    def integrand(w):
        total = 0.0 + 0.0j
        for a in range(n):
            g_r_shift = 1.0 / (w + omega - energies[a])
            g_a_shift = 1.0 / (w + omega - np.conj(energies[a]))
            weight = np.imag(energies[a]) * g_r_shift * g_a_shift
            for b in range(n):
                total += op_i[a, b] * op_j[b, a] * weight / (w - energies[b])
        return sign * total / (2.0 * np.pi)

    cut = cut_factor * max(float(np.max(np.abs(energies))), abs(omega), 1.0)
    points = sorted({float(x) for x in np.real(energies)}
                    | {float(x) - omega for x in np.real(energies)})
    points = [p for p in points if -cut < p < cut]
    re, _ = integrate.quad(lambda w: np.real(integrand(w)), -cut, cut,
                           points=points, limit=400)
    im, _ = integrate.quad(lambda w: np.imag(integrand(w)), -cut, cut,
                           points=points, limit=400)
    return re + 1j * im


def bubble_matrix(energies, ops, omega, sign=+1):
    """Operator-indexed bubble pi_ij(omega) over an operator list.

    Its absorptive part (pi - pi^dagger)/2i is the Lorentzian sum
    (pi/2) sum_nm L_nm(omega) O^i_nm O^j_mn, positive semidefinite at every
    omega when all levels decay.
    """
    nops = len(ops)
    out = np.empty((nops, nops), dtype=complex)
    for i in range(nops):
        for j in range(nops):
            out[i, j] = polarization_bubble_commuting(energies, ops[i], ops[j],
                                                      omega, sign=sign)
    return out


def full_response(energies, ops, omega, sign=+1):
    """Pi_ij(omega) = pi_ij(omega) + pi_ij(-omega)^* over an operator list.

    The symmetrized combination is reactive: its anti-Hermitian part
    cancels between the two terms by construction, so the dissipative
    bounds live in :func:`bubble_matrix`.
    """
    return bubble_matrix(energies, ops, omega, sign=sign) \
        + np.conj(bubble_matrix(energies, ops, -omega, sign=sign))


def response_vector_jump(energies, op_i, op_j, big_omega):
    """Vector-jump response (1/2) sum_nm O^i_nm O^j_mn / (eps_n^* - eps_m - Omega).

    Valid whenever the Keldysh self-energy is -2i times the retarded one
    (single-vector jumps); operator elements are taken in the biorthogonal
    eigenbasis.  Reduces to minus the sign=+1 commuting bubble when the
    self-energies are diagonal in the Hamiltonian basis.
    """
    energies = np.asarray(energies, dtype=complex)
    denom = np.conj(energies)[:, None] - energies[None, :] - big_omega
    num = np.asarray(op_i, dtype=complex) * np.asarray(op_j, dtype=complex).T
    return 0.5 * np.sum(num / denom)
