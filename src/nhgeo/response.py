"""Lehmann correlators, wave-packet conductivity and optical weights.

The frequency-resolved pieces (Lorentzian kernels, correlators, absorptive
parts) work for any set of dressed levels.  The conductivity/weight pieces
are two-band: the interband coefficients f and h are assembled from the
gauge-invariant resolvent identities plus a phase-locked finite-difference
stencil for the one genuinely derivative-valued term, and the frequency
integral of Re sigma/omega is carried out in closed form with the infrared
cutoff eta kept explicit (its coefficient is returned separately).

Band labels: weight routines accept ``band="slowest"`` to select, at each
k separately, the smooth branch band that decays slowest
(:func:`nhgeo.spectra.decays_slower`).  That pointwise
selection keeps arg(e_other - e_band) in [-pi, 0] as the closed forms
require, while each branch field stays differentiable in k.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import integrate

from .errors import BranchViolationError, PoleOnAxisError
from .models import BlochModel, bz_mesh
from .spectra import braket, decays_slower, eigensystem_two_band
from .geometry import locked_stencil, qgt_rr, velocity_matrices

FD_STEP = 1e-5


# -- Lorentzians and Lehmann correlators --------------------------------------

def lorentzian_kernel(e_nm, sigma_p, sigma_pp, omega):
    """Kernel Sigma''/(pi [(omega + E + Sigma')^2 + Sigma''^2]).

    Nonnegative iff Sigma'' >= 0; unit area in omega for Sigma'' > 0.
    """
    d = np.asarray(omega, dtype=float) + e_nm + sigma_p
    return sigma_pp / (np.pi * (d * d + sigma_pp**2))


@dataclass
class TransitionTable:
    """Energy/decay differences and operator elements between dressed levels.

    ``energies`` are the complex level energies e_n = E_n - i*Sigma''_n;
    ``operators`` is a sequence of operator matrices in the level basis.
    E_nm = E_n - E_m is antisymmetric, Sigma''_nm = Sigma''_n + Sigma''_m
    symmetric (and nonnegative when every level decays).
    """

    energies: np.ndarray
    operators: tuple

    def __post_init__(self):
        self.energies = np.asarray(self.energies, dtype=complex)
        self.operators = tuple(np.asarray(o, dtype=complex) for o in self.operators)
        n = self.energies.shape[0]
        for o in self.operators:
            if o.shape != (n, n):
                raise ValueError("operator matrices must match the level count")

    @property
    def e_diff(self):
        e = np.real(self.energies)
        return e[:, None] - e[None, :]

    @property
    def sigma_pp(self):
        s = -np.imag(self.energies)
        return s[:, None] + s[None, :]

    @property
    def sigma_p(self):
        return np.zeros_like(self.e_diff)


def lehmann_correlator(table: TransitionTable, rho, omega, volume=1.0):
    """Correlator matrix Pi_ij(omega) from the dressed-level resolvent sum.

    rho holds nonnegative diagonal occupation weights (trace one).  The
    resolvent of the (n, m) transition is 1/(omega + E_nm + Sigma_nm) with
    Sigma_nm = Sigma_n - Sigma_m^*; the overall sign is fixed so that the
    absorptive part assembled from this correlator is positive semidefinite
    for decaying levels (the load-bearing positivity condition).

    Raises PoleOnAxisError for an undamped transition hit exactly on
    resonance instead of silently regularizing.
    """
    rho = np.asarray(rho, dtype=float)
    if np.any(rho < 0) or abs(rho.sum() - 1.0) > 1e-12:
        raise ValueError("rho must be nonnegative diagonal weights with trace 1")
    omega = np.asarray(omega, dtype=float)
    e = table.e_diff
    sp = table.sigma_p
    spp = table.sigma_pp
    denom = omega[..., None, None] + e + sp - 1j * spp
    on_axis = (spp == 0.0) & (np.abs(np.real(denom)) < 1e-12)
    if np.any(on_axis):
        raise PoleOnAxisError(
            "undamped transition on resonance; an explicit i0+ prescription is required")
    nops = len(table.operators)
    out_shape = omega.shape + (nops, nops)
    out = np.empty(out_shape, dtype=complex)
    for i, o_i in enumerate(table.operators):
        for j, o_j in enumerate(table.operators):
            num = rho[:, None] * o_i * o_j.T  # rho_n O^i_nm O^j_mn
            out[..., i, j] = np.sum(num / denom, axis=(-2, -1)) / volume
    return out


def absorptive_part(pi):
    """Absorptive combination (Pi - Pi^dagger) / 2i; Hermitian by construction."""
    pi = np.asarray(pi, dtype=complex)
    out = (pi - np.conj(np.swapaxes(pi, -1, -2))) / 2j
    return out


@dataclass
class ResponseSpectrum:
    """Frequency-sampled correlator matrices with their absorptive parts.

    ``pi_abs`` always equals (pi - pi^dagger)/2i elementwise.
    """

    omegas: np.ndarray
    pi: np.ndarray       # (n_omega, n_ops, n_ops) complex
    pi_abs: np.ndarray

    def __post_init__(self):
        expected = absorptive_part(self.pi)
        if np.max(np.abs(expected - self.pi_abs)) != 0.0:
            raise ValueError("pi_abs must equal (pi - pi^dagger)/2i exactly")


def response_spectrum(table: TransitionTable, rho, omegas, volume=1.0):
    """Sampled correlator of a transition table over a frequency grid."""
    omegas = np.asarray(omegas, dtype=float)
    pi = lehmann_correlator(table, rho, omegas, volume=volume)
    return ResponseSpectrum(omegas=omegas, pi=pi, pi_abs=absorptive_part(pi))


# -- interband coefficients of the wave-packet conductivity -------------------

def interband_fh(model: BlochModel, kx, ky, h=FD_STEP, gauge=None):
    """Coefficients f_{mu nu} and h_{mu nu} of the interband response, batched.

    Two-band only.  All inner products are evaluated from the resolvent
    identities; the derivative of the mixed element <L_m|d_nu psiR_n> and
    the band-diagonal connections come from one phase-locked central
    stencil of step ``h`` that serves both bands.  Both outputs are gauge
    invariant; ``gauge`` injects a test rescaling that the phase lock must
    cancel.

    Returns (f, h_coef) of shape (..., 2, 2, 2) in (band n, mu, nu); the
    other band m = 1 - n is the transition partner.
    """
    if model.dimension != 2:
        raise ValueError("interband coefficients implemented for two bands")
    center, shifted = locked_stencil(model, kx, ky, h, gauge=gauge)

    def velocities(eig, akx, aky):
        return velocity_matrices(eig, model.derivative(akx, aky, 0),
                                 model.derivative(akx, aky, 1))

    def mixed(eig, v, n):
        """g_nu = <L_m|d_nu psiR_n> = V_nu[m, n] / (e_n - e_m), closed form."""
        de = eig.energies[..., n] - eig.energies[..., 1 - n]
        return v[..., 1 - n, n] / de[..., None]

    v = velocities(center, np.asarray(kx, dtype=float), np.asarray(ky, dtype=float))
    vel = v[..., (0, 1), (0, 1)]  # band velocities, (..., mu, band)
    stencil = {key: (eig, velocities(eig, *k)) for key, (k, eig) in shifted.items()}
    d_right = [(shifted[(ax, 1.0)][1].right - shifted[(ax, -1.0)][1].right) / (2.0 * h)
               for ax in (0, 1)]

    f = np.empty(center.energies.shape[:-1] + (2, 2, 2), dtype=complex)
    h_coef = np.empty_like(f)
    for n in (0, 1):
        m = 1 - n
        g = mixed(center, v, n)
        r_n = center.right[..., n, :]
        r_m = center.right[..., m, :]
        i_nn = center.overlap_right[..., n, n]
        i_nm = center.overlap_right[..., n, m]
        for mu in (0, 1):
            dr_n = d_right[mu][..., n, :]
            dr_m = d_right[mu][..., m, :]
            bracket = np.conj(braket(r_m, dr_n)) - braket(r_n, dr_m)
            a_rr = 1j * braket(r_n, dr_n) / i_nn
            g_plus = mixed(*stencil[(mu, 1.0)], n)
            g_minus = mixed(*stencil[(mu, -1.0)], n)
            for nu in (0, 1):
                dg = (g_plus[..., nu] - g_minus[..., nu]) / (2.0 * h)
                f[..., n, mu, nu] = (g[..., nu] * bracket
                                     - i_nm * (2j * np.real(a_rr) * g[..., nu] + dg)
                                     ) / (2.0 * i_nn)
                h_coef[..., n, mu, nu] = (i_nm / (2.0 * i_nn)) * g[..., nu] \
                    * (vel[..., mu, n] - vel[..., mu, m])
    return f, h_coef


def drude_coefficient(model: BlochModel, kx, ky, band=0, h=1e-4):
    """Second momentum derivative of the complex band energy (Drude weight).

    Computed but always excluded from the regular conductivity and the
    optical weight.
    """
    kx = np.asarray(kx, dtype=float)
    ky = np.asarray(ky, dtype=float)

    def e(akx, aky):
        eig = eigensystem_two_band(model.hamiltonian(akx, aky), ordering="branch")
        return eig.energies[..., band]

    out = np.empty(kx.shape + (2, 2), dtype=complex) if kx.shape else np.empty((2, 2), dtype=complex)
    e0 = e(kx, ky)
    out[..., 0, 0] = (e(kx + h, ky) - 2 * e0 + e(kx - h, ky)) / h**2
    out[..., 1, 1] = (e(kx, ky + h) - 2 * e0 + e(kx, ky - h)) / h**2
    cross = (e(kx + h, ky + h) - e(kx + h, ky - h)
             - e(kx - h, ky + h) + e(kx - h, ky - h)) / (4 * h**2)
    out[..., 0, 1] = cross
    out[..., 1, 0] = cross
    return out


def _band_coefficients(model, kx, ky, band, h):
    """(f, h_coef, z, center) of one branch band; z = e_other - e_band."""
    f, hc = interband_fh(model, kx, ky, h=h)
    eig = eigensystem_two_band(model.hamiltonian(np.asarray(kx, dtype=float),
                                                 np.asarray(ky, dtype=float)),
                               ordering="branch")
    z = eig.energies[..., 1 - band] - eig.energies[..., band]
    return f[..., band, :, :], hc[..., band, :, :], z, eig


def _sigma_regular_from_fh(f, h_coef, z, omega):
    """Regular conductivity matrix at one k from stored coefficients."""
    om = np.asarray(omega, dtype=float)[..., None, None]
    t_f = -1j * z * f / (z - om) + np.conj(-1j * z * f / (z + om))
    t_h = 1j * om * (h_coef / (z - om) ** 2 + np.conj(h_coef / (z + om) ** 2))
    return t_f + t_h


def conductivity_wavepacket(model: BlochModel, kx, ky, band=0, omega=0.0,
                            h=FD_STEP):
    """Regular part of the wave-packet conductivity sigma^reg_{mu nu}(omega, k).

    The Drude piece (principal value 1/omega times d2e) is excluded; use
    :func:`drude_coefficient` for it.  Scalar k only.
    """
    f, hc, z, _ = _band_coefficients(model, kx, ky, band, h)
    return _sigma_regular_from_fh(f, hc, z, omega)


def lower_branch_arg(z, tol=1e-9):
    """arg(z) on the branch [-pi, 0]: real-negative z maps to -pi.

    Raises BranchViolationError when Im z > tol * |z| (the closed weight
    form presumes transitions out of the slowest-decaying band).
    """
    z = np.asarray(z, dtype=complex)
    if np.any(np.imag(z) > tol * np.maximum(np.abs(z), 1e-300)):
        raise BranchViolationError("energy difference in the upper half-plane")
    ang = np.angle(z)
    ang = np.where((np.imag(z) >= 0) & (np.real(z) < 0), -np.pi, np.minimum(ang, 0.0))
    return ang


def _weight_terms(f, h_coef, z):
    """(eta-independent weight part at eta = 1, ln-eta coefficient), per (mu, nu).

    W_{mu nu}(eta) = base + coeff * ln(eta) with
    base = 2 Im(h/z) + pi Re f + 2 Im(f ln_L z), coeff = -2 Im f,
    ln_L the [-pi, 0]-branch logarithm.
    """
    zc = z[..., None, None]
    ln_l = np.log(np.abs(zc)) + 1j * lower_branch_arg(zc)
    base = (2.0 * np.imag(h_coef / zc)
            + np.pi * np.real(f)
            + 2.0 * np.imag(f * ln_l))
    coeff = -2.0 * np.imag(f)
    return base, coeff


def _resolve_band(model, kx, ky, band):
    """Resolve band="slowest" to the branch index at one scalar k."""
    if band in (0, 1):
        return band
    if band != "slowest":
        raise ValueError("band must be 0, 1 or 'slowest'")
    eig = eigensystem_two_band(model.hamiltonian(float(kx), float(ky)),
                               ordering="branch")
    return 0 if bool(decays_slower(eig.energies[0], eig.energies[1])) else 1


def optical_weight_numeric(model: BlochModel, kx, ky, band="slowest", eta=1e-3,
                           h=FD_STEP):
    """Per-k weight trace sum_mu W^{mu mu} and its ln(eta) coefficient.

    Closed omega-integrated form of int_eta^inf Re sigma^reg(omega)/omega;
    the logarithmic cutoff dependence is extracted analytically as
    -2 sum_mu Im f_{mu mu}.  Scalar k when band="slowest".
    """
    if eta <= 0:
        raise ValueError("eta must be positive")
    band = _resolve_band(model, kx, ky, band)
    f, hc, z, _ = _band_coefficients(model, kx, ky, band, h)
    base, coeff = _weight_terms(f, hc, z)
    tr_base = base[..., 0, 0] + base[..., 1, 1]
    tr_coeff = coeff[..., 0, 0] + coeff[..., 1, 1]
    return tr_base + tr_coeff * np.log(eta), tr_coeff


def optical_weight_quadrature(model: BlochModel, kx, ky, band="slowest", eta=1e-3,
                              omega_max=None, h=FD_STEP):
    """Adaptive quadrature of int_eta^inf Re tr sigma^reg(omega)/omega domega.

    Scalar k.  Oracle for :func:`optical_weight_numeric`; Gauss-Kronrod
    panels up to ``omega_max`` (resonances passed as break points), then an
    open-ended tail.
    """
    band = _resolve_band(model, kx, ky, band)
    f, hc, z, eig = _band_coefficients(model, float(kx), float(ky), band, h)
    z = complex(z)
    if abs(np.imag(z)) < 1e-12 * abs(z):
        raise PoleOnAxisError("undamped transition: quadrature needs Im z != 0")
    if omega_max is None:
        omega_max = 50.0 * float(np.max(np.abs(eig.energies)))

    def integrand(w):
        s = _sigma_regular_from_fh(f, hc, z, w)
        return np.real(s[..., 0, 0] + s[..., 1, 1]) / w

    points = [p for p in (abs(np.real(z)), abs(z)) if eta < p < omega_max]
    val, _ = integrate.quad(integrand, eta, omega_max, points=points, limit=400)
    tail, _ = integrate.quad(integrand, omega_max, np.inf, limit=200)
    return val + tail


@dataclass
class OpticalWeightResult:
    """BZ-integrated optical weight trace with its cutoff diagnostics.

    ``closed_trace`` is the exact BZ reduction of the omega-integrated
    interband conductivity, int tr G^RR (pi + 2 arg(e_other - e_band)); it
    matches ``bz_trace`` up to a total divergence (machine-level once the
    slowest band is k-smooth).  ``bound_trace`` is the single-arg variant
    int tr G^RR (pi + arg), the quantity the topological lower bound
    constrains; its integrand is nonnegative pointwise.
    """

    per_k: np.ndarray            # weight-trace integrand on the mesh
    bz_trace: float              # sum_mu int_BZ d2k W^{mu mu}
    eta_used: float
    ln_eta_coefficient: float    # BZ integral of the per-k ln(eta) coefficient
    arg_infimum: float           # min_k arg(e_other - e_band) on the branch [-pi, 0]
    closed_trace: float          # int tr G^RR (pi + 2 arg) d2k
    bound_trace: float           # int tr G^RR (pi + arg) d2k
    trg_per_k: np.ndarray
    arg_per_k: np.ndarray


def optical_weight_bz(model: BlochModel, band="slowest", n_grid=48, eta=1e-3,
                      h=FD_STEP):
    """Optical weight trace integrated over the BZ, by both two-band routes.

    ``band="slowest"`` picks, pointwise, the smooth branch band with the
    larger Im(e); an integer selects that branch band everywhere (only
    valid while it decays slowest, else the branch cut is crossed).

    The numeric route integrates the per-k closed omega-form of the f/h
    coefficients; the reduced routes are the tr G^RR forms (see
    :class:`OpticalWeightResult`).  Numeric and ``closed_trace`` differ by
    a total divergence plus the ln(eta) residue, both of which die off
    with grid refinement while the selected band stays k-smooth.
    """
    kxg, kyg = bz_mesh(n_grid, n_grid)
    eig = eigensystem_two_band(model.hamiltonian(kxg, kyg), ordering="branch")
    dhx = model.derivative(kxg, kyg, 0)
    dhy = model.derivative(kxg, kyg, 1)
    area = (2.0 * np.pi / n_grid) ** 2

    f_all, hc_all = interband_fh(model, kxg, kyg, h=h)
    v = velocity_matrices(eig, dhx, dhy)
    per_band = {}
    for b in (0, 1):
        z = eig.energies[..., 1 - b] - eig.energies[..., b]
        q_rr = qgt_rr(eig, v, band=b)
        trg = np.real(q_rr[..., 0, 0] + q_rr[..., 1, 1])
        per_band[b] = (f_all[..., b, :, :], hc_all[..., b, :, :], z, trg)

    if band == "slowest":
        mask = decays_slower(eig.energies[..., 0], eig.energies[..., 1])
    elif band in (0, 1):
        mask = np.full(kxg.shape, band == 0)
    else:
        raise ValueError("band must be 'slowest', 0 or 1")

    def select(field0, field1):
        m = mask
        while m.ndim < np.ndim(field0):
            m = m[..., None]
        return np.where(m, field0, field1)

    f = select(per_band[0][0], per_band[1][0])
    hc = select(per_band[0][1], per_band[1][1])
    z = select(per_band[0][2], per_band[1][2])
    trg = select(per_band[0][3], per_band[1][3])

    base, coeff = _weight_terms(f, hc, z)
    w_tr = (base[..., 0, 0] + base[..., 1, 1]
            + (coeff[..., 0, 0] + coeff[..., 1, 1]) * np.log(eta))
    arg = lower_branch_arg(z)
    return OpticalWeightResult(
        per_k=w_tr,
        bz_trace=float(np.sum(w_tr) * area),
        eta_used=float(eta),
        ln_eta_coefficient=float(np.sum(coeff[..., 0, 0] + coeff[..., 1, 1]) * area),
        arg_infimum=float(np.min(arg)),
        closed_trace=float(np.sum(trg * (np.pi + 2.0 * arg)) * area),
        bound_trace=float(np.sum(trg * (np.pi + arg)) * area),
        trg_per_k=trg,
        arg_per_k=arg,
    )
