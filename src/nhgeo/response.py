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
from typing import NamedTuple

import numpy as np

from .errors import BranchViolationError, PoleOnAxisError
from .models import BlochModel, bz_mesh
from .spectra import Eigensystem, braket, decays_slower, eigensystem_two_band
from .geometry import locked_stencil, qgt_rr, velocity_matrices

FD_STEP = 1e-5


# -- Lorentzians and Lehmann correlators --------------------------------------

def lorentzian_kernel(e_nm, sigma_p, sigma_pp, omega):
    """Kernel Sigma''/(pi [(omega + E + Sigma')^2 + Sigma''^2]).

    Nonnegative iff Sigma'' >= 0; unit area in omega for Sigma'' > 0.
    """
    d = np.asarray(omega, dtype=float) + e_nm + sigma_p
    return sigma_pp / (np.pi * (d * d + sigma_pp**2))


def lehmann_correlator(energies, operators, rho, omega, volume=1.0):
    """Correlator matrices Pi_ij(omega) from the dressed-level resolvent sum.

    The package's only evaluation of the resolvent sum
    Pi_ij(omega) = sum_nm rho_n O^i_nm O^j_mn / (omega + E_nm - i S''_nm) / volume
    with E_nm = E_n - E_m and S''_nm = S''_n + S''_m, batched over leading
    axes: ``energies`` (..., N) holds the complex levels e_n = E_n - i S''_n,
    ``operators`` (..., n_ops, N, N) the operator matrices in the level
    basis and ``rho`` (..., N) nonnegative occupation weights of trace one.
    The sign makes the absorptive part positive semidefinite for decaying
    levels (the load-bearing positivity condition).  Returns shape
    (..., *omega.shape, n_ops, n_ops).

    Raises PoleOnAxisError for an undamped transition hit exactly on
    resonance instead of silently regularizing.
    """
    energies = np.asarray(energies, dtype=complex)
    operators = np.asarray(operators, dtype=complex)
    rho = np.asarray(rho, dtype=float)
    n = energies.shape[-1]
    if operators.ndim < 3 or operators.shape[-2:] != (n, n):
        raise ValueError("operator matrices must match the level count")
    if rho.shape[-1:] != (n,) or np.any(rho < 0) \
            or np.any(np.abs(rho.sum(axis=-1) - 1.0) > 1e-12):
        raise ValueError("rho must be nonnegative diagonal weights with trace 1")
    omega = np.asarray(omega, dtype=float)
    e = np.real(energies)
    s = -np.imag(energies)
    e_nm = (e[..., :, None] - e[..., None, :])[..., None, :, :]
    s_nm = (s[..., :, None] + s[..., None, :])[..., None, :, :]
    denom = omega.reshape(-1)[:, None, None] + e_nm - 1j * s_nm
    if np.any((s_nm == 0.0) & (np.abs(np.real(denom)) < 1e-12)):
        raise PoleOnAxisError(
            "undamped transition on resonance; an explicit i0+ prescription is required")
    # rho_n O^i_nm O^j_mn, contracted over (n, m) without an omega axis
    num = (rho[..., None, None, :, None] * operators[..., :, None, :, :]
           * np.swapaxes(operators, -1, -2)[..., None, :, :, :])
    out = np.einsum("...wnm,...ijnm->...wij", np.reciprocal(denom, out=denom), num)
    out /= volume
    return out.reshape(out.shape[:-3] + omega.shape + out.shape[-2:])


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
    pi: np.ndarray       # (..., n_omega, n_ops, n_ops) complex
    pi_abs: np.ndarray

    def __post_init__(self):
        expected = absorptive_part(self.pi)
        if np.max(np.abs(expected - self.pi_abs)) != 0.0:
            raise ValueError("pi_abs must equal (pi - pi^dagger)/2i exactly")


def response_spectrum(energies, operators, rho, omegas, volume=1.0):
    """Sampled correlator over a frequency grid (batched like the kernel)."""
    omegas = np.asarray(omegas, dtype=float)
    pi = lehmann_correlator(energies, operators, rho, omegas, volume=volume)
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

    Returns (f, h_coef, center, v): f and h_coef of shape (..., 2, 2, 2) in
    (band n, mu, nu), the other band m = 1 - n being the transition partner,
    then the stencil's center eigensystem and its velocity matrices.  The
    k points are solved as one flat batch and every output takes their
    broadcast shape, so a scalar k gives the same bits as that point of a
    mesh (numpy's scalar complex arithmetic rounds differently from its
    array loops).
    """
    if model.dimension != 2:
        raise ValueError("interband coefficients implemented for two bands")
    shape = np.broadcast(kx, ky).shape
    kx, ky = (np.broadcast_to(np.asarray(k, dtype=float), shape).reshape(-1) for k in (kx, ky))
    center, shifted = locked_stencil(model, kx, ky, h, gauge=gauge)

    def velocities(eig, akx, aky):
        return velocity_matrices(eig, model.derivative(akx, aky, 0),
                                 model.derivative(akx, aky, 1))

    def mixed(eig, v, n):
        """g_nu = <L_m|d_nu psiR_n> = V_nu[m, n] / (e_n - e_m), closed form."""
        de = eig.energies[..., n] - eig.energies[..., 1 - n]
        return v[..., 1 - n, n] / de[..., None]

    v = velocities(center, kx, ky)
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

    def unflat(a):
        return a.reshape(shape + a.shape[1:])

    center = Eigensystem(*map(unflat, (center.energies, center.right, center.left,
                                       center.overlap_right, center.overlap_left)))
    return unflat(f), unflat(h_coef), center, unflat(v)


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


class BandCoefficients(NamedTuple):
    """Interband coefficients of one selected branch band, batched over k."""

    f: np.ndarray         # (..., 2, 2) in (mu, nu)
    h_coef: np.ndarray    # (..., 2, 2)
    z: np.ndarray         # e_other - e_band
    trg: np.ndarray       # tr G^RR of the band
    energies: np.ndarray  # (..., 2) both branch energies


def band_coefficients(model: BlochModel, kx, ky, band="slowest"):
    """The one band selection of the conductivity and weight routines.

    One :func:`interband_fh` call supplies f and h of both branch bands,
    and its center eigensystem and velocity matrices give z and tr G^RR.
    ``band="slowest"`` keeps, at each k, the band that decays slowest
    (:func:`decays_slower`); 0 or 1 keeps that branch band everywhere (only
    valid while it decays slowest, else the branch cut is crossed).  The
    selection runs on the flat batch of :func:`interband_fh`, so a scalar k
    gives the same bits as that point of a mesh.
    """
    if band != "slowest" and band not in (0, 1):
        raise ValueError("band must be 'slowest', 0 or 1")
    shape = np.broadcast(kx, ky).shape
    f, hc, eig, v = interband_fh(
        model, *(np.broadcast_to(np.asarray(k, dtype=float), shape).reshape(-1)
                 for k in (kx, ky)))
    e = eig.energies
    if band == "slowest":
        mask = decays_slower(e[:, 0], e[:, 1])
    else:
        mask = np.full(len(e), band == 0)
    trg = [qgt_rr(eig, v, band=b) for b in (0, 1)]

    def pick(a, b):
        return np.where(mask.reshape((-1,) + (1,) * (a.ndim - 1)), a, b
                        ).reshape(shape + a.shape[1:])

    return BandCoefficients(pick(f[:, 0], f[:, 1]), pick(hc[:, 0], hc[:, 1]),
                            pick(e[:, 1] - e[:, 0], e[:, 0] - e[:, 1]),
                            pick(*(np.real(q[:, 0, 0] + q[:, 1, 1]) for q in trg)),
                            e.reshape(shape + (2,)))


def _sigma_regular_from_fh(f, h_coef, z, omega):
    """Regular conductivity matrices from stored coefficients; ``omega``
    broadcasts against the k axes of ``z``."""
    om = np.asarray(omega, dtype=float)[..., None, None]
    zc = np.asarray(z)[..., None, None]
    t_f = -1j * zc * f / (zc - om) + np.conj(-1j * zc * f / (zc + om))
    t_h = 1j * om * (h_coef / (zc - om) ** 2 + np.conj(h_coef / (zc + om) ** 2))
    return t_f + t_h


def conductivity_wavepacket(model: BlochModel, kx, ky, band=0, omega=0.0):
    """Regular part of the wave-packet conductivity sigma^reg_{mu nu}(omega, k).

    Batched over k (shape (..., 2, 2)).  The Drude piece (principal value
    1/omega times d2e) is excluded; use :func:`drude_coefficient` for it.
    """
    c = band_coefficients(model, kx, ky, band)
    return _sigma_regular_from_fh(c.f, c.h_coef, c.z, omega)


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


def _weight_trace(c: BandCoefficients, eta):
    """Per-k weight trace sum_mu W^{mu mu}(eta) and its ln(eta) coefficient.

    W_{mu nu}(eta) = base + coeff * ln(eta) with
    base = 2 Im(h/z) + pi Re f + 2 Im(f ln_L z), coeff = -2 Im f,
    ln_L the [-pi, 0]-branch logarithm.
    """
    if eta <= 0:
        raise ValueError("eta must be positive")
    zc = c.z[..., None, None]
    ln_l = np.log(np.abs(zc)) + 1j * lower_branch_arg(zc)
    base = (2.0 * np.imag(c.h_coef / zc)
            + np.pi * np.real(c.f)
            + 2.0 * np.imag(c.f * ln_l))
    coeff = -2.0 * np.imag(c.f)
    tr_coeff = coeff[..., 0, 0] + coeff[..., 1, 1]
    return base[..., 0, 0] + base[..., 1, 1] + tr_coeff * np.log(eta), tr_coeff


def optical_weight_numeric(model: BlochModel, kx, ky, band="slowest", eta=1e-3):
    """Per-k weight trace sum_mu W^{mu mu} and its ln(eta) coefficient.

    Closed omega-integrated form of int_eta^inf Re sigma^reg(omega)/omega;
    the logarithmic cutoff dependence is extracted analytically as
    -2 sum_mu Im f_{mu mu}.  Batched over k.
    """
    return _weight_trace(band_coefficients(model, kx, ky, band), eta)


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


def optical_weight_bz(model: BlochModel, band="slowest", n_grid=48, eta=1e-3):
    """Optical weight trace integrated over the BZ, by both two-band routes.

    ``band`` is selected by :func:`band_coefficients`.  The numeric route
    integrates the per-k closed omega-form of the f/h coefficients
    (:func:`optical_weight_numeric` on the mesh); the reduced routes are
    the tr G^RR forms (see :class:`OpticalWeightResult`).  Numeric and
    ``closed_trace`` differ by a total divergence plus the ln(eta) residue,
    both of which die off with grid refinement while the selected band
    stays k-smooth.
    """
    kxg, kyg = bz_mesh(n_grid, n_grid)
    area = (2.0 * np.pi / n_grid) ** 2
    c = band_coefficients(model, kxg, kyg, band)
    w_tr, tr_coeff = _weight_trace(c, eta)
    arg = lower_branch_arg(c.z)
    return OpticalWeightResult(
        per_k=w_tr,
        bz_trace=float(np.sum(w_tr) * area),
        eta_used=float(eta),
        ln_eta_coefficient=float(np.sum(tr_coeff) * area),
        arg_infimum=float(np.min(arg)),
        closed_trace=float(np.sum(c.trg * (np.pi + 2.0 * arg)) * area),
        bound_trace=float(np.sum(c.trg * (np.pi + arg)) * area),
        trg_per_k=c.trg,
        arg_per_k=arg,
    )
