"""Reference implementations the closed forms are checked against.

Adaptive quadrature of the frequency integrals (optical weight, Keldysh
bubble, polarization bubble) with the regular conductivity that the weight
quadrature integrates, and phase-locked finite differences of the
eigenvectors (QGTs, anomalous connection).  They are slow by design and
serve tests and the ``--quadrature`` column of ``nhgeo optical-weight``;
this is the only module that imports scipy, and nothing on the path that
serves results imports it.
"""

from __future__ import annotations

import numpy as np
from scipy import integrate

from .errors import PoleOnAxisError
from .geometry import locked_stencil
from .models import BlochModel
from .response import band_coefficients
from .spectra import braket
from .tolerances import QUADRATURE_DAMPING_RTOL

#: default finite-difference oracle step in momentum
ORACLE_STEP = 1e-4


# -- frequency quadratures ----------------------------------------------------

def sigma_regular_from_fh(f, h_coef, z, omega):
    """Regular part of the wave-packet conductivity sigma^reg_{mu nu}(omega)
    from the stored coefficients of :func:`nhgeo.response.band_coefficients`
    (the Drude piece excluded); ``omega`` broadcasts against the k axes of
    ``z``.  :func:`optical_weight_quadrature` integrates Re tr sigma/omega."""
    om = np.asarray(omega, dtype=float)[..., None, None]
    zc = np.asarray(z)[..., None, None]
    t_f = -1j * zc * f / (zc - om) + np.conj(-1j * zc * f / (zc + om))
    t_h = 1j * om * (h_coef / (zc - om) ** 2 + np.conj(h_coef / (zc + om) ** 2))
    return t_f + t_h


def optical_weight_quadrature(model: BlochModel, kx, ky, band="slowest", eta=1e-3,
                              omega_max=None):
    """Adaptive quadrature of int_eta^inf Re tr sigma^reg(omega)/omega domega.

    Oracle for :func:`nhgeo.response.optical_weight_numeric`, batched over
    k: one :func:`nhgeo.response.band_coefficients` call, then per point
    Gauss-Kronrod panels up to ``omega_max`` (default 50 max|e|;
    resonances passed as break points) and an open-ended tail.
    """
    c = band_coefficients(model, kx, ky, band)
    e_max = np.max(np.abs(c.energies), axis=-1)
    out = np.empty(np.shape(c.z))
    for idx in np.ndindex(out.shape):
        f, hc, z = c.f[idx], c.h_coef[idx], complex(c.z[idx])
        if abs(np.imag(z)) < QUADRATURE_DAMPING_RTOL * abs(z):
            raise PoleOnAxisError("undamped transition: quadrature needs Im z != 0")
        w_max = 50.0 * float(e_max[idx]) if omega_max is None else omega_max

        def integrand(w):
            s = sigma_regular_from_fh(f, hc, z, w)
            return np.real(s[..., 0, 0] + s[..., 1, 1]) / w

        points = [p for p in (abs(np.real(z)), abs(z)) if eta < p < w_max]
        val, _ = integrate.quad(integrand, eta, w_max, points=points, limit=400)
        tail, _ = integrate.quad(integrand, w_max, np.inf, limit=200)
        out[idx] = val + tail
    return out[()]


def _complex_quad(integrand, cut, points):
    """int_{-cut}^{cut} of a complex integrand, real and imaginary parts apart."""
    points = [p for p in sorted(points) if -cut < p < cut]
    re, _ = integrate.quad(lambda w: np.real(integrand(w)), -cut, cut,
                           points=points, limit=400)
    im, _ = integrate.quad(lambda w: np.imag(integrand(w)), -cut, cut,
                           points=points, limit=400)
    return re + 1j * im


def bubble_h_quadrature(eps_n, eps_m, omega, side="A", sigma_k_m=None,
                        cut_factor=200.0):
    """Adaptive-quadrature oracle for :func:`nhgeo.lindblad.bubble_h` (same
    conventions).  An undamped level n's G_n pole p takes bubble_h's i0 prescription:
    the principal value over p plus i pi G^K_m(p) (G^A upper) or minus it (G^R)."""
    eps_n, eps_m = complex(eps_n), complex(eps_m)
    if sigma_k_m is None:
        sigma_k_m = 2j * np.imag(eps_m)
    pole = np.conj(eps_n) if side == "A" else eps_n

    def poles(w):  # G^K_m = sigma / poles(w)
        return (w - eps_m) * (w - np.conj(eps_m))

    cut = cut_factor * max(abs(eps_n), abs(eps_m), abs(omega), 1.0)
    if pole.imag == 0.0:
        # the pole subtracted: (G^K_m(w) - G^K_m(p)) / (w - p), written without the
        # division by w - p, is regular, and the principal value of 1 / (w - p) over
        # the window is log((cut - p) / (cut + p))
        p = pole.real - omega
        pv = _complex_quad(lambda w: -sigma_k_m * (w + p - 2.0 * eps_m.real)
                           / (poles(w) * poles(p)), cut, {p, eps_m.real})
        # plus the one-sided residue, +i pi for the G^A pole (upper), -i pi for G^R
        pole_terms = np.log((cut - p) / (cut + p)) + (1j if side == "A" else -1j) * np.pi
        return pv + sigma_k_m / poles(p) * pole_terms
    return _complex_quad(lambda w: sigma_k_m / poles(w) / (w + omega - pole), cut,
                         {np.real(eps_m), np.real(eps_n) - omega, np.real(eps_n) + omega})


def polarization_bubble_quadrature(energies, op_i, op_j, omega, sign=+1,
                                   cut_factor=200.0):
    """Frequency-integral oracle for one element of
    :func:`nhgeo.lindblad.bubble_matrix`.

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
    return _complex_quad(integrand, cut,
                         {float(x) for x in np.real(energies)}
                         | {float(x) - omega for x in np.real(energies)})


# -- finite differences of locked eigenvectors --------------------------------

def _vector_derivatives(shifted, h):
    """(dR[axis], dL[axis]) central differences of locked eigenvectors."""
    dr, dl = [], []
    for axis in (0, 1):
        plus, minus = shifted[(axis, 1.0)][1], shifted[(axis, -1.0)][1]
        dr.append((plus.right - minus.right) / (2.0 * h))
        dl.append((plus.left - minus.left) / (2.0 * h))
    return dr, dl


def finite_difference_qgt(model: BlochModel, kx, ky, band=0, pair="lr",
                          h=ORACLE_STEP):
    """QGT from explicit locked eigenvector derivatives (test oracle).

    ``pair`` picks which definition is differentiated:

    * ``"lr"``: <d_mu psiL|(1 - |R><L|)|d_nu psiR>   (biorthonormal)
    * ``"rl"``: <d_mu psiR|(1 - |L><R|)|d_nu psiL>
    * ``"rr"``/``"ll"``: projector QGT of the unit-normalized ray

    Accuracy is O(h^2); used only to validate the gauge-invariant formulas.
    """
    center, shifted, _ = locked_stencil(model, kx, ky, h)
    n = band
    out = np.empty(np.shape(np.asarray(kx, dtype=float)) + (2, 2), dtype=complex)

    if pair in ("lr", "rl"):
        dr, dl = _vector_derivatives(shifted, h)
        r = center.right[..., n, :]
        l = center.left[..., n, :]
        for mu in range(2):
            for nu in range(2):
                if pair == "lr":
                    vec = dr[nu][..., n, :] - braket(l, dr[nu][..., n, :])[..., None] * r
                    out[..., mu, nu] = braket(dl[mu][..., n, :], vec)
                else:
                    vec = dl[nu][..., n, :] - braket(r, dl[nu][..., n, :])[..., None] * l
                    out[..., mu, nu] = braket(dr[mu][..., n, :], vec)
        return out

    if pair in ("rr", "ll"):
        pick = (lambda e: e.right) if pair == "rr" else (lambda e: e.left)
        vc = pick(center)[..., n, :]
        vc = vc / np.linalg.norm(vc, axis=-1, keepdims=True)
        dv = []
        for axis in (0, 1):
            vp = pick(shifted[(axis, 1.0)][1])[..., n, :]
            vm = pick(shifted[(axis, -1.0)][1])[..., n, :]
            vp = vp / np.linalg.norm(vp, axis=-1, keepdims=True)
            vm = vm / np.linalg.norm(vm, axis=-1, keepdims=True)
            dv.append((vp - vm) / (2.0 * h))
        for mu in range(2):
            for nu in range(2):
                vec = dv[nu] - braket(vc, dv[nu])[..., None] * vc
                out[..., mu, nu] = braket(dv[mu], vec)
        return out

    raise ValueError("pair must be one of 'lr', 'rl', 'rr', 'll'")


def finite_difference_connection(model: BlochModel, kx, ky, band=0, side="R",
                                 h=ORACLE_STEP):
    """Oracle for the anomalous connection: same-family minus mixed connection."""
    center, shifted, _ = locked_stencil(model, kx, ky, h)
    dr, dl = _vector_derivatives(shifted, h)
    n = band
    r = center.right[..., n, :]
    l = center.left[..., n, :]
    out = np.empty(np.shape(np.asarray(kx, dtype=float)) + (2,), dtype=complex)
    for axis in range(2):
        if side == "R":
            drn = dr[axis][..., n, :]
            a_same = 1j * braket(r, drn) / braket(r, r)
            a_mixed = 1j * braket(l, drn)
        elif side == "L":
            dln = dl[axis][..., n, :]
            a_same = 1j * braket(l, dln) / braket(l, l)
            a_mixed = 1j * braket(r, dln)
        else:
            raise ValueError("side must be 'R' or 'L'")
        out[..., axis] = a_same - a_mixed
    return out
