"""Shared fixtures and independent test oracles.

The Hermitian oracles here deliberately avoid the package's biorthogonal
machinery: they work from numpy.linalg.eigh output only, so agreement with
them is an independent check, not a tautology.
"""

import numpy as np
import pytest
from hypothesis import settings

from nhgeo.models import BlochModel, RMParams

# property tests draw the same examples on every run: tier-1 and CI are
# deterministic, and no example database is written
settings.register_profile("nhgeo", derandomize=True, database=None, deadline=None)
settings.load_profile("nhgeo")


@pytest.fixture
def rm_model():
    """Dissipative Rice-Mele reference point: t = delta = Delta = 1, gamma = 1."""
    return BlochModel.rice_mele(RMParams(gamma=1.0, variant="supplemental"))


@pytest.fixture
def hermitian_model():
    return BlochModel.rice_mele(RMParams(gamma=0.0, variant="supplemental"))


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)


#: exponents e of the near-EP sweep delta = 10^-e of :func:`near_ep_matrix`;
#: the eigenvector route's validation rejects e >= 6 (overlap condition ~1e6)
NEAR_EP_EXPONENTS = range(2, 18)
NEAR_EP_REJECTED = range(6, 18)


def near_ep_matrix(delta):
    """q [[0.3, 1], [delta, 0.3]] q^dagger with a fixed complex rotation q:
    eigenvalues 0.3 +- sqrt(delta), norm product ~1/(4 delta)."""
    th, ph = 0.4, 0.7
    q = np.array([[np.cos(th), -np.exp(1j * ph) * np.sin(th)],
                  [np.exp(-1j * ph) * np.sin(th), np.cos(th)]])
    return q @ np.array([[0.3, 1.0], [delta, 0.3]]) @ q.conj().T


def smooth_gauge(amp=0.4, seed=0):
    """Random smooth nonvanishing per-band gauge factor c(kx, ky)."""
    gen = np.random.default_rng(seed)
    a = gen.uniform(-amp, amp, size=(2, 4))
    ph = gen.uniform(-np.pi, np.pi, size=(2, 4))

    def gauge(kx, ky):
        kx = np.asarray(kx, dtype=float)
        ky = np.asarray(ky, dtype=float)
        out = np.empty(np.broadcast(kx, ky).shape + (2,), dtype=complex)
        for band in range(2):
            w = (a[band, 0] * np.cos(kx + ph[band, 0])
                 + a[band, 1] * np.sin(ky + ph[band, 1]))
            phase = (a[band, 2] * np.sin(kx + ph[band, 2])
                     + a[band, 3] * np.cos(ky + ph[band, 3]))
            out[..., band] = np.exp(w + 1j * phase)
        return out

    return gauge


def hermitian_qgt(h, dhx, dhy, band):
    """Textbook single-band QGT from eigh output (independent oracle).

    Q_{mu nu} = sum_{m != n} <n|dH_mu|m><m|dH_nu|n> / (E_n - E_m)^2.
    """
    evals, vecs = np.linalg.eigh(h)
    n = band
    out = np.zeros((2, 2), dtype=complex)
    for m in range(len(evals)):
        if m == n:
            continue
        vx = vecs[:, n].conj() @ dhx @ vecs[:, m]
        vy = vecs[:, n].conj() @ dhy @ vecs[:, m]
        wx = vecs[:, m].conj() @ dhx @ vecs[:, n]
        wy = vecs[:, m].conj() @ dhy @ vecs[:, n]
        gap2 = (evals[n] - evals[m]) ** 2
        out[0, 0] += vx * wx / gap2
        out[0, 1] += vx * wy / gap2
        out[1, 0] += vy * wx / gap2
        out[1, 1] += vy * wy / gap2
    return out


def hermitian_kubo_sigma(h, dhx, dhy, band, omega):
    """Independent interband Kubo conductivity of a Hermitian two-band model.

    Regular part only, from eigh matrix elements:
    sigma_{mu nu} = sum_m [ i E_nm f_{mu nu} / (E_mn - omega)
                           + (i E_nm f_{mu nu} / (E_mn + omega))^* ]
    with f_{mu nu} = v^mu_nm v^nu_mn / E_nm^2.
    """
    evals, vecs = np.linalg.eigh(h)
    n = band
    sig = np.zeros((2, 2), dtype=complex)
    for m in range(len(evals)):
        if m == n:
            continue
        e_nm = evals[n] - evals[m]
        v = [vecs[:, n].conj() @ d @ vecs[:, m] for d in (dhx, dhy)]
        w = [vecs[:, m].conj() @ d @ vecs[:, n] for d in (dhx, dhy)]
        for mu in range(2):
            for nu in range(2):
                f = v[mu] * w[nu] / e_nm**2
                sig[mu, nu] += (1j * e_nm * f / (-e_nm - omega)
                                + np.conj(1j * e_nm * f / (-e_nm + omega)))
    return sig


def locked_fd_qgt_general(h_func, kx, ky, band, step=1e-5, occupied=None):
    """General-N finite-difference LR QGT oracle (dense solver + phase lock).

    Differentiates <d_mu psiL_n|(1 - sum_{j in O} |R_j><L_j|)|d_nu psiR_n>
    directly; O defaults to {band}.
    """
    from nhgeo.spectra import eigensystem_general

    occupied = {band} if occupied is None else set(occupied)
    center = eigensystem_general(h_func(kx, ky))

    def locked(akx, aky):
        eig = eigensystem_general(h_func(akx, aky))
        for b in range(eig.nbands):
            ov = center.right[b].conj() @ eig.right[b]
            eig.right[b] *= np.abs(ov) / ov
            eig.left[b] *= np.abs(ov) / ov
        return eig

    dr, dl = [], []
    for axis in range(2):
        dk = (step, 0.0) if axis == 0 else (0.0, step)
        plus = locked(kx + dk[0], ky + dk[1])
        minus = locked(kx - dk[0], ky - dk[1])
        dr.append((plus.right - minus.right) / (2 * step))
        dl.append((plus.left - minus.left) / (2 * step))

    out = np.zeros((2, 2), dtype=complex)
    for mu in range(2):
        for nu in range(2):
            vec = dr[nu][band].copy()
            for j in occupied:
                vec -= (center.left[j].conj() @ dr[nu][band]) * center.right[j]
            out[mu, nu] = dl[mu][band].conj() @ vec
    return out


def locked_fd_ray_qgt_general(h_func, kx, ky, band, pair="rr", step=1e-5):
    """General-N finite-difference QGT of one unit-normalized ray (dense solver).

    ``pair="rr"`` differentiates u = R_n/||R_n||, ``"ll"`` u = L_n/||L_n||:
    <d_mu u|(1 - |u><u|)|d_nu u> with the shifted rays phase-locked to the
    center ray.
    """
    from nhgeo.spectra import eigensystem_general

    def ray(akx, aky):
        eig = eigensystem_general(h_func(akx, aky))
        u = (eig.right if pair == "rr" else eig.left)[band]
        return u / np.linalg.norm(u)

    center = ray(kx, ky)

    def locked(akx, aky):
        u = ray(akx, aky)
        ov = center.conj() @ u
        return u * np.abs(ov) / ov

    du = []
    for axis in range(2):
        dk = (step, 0.0) if axis == 0 else (0.0, step)
        du.append((locked(kx + dk[0], ky + dk[1]) - locked(kx - dk[0], ky - dk[1]))
                  / (2 * step))
    out = np.zeros((2, 2), dtype=complex)
    for mu in range(2):
        for nu in range(2):
            out[mu, nu] = du[mu].conj() @ (du[nu] - (center.conj() @ du[nu]) * center)
    return out


def random_three_band_model(seed=7):
    """Dense non-Hermitian three-band Bloch model for multiband checks."""
    gen = np.random.default_rng(seed)
    a0 = gen.normal(size=(3, 3)) + 1j * gen.normal(size=(3, 3))
    a1 = 0.3 * (gen.normal(size=(3, 3)) + 1j * gen.normal(size=(3, 3)))
    a2 = 0.3 * (gen.normal(size=(3, 3)) + 1j * gen.normal(size=(3, 3)))

    def h_func(kx, ky):
        p1 = np.exp(1j * kx)
        p2 = np.exp(1j * ky)
        return (a0 + a1 * p1 + a1.conj().T * np.conj(p1)
                + a2 * p2 + a2.conj().T * np.conj(p2))

    def dh_func(kx, ky, axis):
        step = 1e-6
        if axis == 0:
            return (h_func(kx + step, ky) - h_func(kx - step, ky)) / (2 * step)
        return (h_func(kx, ky + step) - h_func(kx, ky - step)) / (2 * step)

    return h_func, dh_func
