import numpy as np
import numpy.testing as npt
import pytest
from scipy import integrate

from conftest import hermitian_kubo_sigma, hermitian_qgt, smooth_gauge
from nhgeo.errors import BranchViolationError, PoleOnAxisError
from nhgeo.geometry import anomalous_connection, qgt_rr, velocity_matrices
from nhgeo.models import BlochModel, RMParams, bz_mesh
from nhgeo.oracles import optical_weight_quadrature
from nhgeo.response import (absorptive_part, conductivity_wavepacket,
                            drude_coefficient, interband_fh, lehmann_correlator,
                            lorentzian_kernel, lower_branch_arg, optical_weight_bz,
                            optical_weight_numeric)
from nhgeo.spectra import eigensystem_two_band, matrix_elements

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SY = np.array([[0.0, -1.0j], [1.0j, 0.0]])


TOY_ENERGIES = np.array([1.0 - 0.2j, -1.0 - 0.3j])
TOY_OPS = (SX, SY)


# -- Lorentzian kernel --------------------------------------------------------

def test_lorentzian_peak_value():
    assert lorentzian_kernel(0.0, 0.0, 1.0, 0.0) == pytest.approx(1.0 / np.pi)


def test_lorentzian_normalization():
    val, _ = integrate.quad(lambda w: lorentzian_kernel(0.7, 0.1, 0.4, w),
                            -np.inf, np.inf)
    assert abs(val - 1.0) < 1e-6


def test_lorentzian_sign_inversion():
    w = np.linspace(-5, 5, 101)
    assert np.all(lorentzian_kernel(0.3, 0.0, -0.5, w) <= 0.0)


# -- Lehmann correlator -------------------------------------------------------

def test_lehmann_single_transition_value():
    # one initial level, off-resonance: a single resolvent term per operator pair
    rho = np.array([1.0, 0.0])
    omega = np.array([5.0])
    pi = lehmann_correlator(TOY_ENERGIES, TOY_OPS, rho, omega)
    e_nm = 2.0
    s_nm = 0.5
    expected = SX[0, 1] * SX[1, 0] / (5.0 + e_nm - 1j * s_nm) \
        + SX[0, 0] * SX[0, 0] / (5.0 - 1j * 0.4)
    npt.assert_allclose(pi[0, 0, 0], expected, atol=1e-14)


def test_lehmann_absorptive_is_lorentzian_sum():
    # v* Pi^abs v must equal pi * sum_nm rho_n |O_mn . v|^2 L_nm(omega)
    rho = np.array([0.6, 0.4])
    omegas = np.linspace(-4, 4, 41)
    pi = lehmann_correlator(TOY_ENERGIES, TOY_OPS, rho, omegas)
    pa = absorptive_part(pi)
    rng = np.random.default_rng(5)
    v = rng.normal(size=2) + 1j * rng.normal(size=2)
    quad_form = np.real(np.einsum("i,wij,j->w", np.conj(v), pa, v))
    direct = np.zeros_like(omegas)
    ops = TOY_OPS
    e, s = np.real(TOY_ENERGIES), -np.imag(TOY_ENERGIES)
    for n in range(2):
        for m in range(2):
            ov = ops[0][m, n] * v[0] + ops[1][m, n] * v[1]
            kern = lorentzian_kernel(e[n] - e[m], 0.0, s[n] + s[m], omegas)
            direct += np.pi * rho[n] * abs(ov) ** 2 * kern
    npt.assert_allclose(quad_form, direct, atol=1e-12)


def test_lehmann_pole_on_axis():
    with pytest.raises(PoleOnAxisError):
        lehmann_correlator(np.array([1.0 + 0j, -1.0 + 0j]), (SX,),
                           np.array([1.0, 0.0]), np.array([-2.0]))


def test_lehmann_batched_matches_slices(rng):
    # a (k, N) stack in one call equals the per-slice calls
    n_k, n = 5, 3
    energies = rng.normal(size=(n_k, n)) - 1j * rng.uniform(0.1, 0.5, size=(n_k, n))
    ops = rng.normal(size=(n_k, 2, n, n)) + 1j * rng.normal(size=(n_k, 2, n, n))
    rho = rng.uniform(size=(n_k, n))
    rho /= rho.sum(axis=-1, keepdims=True)
    omegas = np.linspace(-3.0, 3.0, 7)
    batched = lehmann_correlator(energies, ops, rho, omegas)
    assert batched.shape == (n_k, 7, 2, 2)
    for k in range(n_k):
        npt.assert_allclose(batched[k], lehmann_correlator(energies[k], ops[k], rho[k], omegas),
                            rtol=1e-13, atol=1e-15)
    # one undamped slice on resonance fails the whole stack
    energies[3] = [1.0, -1.0, 0.5]
    with pytest.raises(PoleOnAxisError):
        lehmann_correlator(energies, ops, rho, np.array([2.0]))
    with pytest.raises(ValueError):
        lehmann_correlator(energies, ops[..., :2, :2], rho, omegas)
    with pytest.raises(ValueError):
        lehmann_correlator(energies, ops, 2.0 * rho, omegas)


def test_kramers_kronig_single_lorentzian():
    # analytic in the lower half-plane: Re Pi(w0) = -(1/pi) PV int Im Pi/(w - w0)
    energies = np.array([0.5 - 0.3j, -0.5 - 0.2j])
    rho = np.array([1.0, 0.0])

    def pi_of(w):
        return lehmann_correlator(energies, (SX,), rho, np.atleast_1d(w))[0, 0, 0]

    w0 = 0.8
    val, _ = integrate.quad(lambda w: np.imag(pi_of(w)), -80.0, 80.0,
                            weight="cauchy", wvar=w0, limit=400)
    tail = 0.0  # integrand decays as 1/w^2; the window is wide enough for 1e-3
    assert abs(np.real(pi_of(w0)) - (-(val + tail) / np.pi)) < 1e-3


# -- absorptive part ----------------------------------------------------------

def test_response_spectrum_container():
    from nhgeo.response import ResponseSpectrum, response_spectrum
    omegas = np.linspace(-2.0, 2.0, 11)
    spec = response_spectrum(TOY_ENERGIES, TOY_OPS, np.array([1.0, 0.0]), omegas)
    npt.assert_array_equal(spec.pi_abs, absorptive_part(spec.pi))
    with pytest.raises(ValueError):
        ResponseSpectrum(omegas=omegas, pi=spec.pi, pi_abs=spec.pi_abs + 1e-3)


def test_absorptive_symmetric_matrix():
    pi = np.array([[1.0 + 2.0j, 0.3 - 0.4j], [0.3 - 0.4j, -0.5 + 1.0j]])
    npt.assert_allclose(absorptive_part(pi), np.imag(pi), atol=1e-15)


def test_absorptive_anti_hermitian_input():
    a = np.array([[1.0j, 0.5 + 0.2j], [-0.5 + 0.2j, -2.0j]])
    assert np.max(np.abs(a + a.conj().T)) < 1e-15
    npt.assert_allclose(absorptive_part(a), -1j * a, atol=1e-15)


# -- interband coefficients ---------------------------------------------------

def test_fh_gauge_invariance(rm_model):
    for kx, ky in [(0.7, -1.3), (2.0, 0.4)]:
        f0, h0, _, _ = interband_fh(rm_model, kx, ky)
        f1, h1, _, _ = interband_fh(rm_model, kx, ky, gauge=smooth_gauge(seed=9))
        assert np.max(np.abs(f0 - f1)) < 1e-8
        assert np.max(np.abs(h0 - h1)) < 1e-8


def test_h_vanishes_hermitian(hermitian_model):
    _, hc, _, _ = interband_fh(hermitian_model, 0.7, -1.3)
    assert np.max(np.abs(hc)) < 1e-12


def test_f_sum_identity(rm_model):
    # sum_mu f_mumu = tr G^RR + (i/2) div Q^R, the anomalous-connection identity
    for kx, ky in [(0.7, -1.3), (2.0, 0.4), (-1.1, 2.8)]:
        f, _, _, _ = interband_fh(rm_model, kx, ky)
        fsum = f[0, 0, 0] + f[0, 1, 1]
        step = 1e-5

        def eig_v(akx, aky):
            akx, aky = np.asarray(akx), np.asarray(aky)
            e = eigensystem_two_band(rm_model.hamiltonian(akx, aky), ordering="branch")
            return e, velocity_matrices(e, rm_model.derivative(akx, aky, 0),
                                        rm_model.derivative(akx, aky, 1))

        q = qgt_rr(*eig_v(kx, ky), band=0)
        trg = np.real(q[0, 0] + q[1, 1])

        def q_r(akx, aky, axis):
            return anomalous_connection(*eig_v(akx, aky), band=0, side="R")[axis]

        div = ((q_r(kx + step, ky, 0) - q_r(kx - step, ky, 0)) / (2 * step)
               + (q_r(kx, ky + step, 1) - q_r(kx, ky - step, 1)) / (2 * step))
        npt.assert_allclose(fsum, trg + 0.5j * div, atol=1e-9)


def test_f_reduces_to_hermitian_qgt(hermitian_model):
    # f_{mu nu} -> <d_mu n|m><m|d_nu n>, the band-resolved QGT term
    kx, ky = 0.7, -1.3
    f, _, _, _ = interband_fh(hermitian_model, kx, ky)
    ref = hermitian_qgt(hermitian_model.hamiltonian(kx, ky),
                        hermitian_model.derivative(kx, ky, 0),
                        hermitian_model.derivative(kx, ky, 1), band=1)
    npt.assert_allclose(f[0], ref, atol=1e-8)


# -- conductivity -------------------------------------------------------------

def test_conductivity_hermitian_matches_kubo(hermitian_model):
    for omega in (0.37, 1.9):
        for kx, ky in [(0.7, -1.3), (2.2, 0.9)]:
            sig = conductivity_wavepacket(hermitian_model, kx, ky, band=0,
                                          omega=omega)
            ref = hermitian_kubo_sigma(hermitian_model.hamiltonian(kx, ky),
                                       hermitian_model.derivative(kx, ky, 0),
                                       hermitian_model.derivative(kx, ky, 1),
                                       band=1, omega=omega)
            npt.assert_allclose(sig, ref, atol=1e-8)


def test_conductivity_large_omega_decay(rm_model):
    s1 = conductivity_wavepacket(rm_model, 0.7, -1.3, band=0, omega=50.0)
    s2 = conductivity_wavepacket(rm_model, 0.7, -1.3, band=0, omega=100.0)
    ratio = np.max(np.abs(s2)) / np.max(np.abs(s1))
    assert abs(ratio - 0.5) < 0.1


def test_drude_coefficient_matches_velocity_derivative(rm_model):
    # second derivative of e vs first finite difference of the band velocity
    kx, ky = 0.7, -1.3
    dd = drude_coefficient(rm_model, kx, ky, band=0, h=1e-4)

    def vel(akx, aky, axis):
        kxa, kya = np.asarray(akx), np.asarray(aky)
        eig = eigensystem_two_band(rm_model.hamiltonian(kxa, kya), ordering="branch")
        v = matrix_elements(eig.left, rm_model.derivative(kxa, kya, axis), eig.right)
        return v[0, 0]

    step = 1e-4
    d2xx = (vel(kx + step, ky, 0) - vel(kx - step, ky, 0)) / (2 * step)
    d2xy = (vel(kx, ky + step, 0) - vel(kx, ky - step, 0)) / (2 * step)
    npt.assert_allclose(dd[0, 0], d2xx, atol=1e-5)
    npt.assert_allclose(dd[0, 1], d2xy, atol=1e-5)


# -- optical weights ----------------------------------------------------------

def test_weight_closed_vs_quadrature_25_points(rm_model, rng):
    worst = 0.0
    for kx, ky in rng.uniform(-np.pi, np.pi, size=(25, 2)):
        wq = optical_weight_quadrature(rm_model, kx, ky, eta=1e-3)
        wn, _ = optical_weight_numeric(rm_model, kx, ky, eta=1e-3)
        worst = max(worst, abs(wq - wn) / max(abs(wq), 1e-9))
    assert worst < 1e-4


def test_weight_and_conductivity_batch_equal_scalar_calls(rng):
    model = BlochModel.rice_mele(RMParams(gamma=1.0, Gamma=0.7, variant="supplemental"))
    kx, ky = rng.uniform(-np.pi, np.pi, size=(2, 3, 4))
    w, coeff = optical_weight_numeric(model, kx, ky, eta=1e-3)
    sig = conductivity_wavepacket(model, kx, ky, band="slowest", omega=0.8)
    assert w.shape == coeff.shape == kx.shape and sig.shape == kx.shape + (2, 2)
    for idx in np.ndindex(kx.shape):
        w1, c1 = optical_weight_numeric(model, kx[idx], ky[idx], eta=1e-3)
        assert w1 == w[idx] and c1 == coeff[idx]
        s1 = conductivity_wavepacket(model, kx[idx], ky[idx], band="slowest", omega=0.8)
        assert np.array_equal(s1, sig[idx])


@pytest.mark.parametrize("model_name, band", [
    ("rm_model", "slowest"), ("hermitian_model", "slowest"),
    ("hermitian_model", 0), ("hermitian_model", 1),
])
def test_weight_numeric_on_mesh_equals_bz_per_k(request, model_name, band):
    # a fixed band is admissible only where it decays slowest: everywhere
    # in the Hermitian limit
    model = request.getfixturevalue(model_name)
    w, _ = optical_weight_numeric(model, *bz_mesh(12, 12), band=band, eta=1e-3)
    res = optical_weight_bz(model, band=band, n_grid=12, eta=1e-3)
    assert np.array_equal(w, res.per_k)


def test_weight_eta_dependence_is_logarithmic(rm_model):
    kx, ky = 0.7, -1.3
    w1, coeff = optical_weight_numeric(rm_model, kx, ky, eta=1e-3)
    w2, _ = optical_weight_numeric(rm_model, kx, ky, eta=1e-2)
    npt.assert_allclose(w2 - w1, coeff * np.log(10.0), atol=1e-12)


def test_weight_bz_ln_eta_cancels(rm_model):
    res = optical_weight_bz(rm_model, band="slowest", n_grid=48, eta=1e-3)
    assert abs(res.ln_eta_coefficient) < 1e-6


def test_weight_bz_eta_robustness(rm_model):
    a = optical_weight_bz(rm_model, band="slowest", n_grid=32, eta=1e-3)
    b = optical_weight_bz(rm_model, band="slowest", n_grid=32, eta=1e-2)
    assert abs(a.bz_trace - b.bz_trace) / abs(a.bz_trace) < 1e-4


def test_weight_hermitian_reduces_to_metric(hermitian_model):
    # eta-independent and equal to pi * (metric trace of the occupied band)
    kx, ky = 0.7, -1.3
    w, coeff = optical_weight_numeric(hermitian_model, kx, ky, eta=1e-3)
    assert abs(coeff) < 1e-10
    ref = hermitian_qgt(hermitian_model.hamiltonian(kx, ky),
                        hermitian_model.derivative(kx, ky, 0),
                        hermitian_model.derivative(kx, ky, 1), band=0)
    npt.assert_allclose(w, np.pi * np.real(ref[0, 0] + ref[1, 1]), atol=1e-8)


def test_weight_bz_closed_form_smooth_regime():
    # slowest band k-smooth for Gamma above 2 max|Im sqrt(d.d)|: the BZ sum
    # collapses onto int trG^RR (pi + 2 arg) up to the spectral Riemann error
    m = BlochModel.rice_mele(RMParams(gamma=1.0, Gamma=1.5, variant="supplemental"))
    res = optical_weight_bz(m, band="slowest", n_grid=48, eta=1e-3)
    assert abs(res.bz_trace - res.closed_trace) / abs(res.closed_trace) < 1e-3
    assert res.bound_trace > 0.0


def test_weight_bz_stitched_regime_reports(rm_model):
    # below the smoothness threshold the weight field has physical jump
    # lines; the closed reduction then only tracks the numeric value
    res = optical_weight_bz(rm_model, band="slowest", n_grid=48, eta=1e-3)
    assert res.bound_trace > 0.0
    assert -np.pi <= res.arg_infimum <= 0.0
    assert abs(res.bz_trace - res.closed_trace) / abs(res.closed_trace) < 0.2


def test_weight_fixed_band_branch_guard(rm_model):
    # a fixed branch band grows in parts of the zone: the [-pi, 0] branch
    # logarithm must refuse rather than wrap
    with pytest.raises(BranchViolationError):
        optical_weight_bz(rm_model, band=1, n_grid=16, eta=1e-3)


def test_branch_arg_convention():
    npt.assert_allclose(lower_branch_arg(np.array([-2.0 + 0j])), [-np.pi])
    npt.assert_allclose(lower_branch_arg(np.array([3.0 + 0j])), [0.0])
    npt.assert_allclose(lower_branch_arg(np.array([1.0 - 1.0j])), [-np.pi / 4])
    with pytest.raises(BranchViolationError):
        lower_branch_arg(np.array([1.0 + 0.5j]))


def test_branch_continuity_along_rows():
    # smooth slowest band: the branch argument never wraps along mesh rows
    m = BlochModel.rice_mele(RMParams(gamma=1.0, Gamma=1.5, variant="supplemental"))
    res = optical_weight_bz(m, band="slowest", n_grid=48, eta=1e-3)
    jumps = np.abs(np.diff(res.arg_per_k, axis=1))
    assert np.max(jumps) < np.pi / 2
    assert np.all(res.arg_per_k <= 0.0)
    assert np.all(res.arg_per_k > -np.pi)


def test_interband_fh_scalar_call_equals_mesh_point():
    # interband_fh flattens its own k points: a scalar call runs the array
    # loops of a mesh, not numpy's scalar complex arithmetic
    model = BlochModel.rice_mele(RMParams(gamma=1.0, Gamma=0.7, variant="supplemental"))
    kx, ky = bz_mesh(12, 12)
    f, hc, eig, v = interband_fh(model, kx, ky)
    assert f.shape == hc.shape == (12, 12, 2, 2, 2)
    assert eig.right.shape == (12, 12, 2, 2) and v.shape == (12, 12, 2, 2, 2)
    for i in range(12):
        j = (5 * i + 3) % 12
        f1, h1, eig1, v1 = interband_fh(model, kx[i, j], ky[i, j])
        for one, mesh in ((f1, f), (h1, hc), (eig1.energies, eig.energies),
                          (eig1.right, eig.right), (v1, v)):
            assert np.array_equal(one, mesh[i, j])
