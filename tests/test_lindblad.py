import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings, strategies as st

from nhgeo.errors import (NonFiniteError, NonHermitianTargetError, NonIntegrableError,
                          PoleOnAxisError)
from nhgeo.models import SIGMA_Y, SIGMA_Z
from nhgeo.lindblad import (JumpSpec, bubble_h, bubble_matrix, bubble_positivity,
                            decompose_antihermitian, effective_hamiltonian, keldysh_sigma,
                            m_matrix_from_vector)
from nhgeo.oracles import bubble_h_quadrature, polarization_bubble_quadrature
from nhgeo.response import lorentzian_kernel

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SY = SIGMA_Y
GAMMA = 1.3


def test_m_matrix_basic():
    npt.assert_allclose(m_matrix_from_vector([1.0, 0.0]), np.diag([1.0, 0.0]))


def test_m_matrix_rm_jump():
    r = np.sqrt(GAMMA)
    m = m_matrix_from_vector([r, 1j * r])
    npt.assert_allclose(m, GAMMA * np.array([[1.0, 1.0j], [-1.0j, 1.0]]), atol=1e-14)
    evals = np.linalg.eigvalsh(m)
    npt.assert_allclose(sorted(evals), [0.0, 2 * GAMMA], atol=1e-13)


def test_m_matrix_eigenvalues_closed_form(rng):
    a, b = rng.normal(size=2) + 1j * rng.normal(size=2)
    evals = np.linalg.eigvalsh(m_matrix_from_vector([a, b]))
    npt.assert_allclose(sorted(evals), [0.0, abs(a) ** 2 + abs(b) ** 2],
                        atol=1e-13)


def test_decompose_rm_single_jump():
    # y-axis decay structure: exactly one jump vector (sqrt g, i sqrt g)
    d = -0.5 * GAMMA * SIGMA_Y
    spec = decompose_antihermitian(d)
    assert len(spec.jumps) == 1
    r = np.sqrt(GAMMA)
    npt.assert_allclose(spec.jumps[0], [r, 1j * r], atol=1e-14)
    npt.assert_allclose(spec.identity_shift, -0.5j * GAMMA, atol=1e-14)


def test_decompose_sigma_z():
    spec = decompose_antihermitian(SIGMA_Z)
    assert len(spec.jumps) == 1
    npt.assert_allclose(spec.jumps[0], [2.0, 0.0], atol=1e-14)
    npt.assert_allclose(spec.identity_shift, -1.0j, atol=1e-14)


def test_decompose_rejects_non_hermitian():
    with pytest.raises(NonHermitianTargetError):
        decompose_antihermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_roundtrip_random_targets(rng):
    for _ in range(100):
        d = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        d = 0.5 * (d + d.conj().T)
        spec = decompose_antihermitian(d)
        h_eff = effective_hamiltonian(np.zeros((2, 2)), spec)
        anti = 0.5 * (h_eff - h_eff.conj().T)
        npt.assert_allclose(anti - spec.identity_shift * np.eye(2), -1j * d,
                            atol=1e-12)
        # jump-induced decay is nonnegative: i * antihermitian part is PSD/2
        assert np.min(np.linalg.eigvalsh(1j * anti)) >= -1e-12


def test_effective_hamiltonian_empty_spec():
    h = np.array([[1.0, 0.2], [0.2, -1.0]], dtype=complex)
    npt.assert_allclose(effective_hamiltonian(h, JumpSpec([], 0.0)), h)


def test_keldysh_sigma_rm():
    spec = decompose_antihermitian(-0.5 * GAMMA * SIGMA_Y)
    kel = keldysh_sigma(spec)
    npt.assert_allclose(kel.sigma_k, 1j * GAMMA * SIGMA_Y, atol=1e-14)
    npt.assert_allclose(kel.sigma_k, np.array([[0, GAMMA], [-GAMMA, 0]]), atol=1e-14)
    # anti-Hermitian, and exactly -2i times the Hermitian decay matrix
    npt.assert_allclose(kel.sigma_k, -kel.sigma_k.conj().T, atol=1e-14)
    npt.assert_array_equal(kel.sigma_k, -2j * kel.sigma_r)
    assert kel.proportionality == "minus_two_i"
    inv = keldysh_sigma(spec, inverted=True)
    npt.assert_allclose(inv.sigma_k, -kel.sigma_k, atol=1e-14)
    npt.assert_array_equal(inv.sigma_k, 2j * inv.sigma_r)
    assert inv.proportionality == "plus_two_i"


# -- Keldysh bubbles ----------------------------------------------------------

EPS = np.array([0.8 - 0.25j, -0.6 - 0.4j])


def test_bubble_closed_form_structure():
    # vacuum noise reduces to -2 pi i / (omega - E_nm - i S''_nm)
    for n, m in ((0, 1), (1, 0), (0, 0)):
        for omega in (0.0, 0.7, -1.9):
            got = bubble_h(EPS[n], EPS[m], omega, side="A")
            e_nm = EPS[n].real - EPS[m].real
            s_nm = -(EPS[n].imag + EPS[m].imag)
            expect = -2j * np.pi / (omega - e_nm - 1j * s_nm)
            npt.assert_allclose(got, expect, atol=1e-13)


@pytest.mark.parametrize("side", ["A", "R"])
def test_bubble_contour_vs_quadrature(side):
    for omega in (0.0, 0.9, -1.4):
        closed = bubble_h(EPS[0], EPS[1], omega, side=side)
        quad = bubble_h_quadrature(EPS[0], EPS[1], omega, side=side)
        assert abs(closed - quad) / abs(closed) < 1e-6


def test_bubble_positivity_scan_and_gain_flip():
    omegas = np.linspace(-4, 4, 41)
    for side in ("A", "R"):
        vals = [bubble_positivity(EPS[0], EPS[1], w, side=side) for w in omegas]
        assert min(vals) >= 0.0
    flipped = np.conj(EPS[1])  # gain on level m
    vals = [bubble_positivity(EPS[0], flipped, w, side="A") for w in omegas]
    assert min(vals) < 0.0


@given(e_n=st.floats(-5.0, 5.0), e_m=st.floats(-5.0, 5.0),
       s_n=st.one_of(st.just(0.0), st.floats(0.05, 3.0)), s_m=st.floats(0.05, 3.0),
       omega=st.floats(-10.0, 10.0), noise_sign=st.sampled_from([1.0, -1.0]))
@example(e_n=1.0, e_m=-0.4, s_n=0.0, s_m=0.3, omega=0.0, noise_sign=1.0)
def test_bubble_positivity_is_lorentzian_for_decaying_levels(e_n, e_m, s_n, s_m, omega,
                                                             noise_sign):
    # the identity behind the batched positivity scan of ``nhgeo lindblad-check``;
    # an undamped level n (s_n = 0) is the one-sided limit s_n -> 0+ on both sides
    eps_n, eps_m = complex(e_n, -s_n), e_m - 1j * s_m
    ref = noise_sign * 2.0 * np.pi**2 * lorentzian_kernel(e_m - e_n, 0.0, s_n + s_m, omega)
    for side in ("A", "R"):
        q = bubble_positivity(eps_n, eps_m, omega, side=side,
                              sigma_k_m=noise_sign * 2j * np.imag(eps_m))
        assert q == pytest.approx(ref, rel=1e-13, abs=0.0)


def test_bubble_matrix_pole_on_axis():
    # undamped levels hit on resonance: a typed error, not nan
    with pytest.raises(PoleOnAxisError):
        bubble_matrix(np.array([1.0, -1.0]), (SX,), 2.0)


def test_bubble_requires_decay():
    with pytest.raises(NonIntegrableError):
        bubble_h(EPS[0], 1.0 + 0.0j, 0.5)


@pytest.mark.parametrize("side", ["A", "R"])
@pytest.mark.parametrize("fn", [bubble_h, bubble_positivity])
@pytest.mark.parametrize("args, kwargs", [
    ((np.nan, EPS[1], 0.5), {}),
    ((complex(0.8, np.inf), EPS[1], 0.5), {}),
    ((EPS[0], complex("nan"), 0.5), {}),
    ((EPS[0], EPS[1], np.nan), {}),
    ((EPS[0], EPS[1], np.inf), {}),
    ((EPS[0], EPS[1], 0.5), {"sigma_k_m": complex(np.nan, 1.0)}),
], ids=["eps_n-nan", "eps_n-inf", "eps_m-nan", "omega-nan", "omega-inf", "sigma-nan"])
def test_bubble_non_finite_input_is_typed(fn, args, kwargs, side):
    # neither a NaN, a RuntimeWarning, a -0.0 for omega = inf nor an
    # "Im eps_m = 0" NonIntegrableError for a NaN level
    with pytest.raises(NonFiniteError):
        fn(*args, side=side, **kwargs)


def test_bubble_large_levels_stay_finite_and_overflow_is_typed():
    # the vacuum weight over |Im eps_m| is 2 exactly, so levels near 1e300 are finite
    got = bubble_h(1.0, 1e300 - 1e300j, 0.0)
    assert got == pytest.approx(2j * np.pi / (1.0 - (1e300 - 1e300j)), rel=1e-15)
    with pytest.raises(NonFiniteError):
        bubble_h(1.0, 1.0 - 1e-13j, 0.0, sigma_k_m=1e300j)


@settings(max_examples=40)
@given(e_n=st.floats(-5.0, 5.0), e_m=st.floats(-5.0, 5.0),
       s_n=st.one_of(st.just(0.0), st.floats(0.05, 3.0)), s_m=st.floats(0.05, 3.0),
       n_gains=st.booleans(), m_gains=st.booleans(), omega=st.floats(-10.0, 10.0),
       side=st.sampled_from(["A", "R"]), noise_sign=st.sampled_from([1.0, -1.0]))
# an undamped level n: the oracle's principal value plus the one-sided residue
# (a quadrature through the pole read 5.7417i on both sides)
@example(e_n=1.0, e_m=-0.4, s_n=0.0, s_m=0.3, n_gains=False, m_gains=False, omega=0.0,
         side="A", noise_sign=1.0)
@example(e_n=1.0, e_m=-0.4, s_n=0.0, s_m=0.3, n_gains=False, m_gains=False, omega=0.0,
         side="R", noise_sign=1.0)
def test_bubble_matches_quadrature_in_either_half_plane(e_n, e_m, s_n, s_m, n_gains,
                                                        m_gains, omega, side, noise_sign):
    # gain levels (Im eps > 0) and undamped levels n included; the oracle agrees
    # to ~1e-7
    eps_n = complex(e_n, s_n if n_gains else -s_n)
    eps_m = complex(e_m, s_m if m_gains else -s_m)
    sigma = noise_sign * 2j * eps_m.imag
    closed = bubble_h(eps_n, eps_m, omega, side=side, sigma_k_m=sigma)
    quad = bubble_h_quadrature(eps_n, eps_m, omega, side=side, sigma_k_m=sigma)
    assert abs(closed - quad) <= 1e-6 * abs(closed)


def test_polarization_closed_vs_quadrature():
    for omega in (0.0, 0.8, 2.3):
        closed = bubble_matrix(EPS, (SX, SY), omega)[0, 1]
        quad = polarization_bubble_quadrature(EPS, SX, SY, omega)
        assert abs(closed - quad) / max(abs(closed), 1e-12) < 1e-6


def test_polarization_absorptive_is_lorentzian():
    # pi^abs == (pi/2) sum_nm L_nm(omega) O^i_nm O^j_mn elementwise
    omega = 0.9
    e = np.real(EPS)
    s = -np.imag(EPS)
    for ops in ((SX, SX), (SX, SY)):
        pi = bubble_matrix(EPS, ops, omega)
        p_ij, p_ji = pi[0, 1], pi[1, 0]
        pabs = (p_ij - np.conj(p_ji)) / 2j
        direct = 0.0 + 0.0j
        for n in range(2):
            for m in range(2):
                kern = (s[n] + s[m]) / np.pi / ((e[n] - e[m] - omega) ** 2
                                                + (s[n] + s[m]) ** 2)
                direct += 0.5 * np.pi * kern * ops[0][n, m] * ops[1][m, n]
        npt.assert_allclose(pabs, direct, atol=1e-13)


def test_polarization_identity_operator_diagonal():
    # O = 1 keeps only the n = m terms
    omega = 0.6
    full = bubble_matrix(EPS, (np.eye(2),), omega)[0, 0]
    e = np.real(EPS)
    s = -np.imag(EPS)
    diag = sum(-0.5 / (0.0 - omega + 2j * s[n]) for n in range(2))
    npt.assert_allclose(full, diag, atol=1e-13)


def test_bubble_absorptive_psd_and_gain_control():
    omegas = np.linspace(-3.5, 3.5, 29)
    for w in omegas:
        pi = bubble_matrix(EPS, (SX, SY), w)
        pabs = (pi - pi.conj().T) / 2j
        assert np.min(np.linalg.eigvalsh(pabs)) >= -1e-10
    # gain strong enough that the interband S''_nm = s_n + s_m goes negative
    gained = np.array([0.8 + 0.6j, EPS[1]])
    mins = []
    for w in omegas:
        pi = bubble_matrix(gained, (SX, SY), w)
        pabs = (pi - pi.conj().T) / 2j
        mins.append(np.min(np.linalg.eigvalsh(pabs)))
    assert min(mins) < -1e-6


def test_full_response_is_reactive():
    # the omega-symmetrized combination has no absorptive part left
    pi = bubble_matrix(EPS, (SX, SY), 0.9) + np.conj(bubble_matrix(EPS, (SX, SY), -0.9))
    npt.assert_allclose(pi, pi.conj().T, atol=1e-13)


def test_vector_jump_reduces_to_commuting():
    # (1/2) sum_nm O^i_nm O^j_mn / (eps_n^* - eps_m - Omega) is the sign=-1 bubble
    for omega in (0.0, 1.1):
        vj = 0.5 * sum(SX[n, m] * SY[m, n] / (np.conj(EPS[n]) - EPS[m] - omega)
                       for n in range(2) for m in range(2))
        closed = bubble_matrix(EPS, (SX, SY), omega, sign=-1)[0, 1]
        npt.assert_allclose(vj, closed, atol=1e-13)


def test_vector_jump_hermitian_limit():
    # infinitesimal decay reproduces the textbook zero-temperature bubble
    tiny = 1e-6
    eps = np.array([0.8 - 1j * tiny, -0.6 - 1j * tiny])
    omega = 0.3
    vj = bubble_matrix(eps, (SX, SY), omega, sign=-1)[0, 1]
    e = np.real(eps)
    direct = 0.5 * sum(SX[n, m] * SY[m, n] / (e[n] - e[m] - omega + 2j * tiny)
                       for n in range(2) for m in range(2))
    npt.assert_allclose(vj, direct, atol=1e-9)


def test_vector_jump_on_dissipative_lattice_model():
    # single-vector-jump lattice model: biorthogonal current elements,
    # regularized spectrum, smooth response along a frequency sweep
    from nhgeo.models import BlochModel, RMParams
    from nhgeo.spectra import eigensystem_two_band, matrix_elements

    model = BlochModel.rice_mele(RMParams(gamma=1.0, variant="supplemental"))
    kx, ky = np.asarray(0.7), np.asarray(-1.3)
    spec = decompose_antihermitian(-0.5 * 1.0 * SIGMA_Y)
    h_eff = model.hamiltonian(kx, ky) + spec.identity_shift * np.eye(2)
    eig = eigensystem_two_band(h_eff)
    assert np.all(np.imag(eig.energies) <= 1e-12)  # regularizer: all decay
    ops = [matrix_elements(eig.left, model.derivative(kx, ky, ax), eig.right)
           for ax in (0, 1)]
    sweep = bubble_matrix(eig.energies, ops, np.linspace(-6, 6, 121), sign=-1)[:, 0, 1]
    assert np.all(np.isfinite(sweep))
    assert np.max(np.abs(np.diff(sweep))) < 0.5  # smooth, no near-axis poles


def test_vector_jump_poles_off_axis(rng):
    # all resolvent denominators keep |Im| >= total decay for gamma > 0
    eps = np.array([0.8 - 0.25j, -0.6 - 0.4j])
    omegas = rng.uniform(-5, 5, size=50)
    denoms = np.conj(eps)[:, None] - eps[None, :]
    min_im = np.min(np.abs(np.imag(denoms)))
    assert min_im >= 2 * 0.25 - 1e-12
    vals = bubble_matrix(eps, (SX, SY), omegas, sign=-1)[:, 0, 1]
    assert np.all(np.isfinite(vals))
