import numpy as np
import numpy.testing as npt
import pytest

from conftest import random_three_band_model
from nhgeo.bounds import (check_absorptive_psd, check_chern_chain,
                          check_local_curvature_bound, check_optical_weight_bound,
                          check_psd, check_qgt_inequality,
                          hermitian_min_eigenvalue)
from nhgeo.errors import BranchViolationError, NonFiniteError, NonHermitianInputError
from nhgeo.geometry import (GeometryGrid, anomalous_connection, berry_curvature_lr, qgt_ll,
                            qgt_lr, qgt_rl_from_lr, qgt_rr, scan_geometry,
                            velocity_matrices)
from nhgeo.models import BlochModel, RMParams
from nhgeo.response import absorptive_part, lehmann_correlator
from nhgeo.spectra import eigensystem_general
from nhgeo.topology import compute_chern


@pytest.fixture(scope="module")
def rm_grid():
    model = BlochModel.rice_mele(RMParams(gamma=1.0, variant="supplemental"))
    return scan_geometry(model, band=0, nx=64)


def test_local_curvature_bound_passes(rm_grid):
    rep = check_local_curvature_bound(rm_grid)
    assert rep.passed
    assert rep.worst_margin >= -1e-9
    # bound saturates along the zone boundary, doubles on the frame lines
    assert rep.extra["max_ratio_edge"] >= 1.9
    assert rep.extra["max_ratio_global"] >= rep.extra["max_ratio_edge"]


def test_local_curvature_hermitian(hermitian_model):
    grid = scan_geometry(hermitian_model, band=0, nx=32)
    rep = check_local_curvature_bound(grid)
    assert rep.passed


def test_local_curvature_negative_control(rm_grid, monkeypatch):
    # the curvature is a read-only function of qgt_lr: triple it on the class
    monkeypatch.setattr(GeometryGrid, "curvature_lr",
                        property(lambda grid: 3.0 * berry_curvature_lr(grid.qgt_lr)))
    rep = check_local_curvature_bound(rm_grid)
    assert not rep.passed


def test_qgt_inequality_passes(rm_grid):
    rep = check_qgt_inequality(rm_grid)
    assert rep.passed
    assert rep.worst_margin >= -1e-10


def test_qgt_inequality_hermitian_reduces_to_cauchy_schwarz(hermitian_model):
    grid = scan_geometry(hermitian_model, band=0, nx=24)
    npt.assert_allclose(grid.norm_product, 1.0, atol=1e-10)
    rep = check_qgt_inequality(grid)
    assert rep.passed


def test_qgt_inequality_ablation_two_band(rm_grid):
    # two-band ablated relation is exactly saturated: computed margins
    # straddle zero, so rounding must produce at least one strict failure
    rep = check_qgt_inequality(rm_grid, ablation=True, tolerance=0.0)
    assert rep.worst_margin < 0.0
    assert not rep.passed
    # ... while staying at noise level (the factor carries all the slack)
    assert rep.worst_margin > -1e-9


def test_qgt_inequality_ablation_three_band(rng):
    # genuine necessity at N = 3: the ablated bound fails by O(1)
    h_func, dh_func = random_three_band_model()
    worst_full = np.inf
    worst_ablated = np.inf
    for kx, ky in rng.uniform(-np.pi, np.pi, size=(40, 2)):
        eig = eigensystem_general(h_func(kx, ky))
        dhx, dhy = dh_func(kx, ky, 0), dh_func(kx, ky, 1)
        v = velocity_matrices(eig, dhx, dhy)
        q_rl = qgt_rl_from_lr(qgt_lr(eig, v, band=0))
        rr = np.real(np.diag(qgt_rr(eig, v, band=0)))
        ll = np.real(np.diag(qgt_ll(eig, v, band=0)))
        a_r = anomalous_connection(eig, v, band=0, side="R")
        a_l = anomalous_connection(eig, v, band=0, side="L")
        n_fac = eig.norm_product(0)
        for mu in range(2):
            for nu in range(2):
                lhs = abs(q_rl[mu, nu]) ** 2
                prod = (rr[mu] + abs(a_r[mu]) ** 2) * (ll[nu] + abs(a_l[nu]) ** 2)
                scale = max(lhs, prod)
                worst_full = min(worst_full, (n_fac * prod - lhs) / scale)
                worst_ablated = min(worst_ablated, (prod - lhs) / scale)
    assert worst_full >= -1e-10
    assert worst_ablated < -1e-3


def test_psd_identity():
    rep = check_psd(np.eye(2)[None])
    assert rep.passed
    npt.assert_allclose(rep.margin, [1.0])


def test_psd_grid(rm_grid):
    for q, name in ((rm_grid.qgt_rr, "PSD_RR"), (rm_grid.qgt_ll, "PSD_LL")):
        rep = check_psd(q, name=name)
        assert rep.passed
        assert rep.worst_margin >= -1e-12


def test_psd_negative_control():
    rep = check_psd(np.diag([1.0, -1.0])[None])
    assert not rep.passed
    npt.assert_allclose(rep.margin, [-1.0])


def test_nan_margin_is_numerical_error():
    # a NaN margin is a numerical failure (exit 3), never a FAIL (exit 4)
    q = np.eye(2, dtype=complex)[None].repeat(3, axis=0)
    q[1, 0, 0] = np.nan
    with pytest.raises(NonFiniteError):
        check_psd(q)
    with pytest.raises(NonFiniteError):
        check_optical_weight_bound(np.nan, 1, -0.5)


def test_psd_rejects_non_hermitian():
    with pytest.raises(NonHermitianInputError):
        check_psd(np.array([[[0.0, 1.0], [0.0, 0.0]]]))


def test_hermitian_min_eigenvalue_closed_form(rng):
    for _ in range(20):
        m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        m = m + m.conj().T
        npt.assert_allclose(hermitian_min_eigenvalue(m),
                            np.linalg.eigvalsh(m)[0], atol=1e-12)


def test_chern_chain(rm_model):
    res = compute_chern(rm_model, band=0, n_plaquette=32, n_curvature=64)
    rep = check_chern_chain(res)
    assert rep.passed


def test_chern_chain_trivial():
    m = BlochModel.rice_mele(RMParams(gamma=1.0, dz_offset=10.0,
                                      variant="supplemental"))
    res = compute_chern(m, band=0, n_plaquette=24, n_curvature=32)
    assert res.chern_plaquette == 0
    assert check_chern_chain(res).passed


def test_chern_chain_grid_consistency(rm_model):
    res_a = compute_chern(rm_model, band=0, n_plaquette=32, n_curvature=101)
    res_b = compute_chern(rm_model, band=0, n_plaquette=32, n_curvature=201)
    for attr in ("curvature_abs_integral", "qgt_bound_integral"):
        a, b = getattr(res_a, attr), getattr(res_b, attr)
        assert abs(a - b) / abs(b) < 0.01


def test_chern_chain_negative_control(rm_model):
    res = compute_chern(rm_model, band=0, n_plaquette=24, n_curvature=32)
    import dataclasses
    bad = dataclasses.replace(res, qgt_bound_integral=0.1)
    assert not check_chern_chain(bad).passed


def _toy_levels(gain=False):
    """(energies, operators) of a two-level toy instance."""
    energies = np.array([1.0 - 0.2j, -1.0 - 0.3j])
    if gain:
        energies = np.array([1.0 + 0.4j, -1.0 - 0.3j])
    sx = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    sy = np.array([[0.0, -1.0j], [1.0j, 0.0]])
    return energies, (sx, sy)


def test_absorptive_psd_passes():
    omegas = np.linspace(-4.0, 4.0, 61)
    pi = lehmann_correlator(*_toy_levels(), np.array([0.7, 0.3]), omegas)
    rep = check_absorptive_psd(omegas, absorptive_part(pi))
    assert rep.passed
    assert rep.worst_margin >= -1e-10
    assert "re_minus_abs_im" in rep.extra
    # the recorded off-diagonal combination matches its definition
    pa = absorptive_part(pi)
    npt.assert_allclose(rep.extra["re_minus_abs_im"],
                        np.real(pa[..., 0, 1]) - np.abs(np.imag(pa[..., 0, 1])))


def test_absorptive_psd_gain_fails():
    omegas = np.linspace(-4.0, 4.0, 61)
    pi = lehmann_correlator(*_toy_levels(gain=True), np.array([0.7, 0.3]), omegas)
    rep = check_absorptive_psd(omegas, absorptive_part(pi))
    assert not rep.passed


def test_absorptive_single_transition_rank_one():
    omegas = np.array([0.9, 2.0])
    pi = lehmann_correlator(*_toy_levels(), np.array([1.0, 0.0]), omegas)
    pa = absorptive_part(pi)
    # one initial level, off-diagonal-only operators: exactly rank one
    dets = np.linalg.det(pa)
    npt.assert_allclose(dets, 0.0, atol=1e-14)
    assert check_absorptive_psd(omegas, pa).passed


def test_optical_weight_report():
    rep = check_optical_weight_bound(20.0, 1, -0.5)
    assert rep.passed
    npt.assert_allclose(rep.lhs, [np.pi - 0.5])
    npt.assert_allclose(rep.rhs, [20.0 / (2 * np.pi)])
    bad = check_optical_weight_bound(1.0, 1, -0.5)
    assert not bad.passed


def test_optical_weight_branch_violation():
    with pytest.raises(BranchViolationError):
        check_optical_weight_bound(10.0, 1, 0.5)
    with pytest.raises(BranchViolationError):
        check_optical_weight_bound(10.0, 1, -4.0)


def test_reports_are_reproducible(rm_grid):
    a = check_local_curvature_bound(rm_grid)
    b = check_local_curvature_bound(rm_grid)
    npt.assert_array_equal(a.margin, b.margin)
    assert a.worst_margin == b.worst_margin
