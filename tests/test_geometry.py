import sys

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import assume, given, strategies as st

from conftest import (NEAR_EP_EXPONENTS, NEAR_EP_REJECTED, hermitian_qgt,
                      locked_fd_qgt_general, locked_fd_ray_qgt_general, near_ep_matrix,
                      random_three_band_model, smooth_gauge)
from nhgeo import geometry
from nhgeo.errors import (ConfigError, ExceptionalPointError, IllConditionedError,
                          NHGeoError, NonConvergenceError, NonFiniteError)
from nhgeo.models import BlochModel, bz_mesh, pauli_matrix
from nhgeo.geometry import (anomalous_connection, anomalous_divergence_integral,
                            berry_curvature_lr, compute_geometry, pseudospin_geometry,
                            qgt_ll, qgt_lr, qgt_rl_from_lr, qgt_rr, scan_geometry,
                            velocity_matrices)
from nhgeo.oracles import finite_difference_connection, finite_difference_qgt
from nhgeo.response import optical_weight_bz
from nhgeo.spectra import eigensystem_general, eigensystem_two_band, gauge_rescale
from nhgeo.topology import chern_plaquette

SAMPLE_K = [(np.pi / 2, np.pi / 2), (0.7, -1.3), (-2.1, 0.4), (1.9, 2.5)]


def _eig_v(model, kx, ky, ordering="branch"):
    kx = np.asarray(kx, dtype=float)
    ky = np.asarray(ky, dtype=float)
    eig = eigensystem_two_band(model.hamiltonian(kx, ky), ordering=ordering)
    return eig, velocity_matrices(eig, model.derivative(kx, ky, 0),
                                  model.derivative(kx, ky, 1))


# -- Hermitian limit ----------------------------------------------------------

def test_all_qgts_coincide_hermitian(hermitian_model, rng):
    for kx, ky in SAMPLE_K:
        # im-ordering ties break by ascending Re, matching eigh band order
        eig, v = _eig_v(hermitian_model, kx, ky, ordering="im")
        ref = hermitian_qgt(hermitian_model.hamiltonian(kx, ky),
                            hermitian_model.derivative(kx, ky, 0),
                            hermitian_model.derivative(kx, ky, 1), band=0)
        q_lr = qgt_lr(eig, v, band=0)
        npt.assert_allclose(q_lr, ref, atol=1e-10)
        npt.assert_allclose(qgt_rl_from_lr(q_lr), ref, atol=1e-10)
        npt.assert_allclose(qgt_rr(eig, v, band=0), ref, atol=1e-10)
        npt.assert_allclose(qgt_ll(eig, v, band=0), ref, atol=1e-10)


def test_anomalous_vanishes_hermitian(hermitian_model):
    for kx, ky in SAMPLE_K:
        eig, v = _eig_v(hermitian_model, kx, ky)
        for side in ("R", "L"):
            assert np.max(np.abs(anomalous_connection(eig, v, band=0, side=side))) < 1e-12


# -- oracle agreement ---------------------------------------------------------

@pytest.mark.parametrize("pair", ["lr", "rl", "rr", "ll"])
def test_qgt_matches_fd_oracle(rm_model, pair):
    for kx, ky in SAMPLE_K:
        eig, v = _eig_v(rm_model, kx, ky)
        closed = {
            "lr": qgt_lr(eig, v, band=0),
            "rl": qgt_rl_from_lr(qgt_lr(eig, v, band=0)),
            "rr": qgt_rr(eig, v, band=0),
            "ll": qgt_ll(eig, v, band=0),
        }[pair]
        fd = finite_difference_qgt(rm_model, kx, ky, band=0, pair=pair, h=1e-4)
        assert np.max(np.abs(closed - fd)) < 1e-6


def test_oracle_error_scales_h2(rm_model):
    kx, ky = 0.7, -1.3
    eig, v = _eig_v(rm_model, kx, ky)
    closed = qgt_lr(eig, v, band=0)
    e1 = np.max(np.abs(finite_difference_qgt(rm_model, kx, ky, pair="lr", h=2e-3) - closed))
    e2 = np.max(np.abs(finite_difference_qgt(rm_model, kx, ky, pair="lr", h=1e-3) - closed))
    assert 3.0 < e1 / e2 < 5.0


def test_connection_matches_fd_oracle(rm_model):
    for kx, ky in SAMPLE_K[:2]:
        eig, v = _eig_v(rm_model, kx, ky)
        for side in ("R", "L"):
            closed = anomalous_connection(eig, v, band=0, side=side)
            fd = finite_difference_connection(rm_model, kx, ky, band=0, side=side, h=1e-4)
            assert np.max(np.abs(closed - fd)) < 1e-6


def test_multiband_matches_fd_oracle_three_band():
    h_func, dh_func = random_three_band_model()
    kx, ky = 0.9, -1.7
    eig = eigensystem_general(h_func(kx, ky))
    v = velocity_matrices(eig, dh_func(kx, ky, 0), dh_func(kx, ky, 1))
    closed = qgt_lr(eig, v, band=0)
    fd = locked_fd_qgt_general(h_func, kx, ky, band=0, step=1e-5)
    assert np.max(np.abs(closed - fd)) < 1e-6


@pytest.mark.parametrize("band", [0, 1, 2])
def test_rr_ll_match_ray_oracle_three_band(band):
    # the Schur-weight RR/LL forms away from the Hermitian limit at N > 2
    h_func, dh_func = random_three_band_model()
    kx, ky = 0.9, -1.7
    eig = eigensystem_general(h_func(kx, ky))
    v = velocity_matrices(eig, dh_func(kx, ky, 0), dh_func(kx, ky, 1))
    for pair, closed in (("rr", qgt_rr(eig, v, band=band)),
                         ("ll", qgt_ll(eig, v, band=band))):
        fd = locked_fd_ray_qgt_general(h_func, kx, ky, band=band, pair=pair, step=1e-5)
        assert np.max(np.abs(closed - fd)) < 1e-6


def test_multiband_occupied_set_three_band():
    # two occupied bands: only the unoccupied band enters the resolvent sum
    h_func, dh_func = random_three_band_model()
    kx, ky = 0.9, -1.7
    eig = eigensystem_general(h_func(kx, ky))
    v = velocity_matrices(eig, dh_func(kx, ky, 0), dh_func(kx, ky, 1))
    closed = qgt_lr(eig, v, band=0, occupied={0, 1})
    fd = locked_fd_qgt_general(h_func, kx, ky, band=0, step=1e-5,
                               occupied={0, 1})
    assert np.max(np.abs(closed - fd)) < 1e-6
    with pytest.raises(ValueError):
        qgt_lr(eig, v, band=2, occupied={0, 1})


# -- structural identities ----------------------------------------------------

def test_rl_is_conjugate_transpose_and_involution(rm_model):
    eig, v = _eig_v(rm_model, 0.7, -1.3)
    q_lr = qgt_lr(eig, v, band=0)
    q_rl = qgt_rl_from_lr(q_lr)
    npt.assert_allclose(q_rl, np.conj(q_lr.T), atol=0)
    npt.assert_allclose(qgt_rl_from_lr(q_rl), q_lr, atol=0)


def test_rr_ll_psd_random_vectors(rm_model, rng):
    for kx, ky in SAMPLE_K:
        eig, v = _eig_v(rm_model, kx, ky)
        for q in (qgt_rr(eig, v, band=0), qgt_ll(eig, v, band=0)):
            tr = np.real(np.trace(q))
            v = rng.normal(size=(100, 2)) + 1j * rng.normal(size=(100, 2))
            quad = np.real(np.einsum("vi,ij,vj->v", np.conj(v), q, v))
            assert np.min(quad) >= -1e-12 * tr * np.max(np.abs(v)) ** 2


def test_multiband_hermitian_three_band(rng):
    h = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    h = h + h.conj().T
    dhx = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    dhx = dhx + dhx.conj().T
    dhy = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    dhy = dhy + dhy.conj().T
    eig = eigensystem_general(h)
    ref = hermitian_qgt(h, dhx, dhy, band=1)
    v = velocity_matrices(eig, dhx, dhy)
    npt.assert_allclose(qgt_rr(eig, v, band=1), ref, atol=1e-9)
    npt.assert_allclose(qgt_ll(eig, v, band=1), ref, atol=1e-9)


def test_curvature_from_antisymmetrized_lr(rm_model):
    eig, v = _eig_v(rm_model, 0.7, -1.3)
    q_lr = qgt_lr(eig, v, band=0)
    f = berry_curvature_lr(q_lr)
    npt.assert_allclose(f, 1j * (q_lr[0, 1] - q_lr[1, 0]), atol=0)
    # projector-term cancellation: matches the eigenvector-derivative oracle
    fd = finite_difference_qgt(rm_model, 0.7, -1.3, pair="lr", h=1e-4)
    npt.assert_allclose(f, 1j * (fd[0, 1] - fd[1, 0]), atol=1e-6)


def test_flat_model_zero_curvature():
    m = BlochModel.constant(np.diag([1.0, 2.0 - 0.5j]))
    eig, v = _eig_v(m, 0.3, 0.4)
    npt.assert_allclose(berry_curvature_lr(qgt_lr(eig, v, band=0)), 0.0)


# -- gauge invariance ---------------------------------------------------------

def test_geometry_gauge_invariance(rm_model):
    kxg, kyg = bz_mesh(16, 16)
    eig, dhx, dhy = (eigensystem_two_band(rm_model.hamiltonian(kxg, kyg),
                                          ordering="branch"),
                     rm_model.derivative(kxg, kyg, 0),
                     rm_model.derivative(kxg, kyg, 1))
    gauged = gauge_rescale(eig, smooth_gauge(seed=3)(kxg, kyg))
    for band in (0, 1):
        base = compute_geometry(eig, dhx, dhy, band=band)
        mod = compute_geometry(gauged, dhx, dhy, band=band)
        for a, b in zip(base, mod):
            scale = np.maximum(np.abs(a), 1.0)
            assert np.max(np.abs(a - b) / scale) < 1e-10
        npt.assert_allclose(gauged.norm_product(band), eig.norm_product(band), rtol=1e-10)


def test_norm_product_at_least_one(rm_model, hermitian_model):
    kxg, kyg = bz_mesh(16, 16)
    eig = eigensystem_two_band(rm_model.hamiltonian(kxg, kyg), ordering="branch")
    assert np.min(eig.norm_product(0)) >= 1.0 - 1e-12
    eig_h = eigensystem_two_band(hermitian_model.hamiltonian(kxg, kyg))
    npt.assert_allclose(eig_h.norm_product(0), 1.0, atol=1e-12)


# -- grids --------------------------------------------------------------------

def test_scan_geometry_single_point(rm_model):
    grid = scan_geometry(rm_model, nx=1, ny=1)
    assert grid.shape == (1, 1)
    assert np.isfinite(grid.curvature_lr[0, 0])
    assert grid.kx[0, 0] == -np.pi and grid.band == 0
    assert grid.norm_product[0, 0] >= 1.0


def test_scan_deterministic_across_workers(rm_model):
    a = scan_geometry(rm_model, nx=12, workers=1)
    b = scan_geometry(rm_model, nx=12, workers=4)
    npt.assert_array_equal(a.qgt_lr, b.qgt_lr)
    npt.assert_array_equal(a.curvature_lr, b.curvature_lr)
    npt.assert_array_equal(a.norm_product, b.norm_product)


def test_scan_chunks_match_full_mesh_for_any_workers(rm_model, monkeypatch):
    # two kx rows per chunk: six chunks on the 11 x 5 mesh, the last one row
    monkeypatch.setattr(geometry, "CHUNK_POINTS", 10)
    kx, ky = bz_mesh(11, 5)
    full = pseudospin_geometry(rm_model.hamiltonian(kx, ky), rm_model.derivative(kx, ky, 0),
                               rm_model.derivative(kx, ky, 1))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # interleave the chunk threads as often as possible
    try:
        grids = [scan_geometry(rm_model, nx=11, ny=5, workers=w) for w in (1, 2, 3)]
    finally:
        sys.setswitchinterval(interval)
    for grid in grids:
        for name, ref in zip(geometry.FIELDS, full):
            npt.assert_array_equal(getattr(grid, name), ref)


_PART = st.floats(-2.0, 2.0).map(lambda v: round(v, 3))
_VEC = st.tuples(*[st.builds(complex, _PART, _PART)] * 3)


@given(d=_VEC, a_x=_VEC, a_y=_VEC, c=st.builds(complex, _PART, _PART),
       dc=st.builds(complex, _PART, _PART), band=st.sampled_from([0, 1]))
def test_pseudospin_kernel_matches_eigenvector_route(d, a_x, a_y, c, dc, band):
    d = np.array(d)
    # away from exceptional points: both routes lose ~1e-16 N^2 near them
    assume(abs(d @ d) > 0.0 and np.vdot(d, d).real / abs(d @ d) < 100.0)
    h = (pauli_matrix(d) + c * np.eye(2))[None]
    dhx = (pauli_matrix(np.array(a_x)) + dc * np.eye(2))[None]
    dhy = pauli_matrix(np.array(a_y))[None]
    fields = pseudospin_geometry(h, dhx, dhy, band=band)
    eig = eigensystem_two_band(h, ordering="branch")
    ref = compute_geometry(eig, dhx, dhy, band=band) + (eig.norm_product(band),)
    # relative to each array's max; the connections and the curvature are
    # floored at the tensor scale, since for a real d they are pure roundoff
    tensor = max(np.max(np.abs(q)) for q in ref[:4])
    floors = (0.0,) * 4 + (np.sqrt(tensor),) * 2 + (tensor, 0.0)
    for name, value, want, floor in zip(geometry.FIELDS, fields, ref, floors):
        assert value.shape == want.shape, name
        assert np.max(np.abs(value - want)) <= 1e-12 * max(np.max(np.abs(want)), floor), name
    for q in fields[2:4]:
        assert np.array_equal(q, np.conj(np.swapaxes(q, -1, -2)))


@pytest.mark.parametrize("exponent", NEAR_EP_EXPONENTS)
def test_near_ep_sweep_typed_error_where_eigenvector_route_rejects(exponent):
    model = BlochModel.constant(near_ep_matrix(10.0 ** -exponent))
    kx, ky = bz_mesh(4, 4)
    h = model.hamiltonian(kx, ky)
    if exponent in NEAR_EP_REJECTED:
        with pytest.raises(NHGeoError):
            eigensystem_two_band(h)
    if 10.0 ** exponent / 4 > geometry.NORM_PRODUCT_LIMIT:  # norm product ~1/(4 delta)
        with pytest.raises(IllConditionedError, match="norm product"):
            scan_geometry(model, nx=4)
    else:
        grid = scan_geometry(model, nx=4)
        npt.assert_allclose(grid.norm_product, eigensystem_two_band(h).norm_product(0))


def test_scan_cross_check_catches_a_kernel_error(rm_model, monkeypatch):
    kernel = geometry.pseudospin_geometry

    def skewed(h, dhx, dhy, band=0):
        fields = kernel(h, dhx, dhy, band=band)
        fields[2][0, 3] *= 1.0 + 1e-9  # one point of the chunk's first kx row
        return fields

    monkeypatch.setattr(geometry, "pseudospin_geometry", skewed)
    with pytest.raises(NonConvergenceError, match="qgt_rr"):
        scan_geometry(rm_model, nx=8)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_scan_non_finite_hamiltonian_is_typed(rm_model):
    def ham(kx, ky):
        h = rm_model.hamiltonian(kx, ky)
        return np.where(np.isclose(kx, 0.0)[..., None, None], np.nan, h)

    with pytest.raises(NonFiniteError):
        scan_geometry(BlochModel(2, ham, rm_model.derivative), nx=8)


def test_scan_collects_exceptional_points(monkeypatch):
    # d.d = (1 - cos ky)^2 vanishes on the whole mesh line ky = 0, which
    # crosses all four two-row chunks
    monkeypatch.setattr(geometry, "CHUNK_POINTS", 16)
    m = BlochModel.pseudospin(
        lambda kx, ky: np.stack([np.sin(kx) + 0j, 1j * np.sin(kx),
                                 1.0 - np.cos(ky) + 0j], axis=-1))
    with pytest.raises(ExceptionalPointError) as err:
        scan_geometry(m, nx=8, workers=2)
    kx, _ = bz_mesh(8, 8)
    assert err.value.points == [(float(k), 0.0) for k in kx[:, 0]]


@pytest.mark.parametrize("workers", [0, -1])
def test_scan_rejects_workers_below_one(rm_model, workers):
    with pytest.raises(ConfigError, match="workers"):
        scan_geometry(rm_model, nx=8, workers=workers)


@pytest.mark.parametrize("call", [
    lambda m, n: scan_geometry(m, nx=n),
    lambda m, n: scan_geometry(m, nx=8, ny=n),
    lambda m, n: chern_plaquette(m, n_grid=n),
    lambda m, n: optical_weight_bz(m, n_grid=n),
], ids=["scan_nx", "scan_ny", "chern_plaquette", "optical_weight_bz"])
@pytest.mark.parametrize("n", [0, -3])
def test_mesh_size_below_one_is_config_error(rm_model, call, n):
    with pytest.raises(ConfigError, match="mesh size"):
        call(rm_model, n)


def test_curvature_integral_convergence(rm_model):
    vals = []
    for n in (24, 48):
        grid = scan_geometry(rm_model, nx=n)
        vals.append(np.sum(grid.curvature_lr) * grid.cell_area() / (2 * np.pi))
    assert abs(vals[1] - vals[0]) < 1e-4
    assert abs(np.imag(vals[1])) < 1e-10


def test_divergence_lemma_decreases(rm_model):
    mags = [abs(anomalous_divergence_integral(rm_model, n_grid=n))
            for n in (16, 32, 64)]
    assert mags[1] < mags[0] and mags[2] < mags[1]
    assert mags[2] < 1e-3
