import dataclasses

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import assume, example, given, strategies as st

from conftest import (NEAR_EP_EXPONENTS, NEAR_EP_REJECTED, count_model_calls, hermitian_qgt,
                      locked_fd_qgt_general, locked_fd_ray_qgt_general, near_ep_matrix,
                      random_three_band_model, smooth_gauge)
from nhgeo import geometry, tolerances
from nhgeo.errors import (ConfigError, ExceptionalPointError, GaugeLockError,
                          IllConditionedError, NHGeoError, NonConvergenceError,
                          NonFiniteError)
from nhgeo.models import BlochModel, bz_mesh, pauli_matrix
from nhgeo.geometry import (anomalous_connection, anomalous_divergence_integral,
                            berry_curvature_lr, compute_geometry, pseudospin_geometry,
                            qgt_ll, qgt_lr, qgt_rl_from_lr, qgt_rr, scan_geometry,
                            velocity_matrices)
from nhgeo.oracles import finite_difference_connection, finite_difference_qgt
from nhgeo.response import optical_weight_bz
from nhgeo.spectra import eigensystem_general, eigensystem_two_band, gauge_rescale
from nhgeo.topology import chern_plaquette, compute_chern

SAMPLE_K = [(np.pi / 2, np.pi / 2), (0.7, -1.3), (-2.1, 0.4), (1.9, 2.5)]


def _eig_v(model, kx, ky):
    kx = np.asarray(kx, dtype=float)
    ky = np.asarray(ky, dtype=float)
    eig = eigensystem_two_band(model.hamiltonian(kx, ky))
    return eig, velocity_matrices(eig, model.derivative(kx, ky, 0),
                                  model.derivative(kx, ky, 1))


# -- Hermitian limit ----------------------------------------------------------

def test_all_qgts_coincide_hermitian(hermitian_model, rng):
    for kx, ky in SAMPLE_K:
        # branch band 1 (c - |d|) is the lower band, eigh's band 0
        eig, v = _eig_v(hermitian_model, kx, ky)
        ref = hermitian_qgt(hermitian_model.hamiltonian(kx, ky),
                            hermitian_model.derivative(kx, ky, 0),
                            hermitian_model.derivative(kx, ky, 1), band=0)
        q_lr = qgt_lr(eig, v, band=1)
        npt.assert_allclose(q_lr, ref, atol=1e-10)
        npt.assert_allclose(qgt_rl_from_lr(q_lr), ref, atol=1e-10)
        npt.assert_allclose(qgt_rr(eig, v, band=1), ref, atol=1e-10)
        npt.assert_allclose(qgt_ll(eig, v, band=1), ref, atol=1e-10)


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
    eig, dhx, dhy = (eigensystem_two_band(rm_model.hamiltonian(kxg, kyg)),
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
    eig = eigensystem_two_band(rm_model.hamiltonian(kxg, kyg))
    assert np.min(eig.norm_product(0)) >= 1.0 - 1e-12
    eig_h = eigensystem_two_band(hermitian_model.hamiltonian(kxg, kyg))
    npt.assert_allclose(eig_h.norm_product(0), 1.0, atol=1e-12)


# -- grids --------------------------------------------------------------------

def test_scan_geometry_single_point(rm_model):
    grid = scan_geometry(rm_model, nx=1, ny=1)
    assert grid.shape == (1, 1)
    assert np.isfinite(grid.curvature_lr[0, 0])
    assert grid.kx[0, 0] == -np.pi
    assert grid.norm_product[0, 0] >= 1.0


def test_scan_stores_six_fields_per_point(rm_model):
    # Q^RL and the curvature are read-only functions of Q^LR, not arrays
    grid = scan_geometry(rm_model, nx=12, ny=10)
    assert [f.name for f in dataclasses.fields(grid)] == ["kx", "ky", *geometry.FIELDS]
    assert sum(getattr(grid, name).nbytes for name in geometry.FIELDS) == 264 * 12 * 10
    npt.assert_array_equal(grid.qgt_rl, qgt_rl_from_lr(grid.qgt_lr))
    npt.assert_array_equal(grid.curvature_lr, berry_curvature_lr(grid.qgt_lr))
    for name in ("qgt_rl", "curvature_lr"):
        with pytest.raises(AttributeError):
            setattr(grid, name, np.zeros(grid.shape))


def test_scan_deterministic_across_workers(rm_model):
    a = scan_geometry(rm_model, nx=12, workers=1)
    b = scan_geometry(rm_model, nx=12, workers=4)
    npt.assert_array_equal(a.qgt_lr, b.qgt_lr)
    npt.assert_array_equal(a.curvature_lr, b.curvature_lr)
    npt.assert_array_equal(a.norm_product, b.norm_product)


def test_scan_one_model_pass_per_chunk(rm_model, monkeypatch):
    # four kx rows per chunk: 8 chunks, each one d pass of the model, whose
    # first rows are cross-checked in 2 batches of 4, each batch one
    # hamiltonian(derivatives=True) call
    monkeypatch.setattr(geometry, "CHUNK_POINTS", 64)
    calls = count_model_calls(monkeypatch, rm_model)
    scan_geometry(rm_model, nx=32, ny=16)
    assert calls == ([("pseudospin_pass", False)] * 4 + [("hamiltonian", True)]) * 2


def test_scan_one_matrix_pass_per_chunk_without_a_d_pass(rm_model, monkeypatch):
    # a model without an analytic d: its d pass decomposes one
    # hamiltonian(derivatives=True) call per chunk
    monkeypatch.setattr(geometry, "CHUNK_POINTS", 64)
    model = BlochModel(2, rm_model.hamiltonian,
                       fused=lambda kx, ky: rm_model.hamiltonian(kx, ky, derivatives=True))
    calls = count_model_calls(monkeypatch, model)
    scan_geometry(model, nx=32, ny=16)
    chunk = [("pseudospin_pass", False), ("hamiltonian", True)]
    assert calls == (chunk * 4 + [("hamiltonian", True)]) * 2


def test_scan_chunks_match_full_mesh(rm_model, monkeypatch):
    # two kx rows per chunk: six chunks on the 11 x 5 mesh, the last one row;
    # the qgt_lr-only pass of chern keeps the same bits
    monkeypatch.setattr(geometry, "CHUNK_POINTS", 10)
    kx, ky = bz_mesh(11, 5)
    full = pseudospin_geometry(*rm_model.pseudospin_pass(kx, ky))
    grid = scan_geometry(rm_model, nx=11, ny=5)
    for name, ref in zip(geometry.FIELDS, full):
        npt.assert_array_equal(getattr(grid, name), ref)
    chunks = [values for _, values in geometry._scan_chunks(rm_model, 0, kx, ky, lr_only=True)]
    assert all(len(values) == 1 for values in chunks)
    npt.assert_array_equal(np.concatenate([values[0] for values in chunks]), full[0])


@pytest.mark.parametrize("ny, step", [(64, 32), (160, 12), (201, 10), (301, 6)])
def test_scan_cross_checks_every_step_th_row(rm_model, monkeypatch, ny, step):
    # the checked kx rows, pinned: the first row of every chunk of 2048 points,
    # every step-th row from 0, on the six-field pass and on chern's qgt_lr
    # pass, so the coverage cannot move with CHUNK_POINTS unnoticed
    rows = []
    cross_check = geometry._cross_check

    def recording(model, kx, ky, values, band):
        rows.append(kx[:, 0].tolist())
        return cross_check(model, kx, ky, values, band)

    monkeypatch.setattr(geometry, "_cross_check", recording)
    kxg, kyg = bz_mesh(64, ny)
    scan_geometry(rm_model, nx=64, ny=ny)
    for _ in geometry._scan_chunks(rm_model, 0, kxg, kyg, lr_only=True):
        pass
    checked = kxg[::step, 0].tolist()
    assert [k for batch in rows for k in batch] == checked * 2


_PART = st.floats(-2.0, 2.0).map(lambda v: round(v, 3))
_VEC = st.tuples(*[st.builds(complex, _PART, _PART)] * 3)


@given(d=_VEC, a_x=_VEC, a_y=_VEC, c=st.builds(complex, _PART, _PART),
       dc=st.builds(complex, _PART, _PART), band=st.sampled_from([0, 1]))
# a_x parallel to d: every tensor and connection is roundoff (~1e-32, ~1e-16)
@example(d=(1 + 0j, 1 + 0j, 0j), a_x=(1 + 1j, 1 + 1j, 0j), a_y=(0j, 0j, 0j), c=0j, dc=0j,
         band=0)
def test_pseudospin_kernel_matches_eigenvector_route(d, a_x, a_y, c, dc, band):
    d = np.array(d)
    # away from exceptional points: both routes lose ~1e-16 N^2 near them
    assume(abs(d @ d) > 0.0 and np.vdot(d, d).real / abs(d @ d) < 100.0)
    h = (pauli_matrix(d) + c * np.eye(2))[None]
    dhx = (pauli_matrix(np.array(a_x)) + dc * np.eye(2))[None]
    dhy = pauli_matrix(np.array(a_y))[None]
    # the kernel takes (c, d, a_x, a_y); the identity part dc of d_x H drops out
    pseudospin = (np.array([c]), d[None], np.array([a_x]), np.array([a_y]))
    fields = pseudospin_geometry(*pseudospin, band=band)
    ref = compute_geometry(eigensystem_two_band(h), dhx, dhy, band=band)
    assert np.array_equal(pseudospin_geometry(*pseudospin, band=band, lr_only=True)[0],
                          fields[0])
    # relative to each array's max; the connections are floored at the
    # tensor scale, since for a real d they are pure roundoff, and every
    # field at the scale |a|^2 / |d.d| of the inputs, since where a is
    # parallel to d the tensors are pure roundoff too
    unit = max(np.linalg.norm(a_x), np.linalg.norm(a_y)) ** 2 / abs(d @ d)
    tensor = max(max(np.max(np.abs(q)) for q in ref[:3]), unit)
    floors = (unit,) * 3 + (np.sqrt(tensor),) * 2 + (0.0,)
    assert len(fields) == len(ref) == len(geometry.FIELDS)
    for name, value, want, floor in zip(geometry.FIELDS, fields, ref, floors):
        assert value.shape == want.shape, name
        assert np.max(np.abs(value - want)) <= 1e-12 * max(np.max(np.abs(want)), floor), name
    for q in fields[1:3]:
        assert np.array_equal(q, np.conj(np.swapaxes(q, -1, -2)))


@given(d=st.tuples(*[_PART] * 3), a_x=st.tuples(*[_PART] * 3), a_y=st.tuples(*[_PART] * 3),
       c=_PART, dc=_PART, band=st.sampled_from([0, 1]))
def test_hermitian_limit_on_drawn_models(d, a_x, a_y, c, dc, band):
    # real d and a_mu: H and d_mu H are Hermitian, and the eigh oracles apply
    d = np.array(d)
    assume(np.linalg.norm(d) >= 0.05)
    h = pauli_matrix(d) + c * np.eye(2)
    dhx = pauli_matrix(np.array(a_x)) + dc * np.eye(2)
    dhy = pauli_matrix(np.array(a_y))
    eig = eigensystem_two_band(h)
    assert np.max(np.abs(eig.left - eig.right)) <= 1e-12
    # branch band 0 (c + |d|) is eigh's upper band
    evals, vecs = np.linalg.eigh(h)
    npt.assert_allclose(eig.energies, evals[::-1], rtol=0, atol=1e-12 * np.max(np.abs(evals)))
    for b in (0, 1):
        v = vecs[:, 1 - b]
        npt.assert_allclose(np.outer(eig.right[b], np.conj(eig.right[b])), np.outer(v, np.conj(v)),
                            rtol=0, atol=1e-12)
    q_lr, q_rr, q_ll = compute_geometry(eig, dhx, dhy, band=band)[:3]
    ref = hermitian_qgt(h, dhx, dhy, band=1 - band)
    # the oracle's roundoff scale: the identity part dc of d_x H is in its products
    unit = max(np.max(np.abs(dhx)), np.max(np.abs(dhy))) ** 2 / (d @ d)
    for q in (q_lr, q_rr, q_ll):
        npt.assert_allclose(q, ref, rtol=0, atol=1e-12 * max(np.max(np.abs(ref)), unit))


@given(d=_VEC, a_x=_VEC, a_y=_VEC, c=st.builds(complex, _PART, _PART),
       band=st.sampled_from([0, 1]))
def test_rr_and_ll_are_psd_on_both_routes(d, a_x, a_y, c, band):
    d = np.array(d)
    assume(abs(d @ d) > 0.0 and np.vdot(d, d).real / abs(d @ d) < 100.0)
    a = [np.array([x]) for x in (a_x, a_y)]
    kernel = pseudospin_geometry(np.array([c]), d[None], *a, band=band)
    eig = eigensystem_two_band((pauli_matrix(d) + c * np.eye(2))[None])
    route = compute_geometry(eig, *(pauli_matrix(x) for x in a), band=band)
    unit = max(np.linalg.norm(a_x), np.linalg.norm(a_y)) ** 2 / abs(d @ d)
    for q in (*kernel[1:3], *route[1:3]):
        q = q[0]
        scale = max(np.real(np.trace(q)), unit)
        assert np.max(np.abs(q - np.conj(q.T))) <= 1e-12 * scale
        assert np.linalg.eigvalsh(q)[0] >= -tolerances.PSD_TOL * scale


@pytest.mark.parametrize("exponent", NEAR_EP_EXPONENTS)
def test_near_ep_sweep_typed_error_where_eigenvector_route_rejects(exponent):
    model = BlochModel.constant(near_ep_matrix(10.0 ** -exponent))
    kx, ky = bz_mesh(4, 4)
    h = model.hamiltonian(kx, ky)
    if exponent in NEAR_EP_REJECTED:
        with pytest.raises(NHGeoError):
            eigensystem_two_band(h)
    if 10.0 ** exponent / 4 > tolerances.NORM_PRODUCT_LIMIT:  # norm product ~1/(4 delta)
        with pytest.raises(IllConditionedError, match="norm product"):
            scan_geometry(model, nx=4)
    else:
        grid = scan_geometry(model, nx=4)
        npt.assert_allclose(grid.norm_product, eigensystem_two_band(h).norm_product(0))


def _skew_kernel(monkeypatch, field):
    """Make the kernel scale ``field`` by 1 + 1e-9 at one point of the first
    kx row of every chunk."""
    kernel = geometry.pseudospin_geometry

    def skewed(*args, **kwargs):
        fields = kernel(*args, **kwargs)
        fields[geometry.FIELDS.index(field)][0, 3] *= 1.0 + 1e-9
        return fields

    monkeypatch.setattr(geometry, "pseudospin_geometry", skewed)


def test_scan_cross_check_catches_a_kernel_error(rm_model, monkeypatch):
    _skew_kernel(monkeypatch, "qgt_rr")
    with pytest.raises(NonConvergenceError, match="qgt_rr"):
        scan_geometry(rm_model, nx=8)


def test_chern_cross_check_catches_a_qgt_lr_error(rm_model, monkeypatch):
    # the streamed curvature pass forms and cross-checks qgt_lr only
    _skew_kernel(monkeypatch, "qgt_lr")
    with pytest.raises(NonConvergenceError, match="qgt_lr"):
        compute_chern(rm_model, n_plaquette=9, n_curvature=8)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_scan_non_finite_hamiltonian_is_typed(rm_model):
    def ham(kx, ky):
        h = rm_model.hamiltonian(kx, ky)
        return np.where(np.isclose(kx, 0.0)[..., None, None], np.nan, h)

    def fused(kx, ky):
        return (ham(kx, ky),) + rm_model.hamiltonian(kx, ky, derivatives=True)[1:]

    with pytest.raises(NonFiniteError):
        scan_geometry(BlochModel(2, ham, fused), nx=8)


def test_scan_collects_exceptional_points(monkeypatch):
    # d.d = (1 - cos ky)^2 vanishes on the whole mesh line ky = 0, which
    # crosses all four two-row chunks
    monkeypatch.setattr(geometry, "CHUNK_POINTS", 16)
    m = BlochModel.pseudospin(
        lambda kx, ky: np.stack([np.sin(kx) + 0j, 1j * np.sin(kx),
                                 1.0 - np.cos(ky) + 0j], axis=-1))
    with pytest.raises(ExceptionalPointError) as err:
        scan_geometry(m, nx=8)
    kx, _ = bz_mesh(8, 8)
    assert err.value.points == [(float(k), 0.0) for k in kx[:, 0]]


def test_stencil_exceptional_points_are_k_of_the_failing_set():
    # d.d = 0 exactly from kx = 0.5 on: the center and the -x set pass, and the
    # +x set of the middle point fails; its k pair is reported, not its index
    m = BlochModel.pseudospin(
        lambda kx, ky: np.stack(np.broadcast_arrays(
            1.0 + 0j, 1j * np.where(kx >= 0.5, 1.0, 0.3), 0j * ky), axis=-1))
    kx, ky, h = np.array([0.1, 0.49999, 0.2]), np.array([0.3, -0.4, 0.5]), 2e-5
    with pytest.raises(ExceptionalPointError) as err:
        geometry.locked_stencil(m, kx, ky, h)
    assert err.value.points == [(float(kx[1] + h), -0.4)]


def test_stencil_gauge_lock_fails_at_a_large_step():
    # d = (cos kx, sin kx, 0): |<R(k)|R(k + h e_x)>| = |cos(h/2)| for both bands
    m = BlochModel.pseudospin(
        lambda kx, ky: np.stack(np.broadcast_arrays(np.cos(kx) + 0j, np.sin(kx) + 0j,
                                                    0j * ky), axis=-1))
    small, large = 1e-3, 2.5
    assert abs(np.cos(large / 2)) < tolerances.LOCK_MIN_OVERLAP < abs(np.cos(small / 2))
    geometry.locked_stencil(m, 0.3, 0.2, small)
    with pytest.raises(GaugeLockError, match="stencil overlap"):
        geometry.locked_stencil(m, 0.3, 0.2, large)


def test_divergence_integral_exceptional_points_are_k():
    # a Jordan block at every k: the first shifted mesh, k + h e_x, fails
    # whole, and its sorted (kx, ky) pairs are reported, not batch indices
    kx, ky = bz_mesh(4, 4)
    with pytest.raises(ExceptionalPointError) as err:
        anomalous_divergence_integral(BlochModel.constant([[0, 1], [0, 0]]), n_grid=4)
    assert err.value.points == sorted(zip((kx + geometry.DIVERGENCE_STEP).ravel().tolist(),
                                          ky.ravel().tolist()))


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
