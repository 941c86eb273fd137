import dataclasses
import tracemalloc
import warnings

import numpy as np
import numpy.testing as npt
import pytest

from conftest import random_three_band_model
from nhgeo.bounds import (BoundReport, check_absorptive_psd, check_chern_chain,
                          check_local_curvature_bound, check_optical_weight_bound,
                          check_psd, check_qgt_inequality,
                          hermitian_min_eigenvalue)
from nhgeo.errors import BranchViolationError, NonFiniteError, NonHermitianInputError
from nhgeo.geometry import (GeometryGrid, anomalous_connection, berry_curvature_lr, qgt_ll,
                            qgt_lr, qgt_rl_from_lr, qgt_rr, scan_geometry,
                            velocity_matrices)
from nhgeo.models import BlochModel, RMParams, bz_mesh
from nhgeo.response import absorptive_part, lehmann_correlator
from nhgeo.spectra import eigensystem_general
from nhgeo.tolerances import ABSORPTIVE_PSD_TOL, BOUND_TOL, HERM_TOL, PSD_TOL, QGT_TOL
from nhgeo.topology import ChernResult, compute_chern, local_bound_sides


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


@pytest.mark.parametrize("power", [600, -600, 900])
def test_hermitian_min_eigenvalue_is_exact_under_power_of_two_scaling(rng, power):
    # the entries are scaled by a power of two before they are squared, so a
    # stack scaled by 2^power gives exactly the scaled eigenvalues: no square
    # overflows at 2^600 or 2^900, and none underflows early at 2^-600
    q = _hermitian_stack(rng, (64,))
    want = np.ldexp(hermitian_min_eigenvalue(q), power)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = hermitian_min_eigenvalue(q * 2.0 ** power)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


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


# --- the bound layer pinned bit for bit -------------------------------------
# Frozen copies of the checkers' formulas as they stood before the reports
# were preallocated: each builds its report from whole-array temporaries and
# concatenations.  The checkers must return the same bits in every field.

def _ref_finish(name, labels, lhs, rhs, scale, tolerance, extra=None):
    margin = rhs - lhs
    bad = ~np.isfinite(margin)
    if np.any(bad):
        raise NonFiniteError(f"{name}: non-finite margin at {int(np.count_nonzero(bad))} point(s)")
    norm = margin / np.maximum(scale, 1e-300)
    worst = float(np.min(norm)) if norm.size else 0.0
    return BoundReport(
        name=name, labels=np.asarray(labels), lhs=lhs, rhs=rhs, margin=margin,
        tolerance=tolerance, worst_margin=worst,
        passed=bool(worst >= -tolerance), extra=extra or {})


def _ref_grid_labels(grid):
    return np.stack([grid.kx.ravel(), grid.ky.ravel()], axis=-1)


def _ref_local_curvature_bound(grid, tolerance=BOUND_TOL):
    lhs, rhs = (side.ravel() for side in local_bound_sides(grid))
    scale = np.maximum(rhs, lhs)
    ratio = rhs / np.maximum(lhs, 1e-300)
    nx, ny = grid.shape
    dx, dy = 2 * np.pi / nx, 2 * np.pi / ny
    on_edge = np.zeros((nx, ny), dtype=bool)
    for line in (-np.pi, 0.0):
        on_edge |= np.abs(grid.kx - line) < 1.51 * dx
        on_edge |= np.abs(grid.ky - line) < 1.51 * dy
    extra = {"max_ratio_edge": float(np.max(ratio.reshape(nx, ny)[on_edge])),
             "max_ratio_global": float(np.max(ratio))}
    return _ref_finish("LocalCurvature", _ref_grid_labels(grid), lhs, rhs, scale,
                       tolerance, extra)


def _ref_qgt_inequality(grid, ablation=False, tolerance=QGT_TOL):
    rr = np.real(np.einsum("ijkk->ijk", grid.qgt_rr))
    ll = np.real(np.einsum("ijkk->ijk", grid.qgt_ll))
    ar2 = np.abs(grid.anomalous_r) ** 2
    al2 = np.abs(grid.anomalous_l) ** 2
    n_fac = np.ones_like(grid.norm_product) if ablation else grid.norm_product
    lhs_list, rhs_list, labels = [], [], []
    base = _ref_grid_labels(grid)
    for mu in range(2):
        for nu in range(2):
            lhs_list.append(np.abs(grid.qgt_lr[..., nu, mu]).ravel() ** 2)
            rhs_list.append((n_fac * (rr[..., mu] + ar2[..., mu])
                             * (ll[..., nu] + al2[..., nu])).ravel())
            pair = np.full((base.shape[0], 1), 2 * mu + nu, dtype=float)
            labels.append(np.concatenate([base, pair], axis=1))
    lhs = np.concatenate(lhs_list)
    rhs = np.concatenate(rhs_list)
    name = "QGTInequalityAblated" if ablation else "QGTInequality"
    return _ref_finish(name, np.concatenate(labels), lhs, rhs, np.maximum(lhs, rhs),
                       tolerance)


def _ref_hermitian_min_eigenvalue(q):
    q = np.asarray(q, dtype=complex)
    resid = np.max(np.abs(q - np.conj(np.swapaxes(q, -1, -2))))
    scale = max(float(np.max(np.abs(q))), 1e-300)
    if resid > HERM_TOL * scale:
        raise NonHermitianInputError(f"anti-Hermitian residue {resid:.2e}")
    a = np.real(q[..., 0, 0])
    c = np.real(q[..., 1, 1])
    b = q[..., 0, 1]
    half = 0.5 * (a + c)
    rad = np.sqrt((0.5 * (a - c)) ** 2 + np.abs(b) ** 2)
    return half - rad


def _ref_psd(q, name="PSD", tolerance=PSD_TOL):
    q = np.asarray(q, dtype=complex)
    lam = _ref_hermitian_min_eigenvalue(q).ravel()
    tr = np.real(q[..., 0, 0] + q[..., 1, 1]).ravel()
    return _ref_finish(name, np.arange(lam.size), -lam, np.zeros_like(lam),
                       np.maximum(tr, 1e-300), tolerance)


def _ref_absorptive_psd(omegas, pi_abs):
    omegas = np.asarray(omegas, dtype=float)
    pi_abs = np.asarray(pi_abs, dtype=complex)
    lam = _ref_hermitian_min_eigenvalue(pi_abs)
    tr = np.real(pi_abs[..., 0, 0] + pi_abs[..., 1, 1])
    scale = np.maximum(np.abs(tr), np.max(np.abs(pi_abs), axis=(-2, -1)))
    extra = {"re_minus_abs_im": np.real(pi_abs[..., 0, 1]) - np.abs(np.imag(pi_abs[..., 0, 1]))}
    return _ref_finish("AbsorptivePSD", omegas, -lam, np.zeros_like(lam),
                       np.maximum(scale, 1e-300), ABSORPTIVE_PSD_TOL, extra)


def _bits(value):
    """Value, dtype, shape and bytes of a report field: equal exactly when the
    bits are, with -0.0 unlike 0.0 and NaN like itself."""
    if isinstance(value, (str, bool, int)):
        return type(value), value
    arr = np.asarray(value)
    return type(value), arr.dtype, arr.shape, arr.tobytes()


def _assert_same_report(got, want):
    for f in dataclasses.fields(BoundReport):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if f.name == "extra":
            assert a.keys() == b.keys()
            for key in a:
                assert _bits(a[key]) == _bits(b[key]), f"extra[{key!r}]"
        else:
            assert _bits(a) == _bits(b), f.name


def _hermitian_stack(rng, shape, scale=1.0):
    """Random Hermitian 2x2 matrices of either definiteness with entries spread
    over decades, plus an anti-Hermitian residue well inside HERM_TOL."""
    m = rng.normal(size=shape + (2, 2)) + 1j * rng.normal(size=shape + (2, 2))
    m *= scale * 10.0 ** rng.uniform(-6, 3, size=shape + (1, 1))
    noise = rng.normal(size=m.shape) + 1j * rng.normal(size=m.shape)
    return m + np.conj(np.swapaxes(m, -1, -2)) + 1e-14 * np.abs(m).max() * noise


def _random_grid(rng, nx, ny):
    kx, ky = bz_mesh(nx, ny)
    spread = 10.0 ** rng.uniform(-8, 2, size=(nx, ny))

    def cplx(*tail):
        z = rng.normal(size=(nx, ny) + tail) + 1j * rng.normal(size=(nx, ny) + tail)
        return z * spread.reshape((nx, ny) + (1,) * len(tail))

    return GeometryGrid(kx, ky, cplx(2, 2), _hermitian_stack(rng, (nx, ny)),
                        _hermitian_stack(rng, (nx, ny)), cplx(2), cplx(2),
                        1.0 + rng.exponential(size=(nx, ny)))


@pytest.mark.parametrize("nx, ny", [(16, 16), (12, 20), (3, 1)])
def test_checkers_match_frozen_formulas_bit_for_bit(rng, nx, ny):
    grid = _random_grid(rng, nx, ny)
    _assert_same_report(check_local_curvature_bound(grid), _ref_local_curvature_bound(grid))
    for ablation in (False, True):
        _assert_same_report(check_qgt_inequality(grid, ablation=ablation),
                            _ref_qgt_inequality(grid, ablation=ablation))
    for q, name in ((grid.qgt_rr, "PSD_RR"), (grid.qgt_ll, "PSD_LL")):
        _assert_same_report(check_psd(q, name), _ref_psd(q, name))
    omegas = np.linspace(-3.0, 3.0, nx * ny)
    pi_abs = _hermitian_stack(rng, (nx * ny,))
    _assert_same_report(check_absorptive_psd(omegas, pi_abs),
                        _ref_absorptive_psd(omegas, pi_abs))


def test_checkers_match_frozen_formulas_on_a_scan(rm_grid):
    _assert_same_report(check_local_curvature_bound(rm_grid),
                        _ref_local_curvature_bound(rm_grid))
    for ablation in (False, True):  # the ablated margins straddle zero at roundoff
        _assert_same_report(check_qgt_inequality(rm_grid, ablation=ablation, tolerance=0.0),
                            _ref_qgt_inequality(rm_grid, ablation=ablation, tolerance=0.0))
    for q in (rm_grid.qgt_rr, rm_grid.qgt_ll):
        _assert_same_report(check_psd(q), _ref_psd(q))
    omegas = np.linspace(-4.0, 4.0, 61)
    pa = absorptive_part(lehmann_correlator(*_toy_levels(gain=True), np.array([0.7, 0.3]),
                                            omegas))
    _assert_same_report(check_absorptive_psd(omegas, pa), _ref_absorptive_psd(omegas, pa))


def test_checkers_match_frozen_formulas_on_single_matrices():
    for q in (np.eye(2), np.diag([1.0, -1.0]), np.array([[2.0, 1j], [-1j, -0.0]])):
        _assert_same_report(check_psd(q), _ref_psd(q))
        _assert_same_report(check_psd(q[None]), _ref_psd(q[None]))
        _assert_same_report(check_absorptive_psd(0.5, q), _ref_absorptive_psd(0.5, q))
    res = ChernResult(chern_plaquette=-1, chern_curvature=-0.999, curvature_abs_integral=7.0,
                      qgt_bound_integral=6.5, grid_plaquette=8, grid_curvature=8,
                      plaquette_residue=0.0)
    lhs = np.array([2 * np.pi * abs(res.chern_plaquette), res.curvature_abs_integral])
    rhs = np.array([res.curvature_abs_integral, res.qgt_bound_integral])
    _assert_same_report(check_chern_chain(res),
                        _ref_finish("ChernChain", np.array([0, 1]), lhs, rhs,
                                    np.maximum(np.abs(rhs), 1.0), BOUND_TOL))


@pytest.mark.parametrize("entry", [(0, 0), (0, 1), (1, 0), (1, 1)])
@pytest.mark.parametrize("bad", [np.nan, complex(0.0, np.nan), np.inf])
def test_non_finite_entry_is_numerical_error(entry, bad):
    # a non-finite entry anywhere is a numerical failure (exit 3): never a
    # non-Hermitian input, and never a pass, even in the q_10 entry that the
    # eigenvalue formula does not read
    q = np.array([[1.0, 0.1j], [-0.1j, 2.0]])[None].repeat(3, axis=0)
    q[(1,) + entry] = bad
    with pytest.raises(NonFiniteError):
        check_psd(q)
    with pytest.raises(NonFiniteError):
        check_absorptive_psd(np.arange(3.0), q)


@pytest.mark.parametrize("entry, delta", [((0, 1), 1e-6), ((1, 0), -1e-6j),
                                          ((0, 0), 1e-6j), ((1, 1), -1e-6j)])
def test_non_hermitian_input_residue_matches_frozen_formula(entry, delta):
    q = np.array([[1.0, 0.1j], [-0.1j, 2.0]])[None].repeat(3, axis=0)
    q[(2,) + entry] += delta
    with pytest.raises(NonHermitianInputError) as want:
        _ref_hermitian_min_eigenvalue(q)
    with pytest.raises(NonHermitianInputError) as got:
        check_psd(q)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("check, bound", [
    (check_qgt_inequality, 1.8),
    (lambda grid: check_psd(grid.qgt_rr), 2.0),
    (check_local_curvature_bound, 1.65),
], ids=["qgt", "psd", "local_curvature"])
def test_checker_peak_memory_stays_near_its_report(check, bound):
    # each checker allocates its report arrays once: the traced peak of one
    # call on a 128^2 scan stays within `bound` times the report's bytes
    # (about 1.5x; whole-array temporaries and concatenations took 2.65x for
    # the QGT inequality, 4.25x for PSD and 1.85x for the local bound)
    grid = scan_geometry(BlochModel.rice_mele(RMParams(gamma=1.0, variant="supplemental")),
                         band=0, nx=128)
    check(grid)  # warm up: first-call allocations are not the report's
    tracemalloc.start()
    try:
        rep = check(grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    report = sum(np.asarray(getattr(rep, f)).nbytes for f in ("labels", "lhs", "rhs", "margin"))
    assert peak <= bound * report
