import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import pauli_gauge
from nhgeo import geometry, topology
from nhgeo.errors import (ExceptionalPointError, LinkCollapseError, NHGeoError,
                          NonRealCurvatureError)
from nhgeo.geometry import scan_geometry
from nhgeo.models import BlochModel, RMParams, bz_mesh
from nhgeo.oracles import finite_difference_qgt
from nhgeo.spectra import gauge_rescale
from nhgeo.topology import chern_from_curvature, chern_plaquette, compute_chern


def test_plaquette_topological_phase(rm_model):
    assert chern_plaquette(rm_model, band=0, n_grid=64) == 1
    assert chern_plaquette(rm_model, band=1, n_grid=64) == -1


def test_plaquette_trivial_phase():
    m = BlochModel.rice_mele(RMParams(gamma=1.0, dz_offset=10.0,
                                      variant="supplemental"))
    # coarse sweep: the integer vanishes on every grid tried
    for n in (24, 32, 48):
        assert chern_plaquette(m, band=0, n_grid=n) == 0


def test_plaquette_gamma_continuity():
    # gap never closes along the sweep: the integer cannot change
    for gamma in (0.0, 0.3, 0.7, 1.0):
        m = BlochModel.rice_mele(RMParams(gamma=gamma, variant="supplemental"))
        assert chern_plaquette(m, band=0, n_grid=48) == 1


def test_plaquette_grid_invariance(rm_model):
    values = {chern_plaquette(rm_model, band=0, n_grid=n)
              for n in (32, 48, 64, 96)}
    assert values == {1}


def test_plaquette_residue_small(rm_model):
    _, residue = chern_plaquette(rm_model, band=0, n_grid=48, return_residue=True)
    assert residue < 1e-6


@pytest.mark.parametrize("n", [3, 17, 64])
def test_plaquette_residue_is_roundoff_on_rough_links(n):
    # each link enters one loop forward and one conjugated, so the loop phases
    # telescope: the sum is 2 pi * integer up to roundoff for any nonzero
    # links, here of a d(k) drawn independently at each mesh point and scaled
    # over ten decades (the phase sum cannot tell such a d from a smooth one)
    rng = np.random.default_rng(n)
    d = rng.normal(size=(n, n, 3)) + 0.3j * rng.normal(size=(n, n, 3))
    d *= 10.0 ** rng.uniform(-5.0, 5.0, size=(n, n, 1))

    def rough(kx, ky):
        i, j = (np.rint((np.asarray(k) + np.pi) * n / (2 * np.pi)).astype(int) % n
                for k in (kx, ky))
        return d[i, j]

    _, residue = chern_plaquette(BlochModel.pseudospin(rough), n_grid=n, return_residue=True)
    assert residue < 1e-9


def _rescale_plaquette_eigensystems(monkeypatch):
    """Rescale every eigensystem the plaquette sum solves by a smooth gauge."""
    solve, gauge = topology.eigensystem_two_band, pauli_gauge(seed=5)
    monkeypatch.setattr(topology, "eigensystem_two_band",
                        lambda h: gauge_rescale(solve(h), gauge(h)))


def test_plaquette_gauge_invariance(rm_model, monkeypatch):
    base, res0 = chern_plaquette(rm_model, band=0, n_grid=32, return_residue=True)
    _rescale_plaquette_eigensystems(monkeypatch)
    mod, res1 = chern_plaquette(rm_model, band=0, n_grid=32, return_residue=True)
    assert base == mod
    assert abs(res0 - res1) < 1e-10


@pytest.mark.parametrize("gauged", [False, True], ids=["lr", "lr_gauge"])
def test_chern_plaquette_chunks_match_full_mesh(rm_model, monkeypatch, gauged):
    if gauged:
        _rescale_plaquette_eigensystems(monkeypatch)

    def run():
        return chern_plaquette(rm_model, n_grid=11, return_residue=True)

    full = run()  # 121 points: one chunk
    # two kx rows per chunk: six chunks on the 11 x 11 mesh, the last one row
    monkeypatch.setattr(geometry, "CHUNK_POINTS", 22)
    assert run() == full


def test_chern_plaquette_collects_exceptional_points(monkeypatch):
    # d.d = (1 - cos ky)^2 vanishes on the whole mesh line ky = 0, which
    # crosses all four two-row chunks
    monkeypatch.setattr(geometry, "CHUNK_POINTS", 16)
    m = BlochModel.pseudospin(
        lambda kx, ky: np.stack([np.sin(kx) + 0j, 1j * np.sin(kx),
                                 1.0 - np.cos(ky) + 0j], axis=-1))
    with pytest.raises(ExceptionalPointError) as err:
        chern_plaquette(m, n_grid=8)
    kx, _ = bz_mesh(8, 8)
    assert err.value.points == [(float(k), 0.0) for k in kx[:, 0]]


def test_link_collapse():
    # d = (0, 0, cos 8kx) flips sign between adjacent kx of the 16-point mesh,
    # so the band-0 ket alternates between (1, 0) and (0, 1): every x link is 0
    m = BlochModel.pseudospin(
        lambda kx, ky: np.stack(np.broadcast_arrays(0j * kx, 0j * ky, np.cos(8 * kx) + 0j),
                                axis=-1))
    with pytest.raises(LinkCollapseError, match="link magnitude 0.00e"):
        chern_plaquette(m, band=0, n_grid=16)


def test_chern_from_curvature(rm_model):
    grid = scan_geometry(rm_model, band=0, nx=101)
    c = chern_from_curvature(grid)
    assert abs(c - 1.0) < 0.01


def test_plaquette_phases_track_local_curvature(rm_model):
    # per-cell link phases approximate -Re F * cell area
    import numpy as np
    from nhgeo.models import bz_mesh
    from nhgeo.spectra import eigensystem_two_band

    n = 64
    kxg, kyg = bz_mesh(n, n)
    eig = eigensystem_two_band(rm_model.hamiltonian(kxg, kyg))
    left = eig.left[..., 0, :]
    right = eig.right[..., 0, :]
    u_x = np.einsum("ijk,ijk->ij", np.conj(left), np.roll(right, -1, axis=0))
    u_y = np.einsum("ijk,ijk->ij", np.conj(left), np.roll(right, -1, axis=1))
    loop = u_x * np.roll(u_y, -1, axis=0) * np.conj(np.roll(u_x, -1, axis=1) * u_y)
    grid = scan_geometry(rm_model, band=0, nx=n)
    local = -np.real(grid.curvature_lr) * grid.cell_area()
    assert np.max(np.abs(np.angle(loop) - local)) < 5e-3


def test_curvature_refinement(rm_model):
    errs = []
    for n in (25, 51):
        grid = scan_geometry(rm_model, band=0, nx=n)
        errs.append(abs(chern_from_curvature(grid) - 1.0))
    assert errs[1] < errs[0] / 4.0


def test_zero_curvature_model():
    m = BlochModel.constant(np.diag([1.0, 2.0 - 0.5j]))
    grid = scan_geometry(m, band=0, nx=12)
    assert chern_from_curvature(grid) == 0.0


def _bound_integrals(model, n):
    """(int |F|, int (|Q^RL_xy| + |Q^RL_yx|)) of an n x n scan."""
    res = compute_chern(model, band=0, n_plaquette=16, grid=scan_geometry(model, band=0, nx=n))
    return res.curvature_abs_integral, res.qgt_bound_integral


def test_bound_integrals_chain(rm_model):
    abs_f, qgt_b = _bound_integrals(rm_model, 64)
    assert 2 * np.pi * 1.0 <= abs_f <= qgt_b
    assert abs_f > 2 * np.pi + 0.5  # strict margin in the topological phase
    assert qgt_b > abs_f + 0.5


def test_bound_integrals_hermitian(hermitian_model):
    abs_f, qgt_b = _bound_integrals(hermitian_model, 48)
    assert 2 * np.pi <= abs_f + 1e-9 <= qgt_b + 1e-9


def test_bound_margins_match_oracle(rm_model):
    # per-k margins recomputed from the finite-difference tensor
    grid = scan_geometry(rm_model, band=0, nx=8)
    for i, j in [(1, 2), (5, 7)]:
        kx, ky = grid.kx[i, j], grid.ky[i, j]
        fd_lr = finite_difference_qgt(rm_model, kx, ky, band=0, pair="lr", h=1e-4)
        fd_rl = np.conj(fd_lr.T)
        lhs = abs(1j * (fd_lr[0, 1] - fd_lr[1, 0]))
        rhs = abs(fd_rl[0, 1]) + abs(fd_rl[1, 0])
        closed_lhs = abs(grid.curvature_lr[i, j])
        closed_rhs = (abs(grid.qgt_rl[i, j, 0, 1]) + abs(grid.qgt_rl[i, j, 1, 0]))
        assert abs(lhs - closed_lhs) < 1e-6
        assert abs(rhs - closed_rhs) < 1e-6


def test_non_real_curvature_on_tampered_grid(rm_model):
    grid = scan_geometry(rm_model, band=0, nx=12)
    assert abs(chern_from_curvature(grid) - 1.0) < 0.1
    # the sum is (area 4 pi^2 / 2 pi) * mean F: 1e-2 i / 2 pi per point adds
    # 1e-2 i, above CURVATURE_SUM_IMAG_TOL; F = i (Q_xy - Q_yx) takes it from
    # an antisymmetric shift of Q^LR
    grid.qgt_lr[..., 0, 1] += 0.5e-2 / (2 * np.pi)
    grid.qgt_lr[..., 1, 0] -= 0.5e-2 / (2 * np.pi)
    with pytest.raises(NonRealCurvatureError, match="imaginary part"):
        chern_from_curvature(grid)


def test_compute_chern_bundle(rm_model):
    res = compute_chern(rm_model, band=0, n_plaquette=32, n_curvature=51)
    assert res.chern_plaquette == 1
    assert abs(res.chern_curvature - res.chern_plaquette) < 0.5
    assert 2 * np.pi * abs(res.chern_plaquette) <= res.curvature_abs_integral
    assert res.curvature_abs_integral <= res.qgt_bound_integral


@pytest.mark.parametrize("n", [8, 45, 100, 301])
def test_streamed_chain_sums_match_grid_path(rm_model, n):
    # 8 and 45 are one chunk, 100 five of 20 rows, 301 fifty of 6 rows and a
    # last one of a single row; only the order of the sums differs
    assert (n % geometry._chunk_rows(n) == 1) == (n == 301)
    streamed = compute_chern(rm_model, n_plaquette=16, n_curvature=n)
    whole = compute_chern(rm_model, n_plaquette=16, grid=scan_geometry(rm_model, nx=n))
    assert streamed.grid_curvature == whole.grid_curvature == n
    for name in ("chern_curvature", "curvature_abs_integral", "qgt_bound_integral"):
        a, b = getattr(streamed, name), getattr(whole, name)
        assert abs(a - b) <= 1e-12 * abs(b), name


@given(gamma=st.floats(0.0, 2.0), Gamma=st.floats(0.0, 2.0),
       dz_offset=st.sampled_from([0.0, 3.5]),
       variant=st.sampled_from(["supplemental", "appendix"]))
@settings(max_examples=30)
def test_streamed_chain_sums_match_grid_path_on_drawn_models(gamma, Gamma, dz_offset, variant):
    # the qgt_lr-only streamed pass against the six-field scan of the 48 x 48
    # mesh, two chunks of 42 and 6 kx rows: the same Q^LR bits, summed in
    # another order.  C is measured against its natural scale int |F| / (2 pi),
    # not against a trivial phase's roundoff
    model = BlochModel.rice_mele(RMParams(gamma=gamma, Gamma=Gamma, dz_offset=dz_offset,
                                          variant=variant))
    results = []
    for run in (lambda: compute_chern(model, n_plaquette=8, n_curvature=48),
                lambda: compute_chern(model, n_plaquette=8, grid=scan_geometry(model, nx=48))):
        try:
            results.append(run())
        except NHGeoError as exc:
            results.append(type(exc))
    streamed, whole = results
    if isinstance(streamed, type) or isinstance(whole, type):
        assert streamed is whole  # both paths raise the same typed error
        return
    scale = {"chern_curvature": whole.curvature_abs_integral / (2 * np.pi)}
    for name in ("chern_curvature", "curvature_abs_integral", "qgt_bound_integral"):
        a, b = getattr(streamed, name), getattr(whole, name)
        assert abs(a - b) <= 1e-12 * scale.get(name, abs(b)), name


def test_streamed_pass_cross_checks_the_rows_of_scan_geometry(rm_model, monkeypatch):
    # the first kx row of every 6-row chunk of the 301 x 301 mesh, in
    # batches of 6 rows, whichever path solves the mesh
    batches = []
    cross_check = geometry._cross_check

    def recording(model, kx, ky, values, band):
        batches.append(kx[:, 0].tolist())
        return cross_check(model, kx, ky, values, band)

    monkeypatch.setattr(geometry, "_cross_check", recording)
    compute_chern(rm_model, n_plaquette=16, n_curvature=301)
    streamed, batches[:] = batches[:], []
    scan_geometry(rm_model, nx=301)
    kx = bz_mesh(301, 301)[0][:, 0]
    firsts = np.arange(0, 301, 6)
    assert streamed == batches == [kx[firsts[i:i + 6]].tolist() for i in range(0, 51, 6)]


def test_streamed_pass_collects_exceptional_points(monkeypatch):
    # d.d = (1 - cos ky)^2 vanishes on the mesh line ky = 0 of the even
    # curvature mesh, across its four two-row chunks; the odd plaquette mesh
    # misses it
    monkeypatch.setattr(geometry, "CHUNK_POINTS", 16)
    m = BlochModel.pseudospin(
        lambda kx, ky: np.stack([np.sin(kx) + 0j, 1j * np.sin(kx),
                                 1.0 - np.cos(ky) + 0j], axis=-1))
    errors = []
    for run in (lambda: compute_chern(m, n_plaquette=9, n_curvature=8),
                lambda: scan_geometry(m, nx=8)):
        with pytest.raises(ExceptionalPointError) as err:
            run()
        errors.append(err.value.points)
    kx, _ = bz_mesh(8, 8)
    assert errors[0] == errors[1] == [(float(k), 0.0) for k in kx[:, 0]]


def test_streamed_pass_checks_each_batch_before_solving_the_next(rm_model, monkeypatch):
    # two-row chunks on the 8 x 8 mesh: the first rows 0, 2, 4 and 6 of its four
    # chunks are cross-checked in two batches of two chunks, each batch as soon
    # as its chunks are solved, on both paths
    monkeypatch.setattr(geometry, "CHUNK_POINTS", 16)
    events = []
    solve, cross_check = geometry.pseudospin_geometry, geometry._cross_check

    def solving(*args, **kwargs):
        events.append("solve")
        return solve(*args, **kwargs)

    def recording(model, kx, ky, values, band):
        events.append(kx[:, 0].tolist())
        return cross_check(model, kx, ky, values, band)

    monkeypatch.setattr(geometry, "pseudospin_geometry", solving)
    monkeypatch.setattr(geometry, "_cross_check", recording)
    compute_chern(rm_model, n_plaquette=9, n_curvature=8)
    streamed, events[:] = events[:], []
    scan_geometry(rm_model, nx=8)
    kx = bz_mesh(8, 8)[0][:, 0]
    assert streamed == events == ["solve", "solve", kx[[0, 2]].tolist(),
                                  "solve", "solve", kx[[4, 6]].tolist()]


def test_streamed_pass_holds_one_batch_of_checked_rows(rm_model, monkeypatch):
    # with every kx row a chunk, every row is cross-checked, one row per batch;
    # the fields of all 48 checked rows would take 0.61 MB (264 bytes a point)
    monkeypatch.setattr(geometry, "CHUNK_POINTS", 48)
    compute_chern(rm_model, n_plaquette=9, n_curvature=8)
    tracemalloc.start()
    try:
        compute_chern(rm_model, n_plaquette=9, n_curvature=48)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * 48 * 48 * 264


def test_compute_chern_holds_no_grid(rm_model):
    # the six fields of a 201^2 GeometryGrid alone take 10.7 MB; the streamed
    # pass holds one chunk and the cross-checked rows
    compute_chern(rm_model, n_plaquette=16, n_curvature=16)
    tracemalloc.start()
    try:
        compute_chern(rm_model, n_curvature=201)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5e6
