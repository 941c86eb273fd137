"""Acceptance suite: every release criterion at its pinned tolerance.

One test per criterion; each prints a PASS line on success (run with -s or
see captured output).  Grid sizes and tolerances follow the project
requirements and must not be loosened.
"""

import time

import numpy as np
import numpy.testing as npt

from conftest import hermitian_qgt, random_three_band_model, smooth_gauge
from nhgeo.bounds import (check_absorptive_psd, check_local_curvature_bound,
                          check_optical_weight_bound, check_psd,
                          check_qgt_inequality)
from nhgeo.cli import main as cli_main
from nhgeo.geometry import (anomalous_connection, anomalous_divergence_integral,
                            compute_geometry, qgt_ll, qgt_lr, qgt_rl_from_lr, qgt_rr,
                            scan_geometry, velocity_matrices)
from nhgeo.lindblad import (bubble_matrix, decompose_antihermitian,
                            effective_hamiltonian, keldysh_sigma)
from nhgeo.models import SIGMA_Y, BlochModel, RMParams, bz_mesh
from nhgeo.oracles import (finite_difference_qgt, optical_weight_quadrature,
                           polarization_bubble_quadrature)
from nhgeo.response import optical_weight_bz, optical_weight_numeric
from nhgeo.spectra import eigensystem_general, eigensystem_two_band, gauge_rescale
from nhgeo.topology import chern_from_curvature, chern_plaquette


def _model(gamma=1.0, Gamma=0.0):
    return BlochModel.rice_mele(RMParams(t=1.0, delta=1.0, Delta=1.0,
                                         gamma=gamma, Gamma=Gamma,
                                         variant="supplemental"))


def _ok(num, text):
    print(f"ACCEPTANCE {num:2d} PASS: {text}")


def test_c01_chern_quantization():
    model = _model()
    t0 = time.monotonic()
    c_pl = chern_plaquette(model, band=0, n_grid=64)
    grid = scan_geometry(model, band=0, nx=201, workers=1)
    c_cv = chern_from_curvature(grid)
    elapsed = time.monotonic() - t0
    assert c_pl == 1
    assert abs(c_cv - 1.0) < 0.01
    assert elapsed < 30.0
    _ok(1, f"C_NH = 1 (plaquette 64^2), curvature sum {c_cv:.6f} (201^2), "
           f"{elapsed:.2f} s single-threaded")


def test_c02_local_curvature_bound():
    grid = scan_geometry(_model(), band=0, nx=201)
    rep = check_local_curvature_bound(grid)
    assert rep.passed and rep.worst_margin >= -1e-9
    assert rep.extra["max_ratio_edge"] >= 1.9
    _ok(2, f"|F| <= |Q_xy|+|Q_yx| at all 201^2 points "
           f"(worst margin {rep.worst_margin:.1e}); edge saturation ratio "
           f"{rep.extra['max_ratio_edge']:.2f} >= 1.9")


def test_c03_qgt_inequality():
    grid = scan_geometry(_model(), band=0, nx=201)
    rep = check_qgt_inequality(grid)
    assert rep.passed and rep.worst_margin >= -1e-10

    # necessity control (a): two-band ablated relation is exactly saturated,
    # so dropped-factor margins must dip below zero at rounding level
    ablated = check_qgt_inequality(grid, ablation=True, tolerance=0.0)
    assert ablated.worst_margin < 0.0

    # necessity control (b): at three bands the ablated bound fails by O(1)
    h_func, dh_func = random_three_band_model()
    rng = np.random.default_rng(77)
    worst3 = np.inf
    for kx, ky in rng.uniform(-np.pi, np.pi, size=(30, 2)):
        eig = eigensystem_general(h_func(kx, ky))
        dhx, dhy = dh_func(kx, ky, 0), dh_func(kx, ky, 1)
        v = velocity_matrices(eig, dhx, dhy)
        q_rl = qgt_rl_from_lr(qgt_lr(eig, v, band=0))
        rr = np.real(np.diag(qgt_rr(eig, v, band=0)))
        ll = np.real(np.diag(qgt_ll(eig, v, band=0)))
        a_r = anomalous_connection(eig, v, band=0, side="R")
        a_l = anomalous_connection(eig, v, band=0, side="L")
        for mu in range(2):
            for nu in range(2):
                lhs = abs(q_rl[mu, nu]) ** 2
                prod = (rr[mu] + abs(a_r[mu]) ** 2) * (ll[nu] + abs(a_l[nu]) ** 2)
                worst3 = min(worst3, (prod - lhs) / max(prod, lhs))
    assert worst3 < -1e-3
    _ok(3, f"|Q_RL|^2 <= N(RR+|QR|^2)(LL+|QL|^2) at all points/pairs "
           f"(worst {rep.worst_margin:.1e}); ablation fails at two bands "
           f"({ablated.worst_margin:.1e} < 0) and at three bands ({worst3:.2f})")


def test_c04_psd_rr_ll():
    worst = 0.0
    for gamma in (0.0, 0.5, 1.0, 1.5):
        grid = scan_geometry(_model(gamma=gamma), band=0, nx=101)
        for q, name in ((grid.qgt_rr, "PSD_RR"), (grid.qgt_ll, "PSD_LL")):
            rep = check_psd(q, name=name, tolerance=1e-12)
            assert rep.passed
            worst = min(worst, rep.worst_margin)
    _ok(4, f"RR/LL tensors PSD (min eig >= -1e-12 trace) for gamma in "
           f"{{0, 0.5, 1, 1.5}} on 101^2 grids (worst {worst:.1e})")


def test_c05_optical_weight_bound_sweep():
    gammas = [0.0, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0]
    eta = 1e-3
    rng = np.random.default_rng(15)
    margins = []
    for g_val in gammas:
        model = _model(Gamma=g_val)
        res = optical_weight_bz(model, band="slowest", n_grid=48, eta=eta)
        chern = chern_plaquette(model, band=0, n_grid=32)
        rep = check_optical_weight_bound(res.bound_trace, chern, res.arg_infimum)
        assert rep.passed and rep.margin[0] > 0.0
        margins.append(float(rep.margin[0]))

        # omega-integrated closed form vs adaptive quadrature, per k
        for kx, ky in rng.uniform(-3.0, 3.0, size=(3, 2)):
            wq = optical_weight_quadrature(model, kx, ky, eta=eta)
            wn, _ = optical_weight_numeric(model, kx, ky, eta=eta)
            assert abs(wq - wn) <= 1e-3 * max(abs(wq), 1e-6)

        # infrared-cutoff diagnostics
        assert abs(res.ln_eta_coefficient) < 1e-6
        res10 = optical_weight_bz(model, band="slowest", n_grid=48, eta=10 * eta)
        assert abs(res10.bz_trace - res.bz_trace) <= 1e-4 * abs(res.bz_trace)

        # BZ-level reduction identity wherever the slowest band is k-smooth
        if g_val >= 1.25:
            assert abs(res.bz_trace - res.closed_trace) \
                <= 1e-3 * abs(res.closed_trace)
    _ok(5, f"weight bound positive for all Gamma (min margin {min(margins):.3f}); "
           f"closed vs quadrature <= 1e-3; ln(eta) coefficient < 1e-6; "
           f"eta-robust < 1e-4")


def test_c06_hermitian_regression():
    model = _model(gamma=0.0)
    grid = scan_geometry(model, band=0, nx=64)
    stack = np.stack([grid.qgt_lr, grid.qgt_rl, grid.qgt_rr, grid.qgt_ll])
    spread = np.max(np.abs(stack - stack[0]))
    assert spread < 1e-10
    assert np.max(np.abs(grid.anomalous_r)) < 1e-12
    assert np.max(np.abs(grid.anomalous_l)) < 1e-12

    res = optical_weight_bz(model, band="slowest", n_grid=32, eta=1e-3)
    assert np.max(np.abs(res.arg_per_k)) == 0.0

    # weight = pi * Hermitian metric trace, against the eigh-based oracle
    worst = 0.0
    for kx, ky in [(0.7, -1.3), (2.2, 0.9), (-1.8, 0.3)]:
        w, _ = optical_weight_numeric(model, kx, ky, eta=1e-3)
        ref = hermitian_qgt(model.hamiltonian(kx, ky),
                            model.derivative(kx, ky, 0),
                            model.derivative(kx, ky, 1), band=0)
        worst = max(worst, abs(w - np.pi * np.real(np.trace(ref))))
    assert worst < 1e-8
    _ok(6, f"Hermitian limit: QGT spread {spread:.1e} < 1e-10, connections "
           f"< 1e-12, arg = 0, weight = pi * metric to {worst:.1e}")


def test_c07_oracle_equivalence():
    model = _model()
    rng = np.random.default_rng(42)
    worst = 0.0
    for kx, ky in rng.uniform(-np.pi, np.pi, size=(25, 2)):
        eig = eigensystem_two_band(model.hamiltonian(np.asarray(kx), np.asarray(ky)))
        dhx = model.derivative(np.asarray(kx), np.asarray(ky), 0)
        dhy = model.derivative(np.asarray(kx), np.asarray(ky), 1)
        closed = qgt_lr(eig, velocity_matrices(eig, dhx, dhy), band=0)
        fd = finite_difference_qgt(model, kx, ky, band=0, pair="lr", h=1e-4)
        worst = max(worst, float(np.max(np.abs(closed - fd))))
    assert worst < 1e-6

    # second-order error scaling under step refinement
    kx, ky = 0.7, -1.3
    eig = eigensystem_two_band(model.hamiltonian(np.asarray(kx), np.asarray(ky)))
    v = velocity_matrices(eig, model.derivative(np.asarray(kx), np.asarray(ky), 0),
                          model.derivative(np.asarray(kx), np.asarray(ky), 1))
    closed = qgt_lr(eig, v, band=0)
    e1 = np.max(np.abs(finite_difference_qgt(model, kx, ky, pair="lr", h=2e-3) - closed))
    e2 = np.max(np.abs(finite_difference_qgt(model, kx, ky, pair="lr", h=1e-3) - closed))
    assert 3.0 < e1 / e2 < 5.0
    _ok(7, f"closed QGT vs phase-locked stencil <= 1e-6 at 25 random k "
           f"(worst {worst:.1e}); error ratio {e1/e2:.2f} under h -> h/2")


def test_c08_gauge_invariance():
    model = _model()
    kxg, kyg = bz_mesh(32, 32)
    eig = eigensystem_two_band(model.hamiltonian(kxg, kyg))
    dhx = model.derivative(kxg, kyg, 0)
    dhy = model.derivative(kxg, kyg, 1)
    base = compute_geometry(eig, dhx, dhy, band=0) + (eig.norm_product(0),)
    worst = 0.0
    for seed in range(10):
        gauged = gauge_rescale(eig, smooth_gauge(seed=seed)(kxg, kyg))
        mod = compute_geometry(gauged, dhx, dhy, band=0) + (gauged.norm_product(0),)
        for a, b in zip(base, mod):
            rel = np.max(np.abs(a - b) / np.maximum(np.abs(a), 1.0))
            worst = max(worst, float(rel))
    assert worst < 1e-10
    _ok(8, f"10 random smooth gauge rescalings shift reported quantities "
           f"by at most {worst:.1e} (< 1e-10)")


def test_c09_divergence_lemma():
    model = _model()
    mags = [abs(anomalous_divergence_integral(model, band=0, n_grid=n))
            for n in (64, 128, 256)]
    assert mags[1] < mags[0]
    assert mags[2] < mags[1]
    assert mags[2] < 1e-3
    _ok(9, "BZ divergence of the anomalous one-form: "
           + " > ".join(f"{m:.2e}" for m in mags) + " (64^2 -> 256^2, < 1e-3)")


def test_c10_lindblad_roundtrip():
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(100):
        d = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        d = 0.5 * (d + d.conj().T)
        spec = decompose_antihermitian(d)
        h_eff = effective_hamiltonian(np.zeros((2, 2)), spec)
        anti = 0.5 * (h_eff - h_eff.conj().T)
        resid = np.max(np.abs(anti - spec.identity_shift * np.eye(2) + 1j * d))
        worst = max(worst, float(resid))
    assert worst < 1e-12

    gamma = 1.0
    spec = decompose_antihermitian(-0.5 * gamma * SIGMA_Y)
    assert len(spec.jumps) == 1
    npt.assert_allclose(spec.jumps[0], [1.0, 1.0j], atol=1e-14)
    kel = keldysh_sigma(spec)
    npt.assert_allclose(kel.sigma_k, 1j * gamma * SIGMA_Y, atol=1e-14)
    _ok(10, f"100 random jump decompositions reconstruct to {worst:.1e} "
            f"(< 1e-12); dissipative family gives jump (sqrt g, i sqrt g) and "
            f"Sigma^K = i g sigma_y")


def test_c11_bubble_equivalence():
    sx = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    sy = np.array([[0.0, -1.0j], [1.0j, 0.0]])
    energies = np.array([0.9 - 0.3j, -0.7 - 0.45j])
    omegas = np.linspace(-4.0, 4.0, 50)
    worst = 0.0
    for w in omegas:
        closed = bubble_matrix(energies, (sx, sy), w)[0, 1]
        quad = polarization_bubble_quadrature(energies, sx, sy, w)
        worst = max(worst, abs(closed - quad) / max(abs(closed), 1e-12))
    assert worst < 1e-6

    min_eig = np.inf
    for w in omegas:
        pi = bubble_matrix(energies, (sx, sy), w)
        pabs = (pi - pi.conj().T) / 2j
        min_eig = min(min_eig, float(np.min(np.linalg.eigvalsh(pabs))))
        rep = check_absorptive_psd(np.array([w]), pabs[None])
        assert rep.passed
    assert min_eig >= -1e-10

    gained = np.array([0.9 + 0.6j, -0.7 - 0.45j])
    neg = min(np.min(np.linalg.eigvalsh(
        (lambda p: (p - p.conj().T) / 2j)(bubble_matrix(gained, (sx, sy), w))))
        for w in omegas)
    assert neg < -1e-8
    _ok(11, f"contour vs quadrature bubble <= 1e-6 over 50 samples "
            f"(worst {worst:.1e}); absorptive part PSD (min {min_eig:.1e}); "
            f"gain control dips to {neg:.2e}")


def test_c12_scan_determinism(tmp_path):
    outputs = []
    for threads in (1, 4, 8):
        out = tmp_path / f"t{threads}"
        code = cli_main(["scan", "--grid", "48", "--out", str(out),
                         "--threads", str(threads)])
        assert code == 0
        outputs.append((out / "geometry.csv").read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]
    _ok(12, "scan output byte-identical across --threads {1, 4, 8} (48^2)")
