import json
import os
import subprocess
import sys

import numpy as np
import pytest
import yaml

from conftest import NEAR_EP_REJECTED, near_ep_matrix
from nhgeo import cli, geometry, topology
from nhgeo.cli import load_config, main
from nhgeo.errors import ConfigError
from nhgeo.models import bz_mesh, model_from_config
from nhgeo.response import response_spectrum


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(payload))
    return str(path)


def test_load_config_defaults():
    cfg = load_config(None, {})
    assert cfg["model"]["family"] == "rice_mele"
    assert cfg["grid"] == {"nx": 64, "ny": 64}


def test_load_config_overrides(tmp_path, monkeypatch):
    path = _write(tmp_path, "run.yaml", {"model": {"gamma": 0.5},
                                         "grid": {"nx": 16, "ny": 24}})
    cfg = load_config(path, {"grid": "32x40", "threads": 3})
    assert cfg["model"]["gamma"] == 0.5
    assert cfg["grid"] == {"nx": 32, "ny": 40}
    assert cfg["threads"] == 3
    monkeypatch.setenv("NHGEO_GRID", "12")
    monkeypatch.setenv("NHGEO_THREADS", "2")
    cfg = load_config(path, {})
    assert cfg["grid"] == {"nx": 12, "ny": 12}
    assert cfg["threads"] == 2


def test_load_config_validation(tmp_path):
    with pytest.raises(ConfigError):
        load_config(_write(tmp_path, "bad.yaml", {"grid": {"nx": 4, "ny": 4}}), {})
    with pytest.raises(ConfigError):
        load_config(_write(tmp_path, "bad2.yaml",
                           {"response": {"eta": -1.0}}), {})


def test_cli_bad_config_exit_2(tmp_path):
    path = tmp_path / "broken.yaml"
    path.write_text("grid: {nx: 4, ny: 4}\n")
    assert main(["scan", "--config", str(path)]) == 2
    assert main(["scan", "--config", str(tmp_path / "missing.yaml")]) == 2


THREE_BAND = {"family": "constant",
              "matrix": [[1.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 3.0]]}
COMMANDS = ["scan", "chern", "bounds", "optical-weight", "lindblad-check"]


@pytest.mark.parametrize("command, env, config", [
    ("scan", {"NHGEO_THREADS": "x"}, {}),
    ("scan", {"NHGEO_BAND": "2.5"}, {}),
    ("scan", {}, {"response": {"eta": "abc"}}),
    ("scan", {}, {"model": {"gamma": float("nan")}}),
    ("scan", {}, {"model": THREE_BAND}),
    ("lindblad-check", {}, {"response": {"omega_count": "abc"}}),
    ("lindblad-check", {}, {"response": {"omega_max": float("inf")}}),
    ("bounds", {}, {"response": {"k_samples": 0}}),
    ("bounds", {}, {"response": {"beta": "hot"}}),
    ("chern", {}, {"chern": {"curvature_grid": "abc"}}),
    ("chern", {}, {"chern": {"curvature_grid": 4}}),
    ("bounds", {}, {"tolerances": {"psd": "abc"}}),
    ("bounds", {}, {"tolerances": {"bound": float("nan")}}),
    ("bounds", {}, {"tolerances": {"qgt": -1e-10}}),
], ids=["threads_env", "band_env", "eta_text", "gamma_nan", "three_band_constant",
        "lindblad_omega_count_text", "lindblad_omega_max_inf", "bounds_k_samples_zero",
        "bounds_beta_text", "chern_curvature_grid_text", "chern_curvature_grid_small",
        "bounds_psd_text", "bounds_bound_nan", "bounds_qgt_negative"])
def test_cli_scan_bad_input_exit_2(tmp_path, monkeypatch, command, env, config):
    for key, val in env.items():
        monkeypatch.setenv(key, val)
    cfg = _write(tmp_path, "bad.yaml", dict(config, grid={"nx": 8, "ny": 8}))
    out = tmp_path / "o"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("command", COMMANDS)
def test_cli_three_band_model_exit_2(tmp_path, capsys, command):
    # every command refuses an N != 2 model before any work
    cfg = _write(tmp_path, "three.yaml", {"model": THREE_BAND})
    out = tmp_path / "o"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    assert "two-band" in capsys.readouterr().err
    assert not out.exists()


def test_import_cli_leaves_scipy_unloaded():
    # scipy serves only the oracles; the command-line import path must not load it
    code = "import sys, nhgeo.cli; print(any(m.split('.')[0] == 'scipy' for m in sys.modules))"
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [os.path.abspath(src), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    assert proc.stdout.strip() == "False"


def test_cli_scan_deterministic(tmp_path):
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["scan", "--grid", "12", "--out", out1]) == 0
    assert main(["scan", "--grid", "12", "--out", out2, "--threads", "4"]) == 0
    for name in ("geometry.csv", "geometry.json"):
        b1 = open(os.path.join(out1, name), "rb").read()
        b2 = open(os.path.join(out2, name), "rb").read()
        # config echo differs in the thread count only; strip before diffing
        if name.endswith(".json"):
            # config echo reflects the differing out dir and thread count
            d1, d2 = json.loads(b1), json.loads(b2)
            d1.pop("config")
            d2.pop("config")
            assert d1 == d2
        else:
            assert b1 == b2


@pytest.mark.parametrize("command, report", [("chern", "chern.json"),
                                             ("bounds", "bounds.json")])
def test_cli_report_values_identical_across_threads(tmp_path, command, report):
    cfg = _write(tmp_path, "t.yaml", {"grid": {"nx": 16, "ny": 16},
                                      "chern": {"curvature_grid": 40},
                                      "response": {"k_samples": 4, "omega_count": 11}})
    docs = []
    for threads in (1, 2, 4):
        out = tmp_path / f"t{threads}"
        assert main([command, "--config", cfg, "--out", str(out),
                     "--threads", str(threads)]) == 0
        doc = json.loads((out / report).read_text())
        doc.pop("timing_seconds")
        assert doc["config"].pop("threads") == threads
        assert doc["config"].pop("output") == {"dir": str(out)}
        docs.append(doc)
    assert docs[0] == docs[1] == docs[2]


def test_cli_scan_csv_shape(tmp_path):
    out = str(tmp_path / "scan")
    assert main(["scan", "--grid", "8", "--out", out]) == 0
    lines = open(os.path.join(out, "geometry.csv")).read().splitlines()
    assert len(lines) == 1 + 64
    header = lines[0].split(",")
    assert header[:2] == ["kx", "ky"]
    assert "re_curvature" in header and "norm_product" in header


def test_cli_scan_exceptional_exit_3(tmp_path):
    cfg = _write(tmp_path, "ep.yaml",
                 {"model": {"family": "constant",
                            "matrix": [[1.0, 0.0], [0.0, 1.0]]},
                  "grid": {"nx": 8, "ny": 8}})
    assert main(["scan", "--config", cfg, "--out", str(tmp_path / "o")]) == 3


@pytest.mark.parametrize("exponent", NEAR_EP_REJECTED)
def test_cli_scan_near_ep_exit_3(tmp_path, capsys, exponent):
    # every near-EP matrix the eigenvector route's validation rejects
    m = near_ep_matrix(10.0 ** -exponent)
    cfg = _write(tmp_path, "near_ep.yaml",
                 {"model": {"family": "constant",
                            "matrix": [[[float(v.real), float(v.imag)] for v in row]
                                       for row in m]},
                  "grid": {"nx": 8, "ny": 8}})
    assert main(["scan", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
    assert "norm product" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["scan", "chern", "bounds"])
def test_cli_roundoff_gapless_point_exit_3(tmp_path, capsys, command):
    # Delta = gamma = 0 closes the gap at (kx, ky) = (-pi/2, -pi), an 8x8 mesh
    # point where d is pure roundoff (|d| ~ 1e-16)
    cfg = _write(tmp_path, "gapless.yaml",
                 {"model": {"family": "rice_mele", "gamma": 0.0, "Delta": 0.0},
                  "grid": {"nx": 8, "ny": 8}})
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 3
    assert "gapless" in capsys.readouterr().err


def test_cli_chern(tmp_path, capsys):
    cfg = _write(tmp_path, "c.yaml", {"chern": {"curvature_grid": 51}})
    out = str(tmp_path / "chern")
    assert main(["chern", "--config", cfg, "--grid", "32", "--out", out]) == 0
    captured = capsys.readouterr().out
    assert "C_NH = 1" in captured
    doc = json.loads(open(os.path.join(out, "chern.json")).read())
    assert doc["chern_plaquette"] == 1
    assert doc["schema_version"] == 1


def test_cli_chern_trivial(tmp_path, capsys):
    cfg = _write(tmp_path, "t.yaml", {"model": {"family": "rice_mele",
                                                "gamma": 1.0, "dz_offset": 10.0},
                                      "chern": {"curvature_grid": 33}})
    assert main(["chern", "--config", cfg, "--grid", "24",
                 "--out", str(tmp_path / "o")]) == 0
    assert "C_NH = 0" in capsys.readouterr().out


def test_cli_bounds_pass_and_outputs(tmp_path):
    out = str(tmp_path / "bounds")
    cfg = _write(tmp_path, "b.yaml", {"grid": {"nx": 16, "ny": 16},
                                      "response": {"k_samples": 4,
                                                   "omega_count": 21}})
    assert main(["bounds", "--config", cfg, "--out", out]) == 0
    doc = json.loads(open(os.path.join(out, "bounds.json")).read())
    names = {r["name"] for r in doc["reports"]}
    assert {"LocalCurvature", "QGTInequality", "PSD_RR", "PSD_LL",
            "ChernChain", "OpticalWeight", "AbsorptivePSD"} <= names
    assert all(r["passed"] for r in doc["reports"])
    assert os.path.exists(os.path.join(out, "margins_psd_rr.csv"))


def test_cli_bounds_scans_grid_once(tmp_path, monkeypatch):
    # the curvature chain reuses the grid of the local checks
    calls = []

    def counting(*args, **kwargs):
        calls.append(kwargs.get("nx"))
        return geometry.scan_geometry(*args, **kwargs)

    monkeypatch.setattr(cli, "scan_geometry", counting)
    monkeypatch.setattr(topology, "scan_geometry", counting)
    cfg = _write(tmp_path, "b.yaml", {"grid": {"nx": 16, "ny": 16},
                                      "response": {"k_samples": 4, "omega_count": 11}})
    assert main(["bounds", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    assert calls == [16]


@pytest.mark.parametrize("beta", [None, 2.0])
def test_absorptive_stack_matches_per_k_spectra(beta):
    # row-wise accumulation of the k mean against one spectrum per k-point
    cfg = load_config(None, {"grid": "16"})
    cfg["response"].update(k_samples=4, omega_count=11, beta=beta)
    model = model_from_config(cfg["model"])
    omegas, pi_abs = cli._absorptive_stack(cfg, model)
    kxg, kyg = bz_mesh(4, 4)
    total = 0.0
    for kx, ky in zip(kxg.ravel(), kyg.ravel()):
        h = model.hamiltonian(kx, ky)
        evals, vecs = np.linalg.eigh(0.5 * (h + h.conj().T))
        ops = np.stack([vecs.conj().T @ model.derivative(kx, ky, ax) @ vecs
                        for ax in (0, 1)])
        ops = 0.5 * (ops + np.conj(np.swapaxes(ops, -1, -2)))
        if beta is None:
            rho = np.array([1.0, 0.0])
        else:
            w = np.exp(-beta * (evals - evals.min()))
            rho = w / w.sum()
        total = total + response_spectrum(evals - 0.5j, ops, rho, omegas).pi_abs
    expected = total / 16
    np.testing.assert_allclose(pi_abs, expected, rtol=0,
                               atol=1e-13 * np.max(np.abs(expected)))


def test_cli_bounds_tolerance_override(tmp_path):
    # an absurdly strict PSD tolerance turns roundoff into a failure
    cfg = _write(tmp_path, "tol.yaml", {"grid": {"nx": 16, "ny": 16},
                                        "tolerances": {"psd": 1e-18},
                                        "response": {"k_samples": 4,
                                                     "omega_count": 11}})
    assert main(["bounds", "--config", cfg, "--out", str(tmp_path / "o")]) == 4


def test_cli_bounds_thermal_occupation_low_temperature(tmp_path):
    # exp(-beta E) overflows at this beta unless the weights are shifted
    cfg = _write(tmp_path, "beta.yaml", {"grid": {"nx": 16, "ny": 16},
                                         "response": {"beta": 2000.0, "k_samples": 4,
                                                      "omega_count": 11}})
    assert main(["bounds", "--config", cfg, "--out", str(tmp_path / "o")]) == 0


def test_cli_bounds_gain_flip_exit_4(tmp_path):
    cfg = _write(tmp_path, "g.yaml", {"grid": {"nx": 16, "ny": 16},
                                      "response": {"invert_bath": True,
                                                   "k_samples": 4,
                                                   "omega_count": 21}})
    assert main(["bounds", "--config", cfg, "--out", str(tmp_path / "o")]) == 4


def test_cli_optical_weight(tmp_path):
    out = str(tmp_path / "w")
    cfg = _write(tmp_path, "w.yaml", {"grid": {"nx": 16, "ny": 16},
                                      "sweep": {"Gamma": [0.0, 1.5]}})
    assert main(["optical-weight", "--config", cfg, "--out", out]) == 0
    lines = open(os.path.join(out, "optical_weight.csv")).read().splitlines()
    assert len(lines) == 3
    header = lines[0].split(",")
    assert header[0] == "Gamma"
    assert "weight_numeric" in header and "weight_closed" in header
    row = dict(zip(header, (float(x) for x in lines[1].split(","))))
    assert row["Gamma"] == 0.0
    assert row["margin"] > 0


def test_cli_optical_weight_empty_sweep(tmp_path):
    cfg = _write(tmp_path, "e.yaml", {"sweep": {"Gamma": []}})
    assert main(["optical-weight", "--config", cfg,
                 "--out", str(tmp_path / "o")]) == 2


def test_cli_optical_weight_quadrature_column(tmp_path):
    out = str(tmp_path / "wq")
    cfg = _write(tmp_path, "wq.yaml", {"grid": {"nx": 8, "ny": 8},
                                       "sweep": {"Gamma": [1.5]}})
    assert main(["optical-weight", "--config", cfg, "--out", out,
                 "--quadrature"]) == 0
    lines = open(os.path.join(out, "optical_weight.csv")).read().splitlines()
    header = lines[0].split(",")
    row = dict(zip(header, (float(x) for x in lines[1].split(","))))
    assert abs(row["weight_quadrature"] - row["weight_numeric"]) \
        <= 1e-3 * abs(row["weight_numeric"])


def test_cli_lindblad_check(tmp_path, capsys):
    out = str(tmp_path / "l")
    assert main(["lindblad-check", "--out", out]) == 0
    text = capsys.readouterr().out
    assert "roundtrip residual" in text
    assert "positivity: pass" in text
    doc = json.loads(open(os.path.join(out, "lindblad.json")).read())
    assert doc["roundtrip_residual"] < 1e-12
    # Sigma^K = i gamma sigma_y for the dissipative family at gamma = 1
    sk = np.array(doc["sigma_k"]["re"]) + 1j * np.array(doc["sigma_k"]["im"])
    np.testing.assert_allclose(sk, [[0.0, 1.0], [-1.0, 0.0]], atol=1e-12)


def test_cli_lindblad_check_hermitian(tmp_path, capsys):
    cfg = _write(tmp_path, "h.yaml", {"model": {"family": "rice_mele",
                                                "gamma": 0.0}})
    assert main(["lindblad-check", "--config", cfg,
                 "--out", str(tmp_path / "o")]) == 0
    assert "nothing to check" in capsys.readouterr().out


def test_cli_lindblad_check_inverted(tmp_path, capsys):
    cfg = _write(tmp_path, "i.yaml", {"response": {"invert_bath": True,
                                                   "omega_count": 21}})
    assert main(["lindblad-check", "--config", cfg,
                 "--out", str(tmp_path / "o")]) == 4
    assert "FAILED" in capsys.readouterr().out


def test_cli_lindblad_check_undamped_levels_exit_3(tmp_path, capsys):
    # Gamma makes the model non-Hermitian, but the scanned levels carry the
    # rate gamma/2 ~ 0: the Keldysh bubble is not integrable
    cfg = _write(tmp_path, "u.yaml", {"model": {"gamma": 1e-16, "Gamma": 1.0}})
    assert main(["lindblad-check", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
    assert "Im eps_m = 0" in capsys.readouterr().err
