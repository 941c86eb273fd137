import json
import os

import numpy as np
import pytest
import yaml

from nhgeo.cli import load_config, main
from nhgeo.errors import ConfigError


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


@pytest.mark.parametrize("env, config", [
    ({"NHGEO_THREADS": "x"}, {}),
    ({"NHGEO_BAND": "2.5"}, {}),
    ({}, {"response": {"eta": "abc"}}),
    ({}, {"model": {"gamma": float("nan")}}),
    ({}, {"model": {"family": "constant",
                    "matrix": [[1.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 3.0]]}}),
], ids=["threads_env", "band_env", "eta_text", "gamma_nan", "three_band_constant"])
def test_cli_scan_bad_input_exit_2(tmp_path, monkeypatch, env, config):
    for key, val in env.items():
        monkeypatch.setenv(key, val)
    cfg = _write(tmp_path, "bad.yaml", dict(config, grid={"nx": 8, "ny": 8}))
    out = tmp_path / "o"
    assert main(["scan", "--config", cfg, "--out", str(out)]) == 2
    assert not (out / "geometry.csv").exists()


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


def test_cli_bounds_tolerance_override(tmp_path):
    # an absurdly strict PSD tolerance turns roundoff into a failure
    cfg = _write(tmp_path, "tol.yaml", {"grid": {"nx": 16, "ny": 16},
                                        "tolerances": {"psd": 1e-18},
                                        "response": {"k_samples": 4,
                                                     "omega_count": 11}})
    assert main(["bounds", "--config", cfg, "--out", str(tmp_path / "o")]) == 4


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
