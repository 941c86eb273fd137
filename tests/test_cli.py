import json
import os
import pathlib
import subprocess
import sys
import tempfile
import warnings
from dataclasses import fields

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings, strategies as st

from conftest import NEAR_EP_REJECTED, assert_no_child_left, fail_in_child, near_ep_matrix
from nhgeo import bounds, cli, geometry, response, serialize, topology
from nhgeo.cli import load_config, main
from nhgeo.errors import ConfigError, ExceptionalPointError
from nhgeo.models import FAMILY_KEYS, RMParams, bz_mesh, model_from_config
from nhgeo.response import response_spectrum


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(payload))
    return str(path)


def test_load_config_defaults(monkeypatch):
    monkeypatch.setattr(serialize, "_usable_cpus", lambda: 6)
    cfg = load_config(None, {})
    assert cfg["model"]["family"] == "rice_mele"
    assert cfg["grid"] == {"nx": 64, "ny": 64}
    assert cfg["threads"] == 6  # resolved per run, not at import


def test_load_config_overrides(tmp_path):
    path = _write(tmp_path, "run.yaml", {"model": {"gamma": 0.5},
                                         "grid": {"nx": 16, "ny": 24}, "threads": 2})
    cfg = load_config(path, {"grid": "32x40", "threads": 3})
    assert cfg["model"]["gamma"] == 0.5
    assert cfg["grid"] == {"nx": 32, "ny": 40}
    assert cfg["threads"] == 3
    cfg = load_config(path, {"grid": None, "threads": None})
    assert cfg["grid"] == {"nx": 16, "ny": 24}
    assert cfg["threads"] == 2


def test_load_config_validation(tmp_path):
    with pytest.raises(ConfigError):
        load_config(_write(tmp_path, "bad.yaml", {"grid": {"nx": 4, "ny": 4}}), {})
    with pytest.raises(ConfigError):
        load_config(_write(tmp_path, "bad2.yaml",
                           {"response": {"eta": -1.0}}), {})


@pytest.mark.parametrize("command, section, flags", [
    ("optical-weight", {"sweep": 3}, []),
    ("optical-weight", {"sweep": [0.5, 1.0]}, []),
    ("optical-weight", {"sweep": {"Gamma": 5}}, []),
    ("optical-weight", {"model": 3}, []),
    *((command, section, []) for command in ("scan", "chern", "bounds", "optical-weight",
                                             "lindblad-check")
      for section in ({"output": 3}, {"output": {"dir": 3}})),
    ("scan", {"output": 3}, ["--out", "o"]),  # the flag sets a key of a non-mapping
])
def test_cli_malformed_section_exit_2(tmp_path, capsys, monkeypatch, command, section, flags):
    # a section of the wrong type is a config error before any work
    monkeypatch.chdir(tmp_path)
    assert main([command, "--config", _write(tmp_path, "m.yaml", section), *flags]) == 2
    assert capsys.readouterr().err.startswith("config error: ")
    assert os.listdir(tmp_path) == ["m.yaml"]


def test_cli_bad_config_exit_2(tmp_path):
    path = tmp_path / "broken.yaml"
    path.write_text("grid: {nx: 4, ny: 4}\n")
    assert main(["scan", "--config", str(path)]) == 2
    assert main(["scan", "--config", str(tmp_path / "missing.yaml")]) == 2


@pytest.mark.parametrize("text", ["grid: {nx: 8\n", "[1, 2]\n"], ids=["malformed", "list_root"])
def test_cli_unreadable_config_exit_2(tmp_path, capsys, monkeypatch, text):
    # neither malformed YAML nor a root that is not a mapping reaches a command
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad.yaml").write_text(text)
    assert main(["scan", "--config", "bad.yaml"]) == 2
    assert capsys.readouterr().err.startswith("config error: ")
    assert os.listdir(tmp_path) == ["bad.yaml"]


THREE_BAND = {"family": "constant",
              "matrix": [[1.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 3.0]]}
COMMANDS = ["scan", "chern", "bounds", "optical-weight", "lindblad-check"]


@pytest.mark.parametrize("command, config", [
    ("scan", {"threads": "x"}),
    ("scan", {"threads": float("inf")}),
    ("scan", {"band": 2.5}),
    ("scan", {"response": {"eta": "abc"}}),
    ("scan", {"model": {"gamma": float("nan")}}),
    ("scan", {"model": THREE_BAND}),
    ("scan", {"model": {"derivative": {"kind": "central", "step": 1.0}}}),
    ("chern", {"model": {"gama": 0.5}}),
    ("lindblad-check", {"response": {"omega_count": "abc"}}),
    ("lindblad-check", {"response": {"omega_max": float("inf")}}),
    ("bounds", {"response": {"k_samples": 0}}),
    ("bounds", {"response": {"beta": "hot"}}),
    ("chern", {"chern": {"curvature_grid": "abc"}}),
    ("chern", {"chern": {"curvature_grid": 4}}),
    ("chern", {"chern": {"curvature_grid": 10**400}}),
    ("bounds", {"tolerances": {"psd": "abc"}}),
    ("bounds", {"tolerances": {"bound": float("nan")}}),
    ("bounds", {"tolerances": {"qgt": -1e-10}}),
], ids=["threads_text", "threads_inf", "band_fraction", "eta_text", "gamma_nan", "three_band_constant",
        "model_derivative_key", "model_key_typo",
        "lindblad_omega_count_text", "lindblad_omega_max_inf", "bounds_k_samples_zero",
        "bounds_beta_text", "chern_curvature_grid_text", "chern_curvature_grid_small",
        "chern_curvature_grid_overflow",
        "bounds_psd_text", "bounds_bound_nan", "bounds_qgt_negative"])
def test_cli_scan_bad_input_exit_2(tmp_path, command, config):
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


@pytest.mark.parametrize("command, config, key", [
    ("optical-weight", {"sweeps": {"Gamma": [0.5]}}, "sweeps"),
    ("scan", {"gird": {"nx": 8, "ny": 8}}, "gird"),
    ("lindblad-check", {"response": {"omega_cout": 11}}, "response.omega_cout"),
    ("bounds", {"tolerances": {"bnd": 1e-9}}, "tolerances.bnd"),
    ("chern", {"chern": {"grid": 33}}, "chern.grid"),
])
def test_cli_unknown_key_exit_2(tmp_path, capsys, monkeypatch, command, config, key):
    # a misspelt key would otherwise run the defaults it meant to replace
    monkeypatch.chdir(tmp_path)
    assert main([command, "--config", _write(tmp_path, "typo.yaml", config)]) == 2
    assert capsys.readouterr().err == f"config error: unknown config key {key}\n"
    assert os.listdir(tmp_path) == ["typo.yaml"]


@pytest.mark.parametrize("model, key", [
    ({"matrix": [[1.0, 0.0], [0.0, -1.0]]}, "matrix"),
    ({"family": "constant", "matrix": [[1.0, 0.5], [0.2, -1.0]], "t": 3.0}, "t"),
    ({"family": "constant", "matrix": [[1.0, 0.5], [0.2, -1.0]], "Gamma": 1.0}, "Gamma"),
], ids=["matrix_under_rice_mele", "t_under_constant", "Gamma_under_constant"])
@pytest.mark.parametrize("command", COMMANDS)
def test_cli_other_family_key_exit_2(tmp_path, capsys, monkeypatch, command, model, key):
    # each family takes only its own keys: the other family's key is not ignored
    monkeypatch.chdir(tmp_path)
    cfg = _write(tmp_path, "f.yaml", {"model": model, "sweep": {"Gamma": [0.5]}})
    assert main([command, "--grid", "8", "--config", cfg]) == 2
    family = model.get("family", "rice_mele")
    assert capsys.readouterr().err.startswith(
        f"config error: unknown {family} model key(s) {key}; known: ")
    assert os.listdir(tmp_path) == ["f.yaml"]


@pytest.mark.parametrize("family", [[1, 2], {"rice_mele": 1}, None, 3, "rice-mele"])
def test_cli_unknown_family_exit_2(tmp_path, capsys, monkeypatch, family):
    monkeypatch.chdir(tmp_path)
    cfg = _write(tmp_path, "f.yaml", {"model": {"family": family}})
    assert main(["scan", "--grid", "8", "--config", cfg]) == 2
    assert capsys.readouterr().err.startswith("config error: unknown model family ")
    assert os.listdir(tmp_path) == ["f.yaml"]


@pytest.mark.parametrize("gamma", ["fast", float("nan"), float("inf"), -1.0, True, 1e200])
@pytest.mark.parametrize("command", ["bounds", "lindblad-check"])
def test_cli_constant_bath_rate_must_be_a_rate(tmp_path, capsys, monkeypatch, command, gamma):
    # the constant family's gamma is the checks' bath rate: a finite number
    # >= 0 within the parameter scale, as the Rice-Mele gamma
    monkeypatch.chdir(tmp_path)
    cfg = _write(tmp_path, "c.yaml", {"model": {"family": "constant", "gamma": gamma,
                                                "matrix": [[1.0, 0.5], [0.2, -1.0]]}})
    assert main([command, "--grid", "8", "--config", cfg]) == 2
    assert os.listdir(tmp_path) == ["c.yaml"]
    assert "constant" in capsys.readouterr().err


@pytest.mark.parametrize("config, key", [
    ({"band": True}, "band"),                 # an int, which true would make band 1
    ({"response": {"eta": True}}, "response.eta"),  # a float, which true would make 1.0
    ({"threads": True}, "threads"),           # an optional int, which true would make 1
])
def test_cli_number_rejects_a_boolean(tmp_path, capsys, monkeypatch, config, key):
    monkeypatch.chdir(tmp_path)
    assert main(["scan", "--config", _write(tmp_path, "b.yaml", config)]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {key} must be a finite ")
    assert os.listdir(tmp_path) == ["b.yaml"]


@pytest.mark.parametrize("key", [f.name for f in fields(RMParams) if isinstance(f.default, float)])
def test_cli_rice_mele_parameter_rejects_a_boolean(tmp_path, capsys, monkeypatch, key):
    # float(true) is 1.0: gamma: true would run as gamma = 1 and exit 0,
    # dz_offset: true as 1.0 and exit 4
    monkeypatch.chdir(tmp_path)
    cfg = _write(tmp_path, "b.yaml", {"model": {key: True}})
    assert main(["scan", "--grid", "8", "--config", cfg]) == 2
    assert capsys.readouterr().err.startswith(
        f"config error: rice_mele parameter {key} must be a number, got True")
    assert os.listdir(tmp_path) == ["b.yaml"]


@pytest.mark.parametrize("text, bad", [("[true, '0.5']", "sweep.Gamma[0]"),
                                       ("[0.5, '0.5']", "sweep.Gamma[1]"),
                                       ("[0.0, .nan]", "sweep.Gamma[1]"),
                                       ("[0.0, [1.0]]", "sweep.Gamma[1]")])
def test_cli_sweep_values_must_be_finite_numbers(tmp_path, capsys, monkeypatch, text, bad):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "s.yaml").write_text(f"sweep: {{Gamma: {text}}}\n")
    assert main(["optical-weight", "--config", "s.yaml"]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {bad} must be a ")
    assert os.listdir(tmp_path) == ["s.yaml"]


def test_cli_sweep_values_kept_as_given(tmp_path):
    (tmp_path / "s.yaml").write_text("sweep: {Gamma: [0, 1.5, 2]}\n")
    sweep = load_config(str(tmp_path / "s.yaml"), {})["sweep"]["Gamma"]
    assert sweep == [0, 1.5, 2] and [type(g) for g in sweep] == [int, float, int]


def test_cli_gamma_sweep_of_a_family_without_gamma_exit_2(tmp_path, capsys):
    # every row of a constant model would be the same: refused before any is solved
    cfg = _write(tmp_path, "c.yaml", {"model": {"family": "constant",
                                                "matrix": [[1.0, 0.5], [0.2, -1.0]]},
                                      "grid": {"nx": 8, "ny": 8},
                                      "sweep": {"Gamma": [0.0, 2.0]}})
    out = tmp_path / "o"
    assert main(["optical-weight", "--config", cfg, "--out", str(out)]) == 2
    streams = capsys.readouterr()
    assert streams.out == "" and "constant family has no Gamma" in streams.err
    assert not out.exists()


def test_cli_gamma_sweep_bad_value_exit_2_before_output(tmp_path, capsys):
    # every sweep model is built before the output directory exists
    cfg = _write(tmp_path, "s.yaml", {"grid": {"nx": 8, "ny": 8},
                                      "sweep": {"Gamma": [0.0, 1.0e+300]}})
    out = tmp_path / "o"
    assert main(["optical-weight", "--config", cfg, "--out", str(out)]) == 2
    streams = capsys.readouterr()
    assert streams.out == "" and "exceeds" in streams.err
    assert not out.exists()


def test_cli_gamma_sweep_rows_are_the_models_of_each_gamma(tmp_path, monkeypatch):
    # each row's model is the configured one with its Gamma replaced
    seen = []
    solve = response.optical_weight_bz

    def watched(model, **kwargs):
        seen.append(model.params)
        return solve(model, **kwargs)

    monkeypatch.setattr(response, "optical_weight_bz", watched)
    cfg = _write(tmp_path, "s.yaml", {"model": {"t": 1.25, "gamma": 0.5, "Gamma": 9.0,
                                                "dz_offset": 0.125},
                                      "grid": {"nx": 8, "ny": 8}, "sweep": {"Gamma": [0, 1.5]}})
    assert main(["optical-weight", "--config", cfg, "--out", str(tmp_path / "o"),
                 "--threads", "1"]) == 0
    assert seen == [RMParams(t=1.25, gamma=0.5, Gamma=g, dz_offset=0.125) for g in (0.0, 1.5)]
    assert all(type(p.Gamma) is float for p in seen)


@pytest.mark.parametrize("model, echoed", [
    ({}, {"family": "rice_mele", "t": 1.0, "delta": 1.0, "Delta": 1.0, "gamma": 1.0,
          "Gamma": 0.0, "variant": "supplemental", "dz_offset": 0.0}),
    ({"t": 2, "dz_offset": 0.25, "variant": "appendix"},
     {"family": "rice_mele", "t": 2.0, "delta": 1.0, "Delta": 1.0, "gamma": 1.0,
      "Gamma": 0.0, "variant": "appendix", "dz_offset": 0.25}),
    ({"family": "constant", "matrix": [[1, 0.5], [0.2, -1]]},
     {"family": "constant", "gamma": 1.0, "matrix": [[1, 0.5], [0.2, -1]]}),
], ids=["defaults", "rice_mele_given", "constant"])
def test_cli_report_echoes_the_model_that_ran(tmp_path, model, echoed):
    # a Rice-Mele report names every parameter, a defaulted dz_offset included
    cfg = _write(tmp_path, "m.yaml", {"model": model})
    out = tmp_path / "o"
    assert main(["lindblad-check", "--config", cfg, "--out", str(out)]) == 0
    assert json.loads((out / "lindblad.json").read_text())["config"]["model"] == echoed


@pytest.mark.parametrize("value, code", [(True, 4), (False, 0), ("no", 2), (1, 2), ("false", 2)])
def test_cli_invert_bath_must_be_boolean(tmp_path, capsys, value, code):
    # a quoted or numeric flag is not read by its truthiness
    cfg = _write(tmp_path, "i.yaml", {"response": {"invert_bath": value, "omega_count": 21}})
    out = tmp_path / "o"
    assert main(["lindblad-check", "--config", cfg, "--out", str(out)]) == code
    if code == 2:
        assert "response.invert_bath must be true or false" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("command", COMMANDS)
def test_cli_parameter_scale_overflow_exit_2(tmp_path, capsys, command):
    # (|t| + |delta| + |Delta| + gamma/2 + |dz_offset|)^2 overflows a float
    cfg = _write(tmp_path, "big.yaml", {"model": {"t": 1.0e200}})
    out = tmp_path / "o"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("config error: the parameter scale")
    assert not out.exists()


def test_cli_failed_report_write_keeps_previous_report(tmp_path, capsys, monkeypatch):
    out = tmp_path / "o"
    assert main(["lindblad-check", "--out", str(out)]) == 0
    before = (out / "lindblad.json").read_bytes()

    def disk_full(doc, fh, **kwargs):
        fh.write('{"config": ')
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(serialize.json, "dump", disk_full)
    cfg = _write(tmp_path, "l.yaml", {"response": {"omega_count": 11}})
    assert main(["lindblad-check", "--config", cfg, "--out", str(out)]) == 2
    assert "cannot write output" in capsys.readouterr().err
    assert os.listdir(out) == ["lindblad.json"]
    assert (out / "lindblad.json").read_bytes() == before


def test_readme_example_config_matches_the_key_table(tmp_path):
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("Example configuration", 1)[1].split("```yaml\n", 1)[1]
    path = tmp_path / "readme.yaml"
    path.write_text(block.split("```", 1)[0])
    cfg = load_config(str(path), {})
    shown = {f"{name}.{key}" if isinstance(value, dict) else name: val
             for name, value in yaml.safe_load(path.read_text()).items()
             for key, val in (value.items() if isinstance(value, dict) else [(None, value)])}
    table = {name for name in cli.CONFIG_KEYS if not name.startswith("model.")}
    assert {name for name in shown if not name.startswith("model.")} == table
    assert {name[len("model."):] for name in shown if name.startswith("model.")} \
        == set(FAMILY_KEYS["rice_mele"])
    # every shown value but threads is the default, the model defaults included:
    # the CLI's own (family, gamma), else that of RMParams
    for name in shown.keys() & cli.CONFIG_KEYS.keys() - {"threads"}:
        section, _, key = name.rpartition(".")
        default = cli.CONFIG_KEYS[name][0]
        assert shown[name] == default == (cfg[section] if section else cfg)[key], name
    for f in fields(RMParams):
        if f"model.{f.name}" not in cli.CONFIG_KEYS:
            assert shown[f"model.{f.name}"] == f.default, f.name


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
        b1 = pathlib.Path(out1, name).read_bytes()
        b2 = pathlib.Path(out2, name).read_bytes()
        # config echo differs in the thread count only; strip before diffing
        if name.endswith(".json"):
            # config echo reflects the differing out dir and thread count
            d1, d2 = json.loads(b1), json.loads(b2)
            d1.pop("config")
            d2.pop("config")
            assert d1 == d2
        else:
            assert b1 == b2


def test_cli_csv_bytes_identical_across_forking_threads(tmp_path, csv_forks):
    # 3-row CSV blocks: the 16^2 scan and the bounds tables really fork
    cfg = _write(tmp_path, "t.yaml", {"response": {"k_samples": 4, "omega_count": 11}})
    outs = []
    for threads in (1, 2, 4):
        out = tmp_path / f"t{threads}"
        del csv_forks[:]
        for command in ("scan", "bounds"):
            assert main([command, "--config", cfg, "--grid", "16", "--out", str(out),
                         "--threads", str(threads)]) == 0
        assert bool(csv_forks) == (threads > 1)
        outs.append(out)
    names = sorted(f for f in os.listdir(outs[0]) if f.endswith(".csv"))
    assert names == ["geometry.csv"] + sorted(
        f"margins_{r}.csv" for r in ("absorptivepsd", "chernchain", "localcurvature",
                                     "opticalweight", "psd_ll", "psd_rr", "qgtinequality"))
    for out in outs[1:]:
        assert sorted(os.listdir(out)) == sorted(os.listdir(outs[0]))
        for name in names:
            assert (out / name).read_bytes() == (outs[0] / name).read_bytes()
    assert_no_child_left()


@pytest.mark.parametrize("case", ["out_is_a_file", "csv_is_a_directory", "worker_fails"])
def test_cli_unwritable_output_exit_2(tmp_path, capsys, monkeypatch, request, case):
    out = tmp_path / "o"
    if case == "out_is_a_file":
        out.write_text("")
    elif case == "csv_is_a_directory":
        (out / "geometry.csv").mkdir(parents=True)
    else:
        csv_forks = request.getfixturevalue("csv_forks")
        fail_in_child(monkeypatch)
    assert main(["scan", "--grid", "16", "--threads", "4", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"config error: cannot write output {out}")
    # neither a truncated CSV nor a temporary file is left
    if case == "worker_fails":
        assert len(csv_forks) == 3
        assert os.listdir(out) == []
    elif case == "csv_is_a_directory":
        assert os.listdir(out) == ["geometry.csv"] and not os.listdir(out / "geometry.csv")
    assert_no_child_left()


@pytest.mark.parametrize("command, report", [("chern", "chern.json"),
                                             ("bounds", "bounds.json"),
                                             ("optical-weight", "optical_weight.json")])
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
        if command != "optical-weight":  # the sweep report carries no timing
            doc.pop("timing_seconds")
        assert doc["config"].pop("threads") == threads
        assert doc["config"].pop("output") == {"dir": str(out)}
        docs.append(doc)
    assert docs[0] == docs[1] == docs[2]


def test_cli_scan_csv_shape(tmp_path):
    out = str(tmp_path / "scan")
    assert main(["scan", "--grid", "8", "--out", out]) == 0
    lines = pathlib.Path(out, "geometry.csv").read_text().splitlines()
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


def test_cli_optical_weight_exceptional_exit_3(tmp_path, capsys):
    # a constant model has no Gamma: its sweep takes one value
    cfg = _write(tmp_path, "ep.yaml",
                 {"model": {"family": "constant",
                            "matrix": [[0.0, 1.0], [0.0, 0.0]]},
                  "grid": {"nx": 8, "ny": 8}, "sweep": {"Gamma": [0.0]}})
    assert main(["optical-weight", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert "numerical error" in err
    # the stencil path lists the sorted (kx, ky) pairs of its 8x8 weight mesh,
    # as scan does, not the indices of its flat batch
    listed = [line.split("at k = ", 1)[1] for line in err.splitlines() if "at k = " in line]
    kx, ky = bz_mesh(8, 8)
    want = sorted(zip(kx.ravel().tolist(), ky.ravel().tolist()))[:20]
    assert listed == [str(pt) for pt in want]


@pytest.mark.parametrize("model", [
    {"t": 4e153, "delta": 4e153, "Delta": 4e153},
    {"Gamma": 1e300},
    {"family": "constant", "matrix": [[[0, 0], [0, 0]], [[-1e200, 0], [0, -0.25]]]},
], ids=["rice_mele_4e153", "Gamma_1e300", "constant_1e200"])
@pytest.mark.parametrize("command", ["chern", "scan", "bounds"])
def test_cli_scale_beyond_the_solve_exit_2(tmp_path, capsys, model, command):
    # each passed the old check and then overflowed a square of the two-band
    # solve or the kernel: a RuntimeWarning, or a traceback under -W error
    cfg = _write(tmp_path, "big.yaml", {"model": model})
    out = tmp_path / "o"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main([command, "--grid", "8", "--config", cfg, "--out", str(out)]) == 2
    assert "overflows" in capsys.readouterr().err
    assert not out.exists()


def test_cli_bounds_large_scale_without_overflow(tmp_path):
    # the absorptive stack's entries grow with the scale; its smallest
    # eigenvalue squared them unscaled and overflowed from about 1e100
    cfg = _write(tmp_path, "1e100.yaml", {"model": {"t": 1e100, "delta": 1e100, "Delta": 1e100}})
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["bounds", "--grid", "8", "--config", cfg, "--out", str(tmp_path / "o")]) \
            in (0, 4)


def test_cli_chern_parallel_right_vectors_exit_3(tmp_path, capsys):
    # the right vectors of this gapped matrix are numerically parallel, so the
    # dual basis has a zero Gram denominator: exit 3, not a RuntimeWarning
    cfg = _write(tmp_path, "parallel.yaml",
                 {"model": {"family": "constant",
                            "matrix": [[[0, 0], [0, 0]], [[-1e150, 0], [0, -0.25]]]}})
    assert main(["chern", "--grid", "8", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
    assert "numerical error: right eigenvectors numerically parallel" in capsys.readouterr().err


def test_cli_scan_non_real_curvature_sum_exit_3(tmp_path, capsys):
    # gamma = 1, dz_offset = 1: the bands braid, so the curvature sum is not
    # real (Im = -2.1e-3 at 64^2); scan reports it as a numerical failure
    cfg = _write(tmp_path, "braid.yaml", {"model": {"gamma": 1.0, "dz_offset": 1.0},
                                          "grid": {"nx": 64, "ny": 64}})
    out = tmp_path / "o"
    assert main(["scan", "--config", cfg, "--out", str(out)]) == 3
    assert "imaginary part" in capsys.readouterr().err
    assert not (out / "geometry.csv").exists()


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
    doc = json.loads(pathlib.Path(out, "chern.json").read_text())
    assert doc["chern_plaquette"] == 1
    assert doc["schema_version"] == 1


def test_cli_chern_trivial(tmp_path, capsys):
    cfg = _write(tmp_path, "t.yaml", {"model": {"family": "rice_mele",
                                                "gamma": 1.0, "dz_offset": 10.0},
                                      "chern": {"curvature_grid": 33}})
    assert main(["chern", "--config", cfg, "--grid", "24",
                 "--out", str(tmp_path / "o")]) == 0
    assert "C_NH = 0" in capsys.readouterr().out


def test_cli_chern_trivial_sum_prints_unsigned_zero(tmp_path, capsys):
    # the 16^2 curvature sum of this trivial phase is -4.1e-7, which rounds to zero
    cfg = _write(tmp_path, "t.yaml", {"model": {"family": "rice_mele",
                                                "gamma": 0.5, "dz_offset": 3.5},
                                      "chern": {"curvature_grid": 16}})
    assert main(["chern", "--config", cfg, "--grid", "8", "--out", str(tmp_path / "o")]) == 0
    assert "curvature sum = 0.000000 (16^2)" in capsys.readouterr().out


def test_cli_bounds_pass_and_outputs(tmp_path):
    out = str(tmp_path / "bounds")
    cfg = _write(tmp_path, "b.yaml", {"grid": {"nx": 16, "ny": 16},
                                      "response": {"k_samples": 4,
                                                   "omega_count": 21}})
    assert main(["bounds", "--config", cfg, "--out", out]) == 0
    doc = json.loads(pathlib.Path(out, "bounds.json").read_text())
    names = {r["name"] for r in doc["reports"]}
    assert {"LocalCurvature", "QGTInequality", "PSD_RR", "PSD_LL",
            "ChernChain", "OpticalWeight", "AbsorptivePSD"} <= names
    assert all(r["passed"] for r in doc["reports"])
    assert os.path.exists(os.path.join(out, "margins_psd_rr.csv"))


def test_cli_bounds_scans_grid_once(tmp_path, monkeypatch):
    # the curvature chain reuses the grid of the local checks: the one
    # pass that solves a geometry mesh runs once
    calls = []
    scan_chunks = geometry._scan_chunks

    def counting(model, band, kxg, kyg, *rest):
        calls.append(kxg.shape)
        return scan_chunks(model, band, kxg, kyg, *rest)

    monkeypatch.setattr(geometry, "_scan_chunks", counting)
    monkeypatch.setattr(topology, "_scan_chunks", counting)
    cfg = _write(tmp_path, "b.yaml", {"grid": {"nx": 16, "ny": 16},
                                      "response": {"k_samples": 4, "omega_count": 11}})
    assert main(["bounds", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    assert calls == [(16, 16)]


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


def test_cli_tolerances_reach_every_report(tmp_path, monkeypatch):
    tol = {"bound": 0.25, "psd": 0.125, "qgt": 0.0625}
    cfg = _write(tmp_path, "tol.yaml", {"tolerances": tol, "sweep": {"Gamma": [0.5]}})
    out = tmp_path / "o"
    for command in ("bounds", "chern"):
        assert main([command, "--config", cfg, "--grid", "16", "--out", str(out)]) == 0
    reports = json.loads((out / "bounds.json").read_text())["reports"]
    assert {r["name"]: r["tolerance"] for r in reports} == {
        "LocalCurvature": 0.25, "ChernChain": 0.25, "OpticalWeight": 0.25,
        "QGTInequality": 0.0625, "PSD_RR": 0.125, "PSD_LL": 0.125,
        "AbsorptivePSD": 1e-10}
    assert json.loads((out / "chern.json").read_text())["chain"]["tolerance"] == 0.25
    # the optical-weight sweep reports no tolerance; watch its verdicts instead
    verdicts = []
    check = bounds.check_optical_weight_bound

    def watched(*args, **kwargs):
        verdicts.append(check(*args, **kwargs))
        return verdicts[-1]

    monkeypatch.setattr(bounds, "check_optical_weight_bound", watched)
    assert main(["optical-weight", "--config", cfg, "--grid", "16", "--out", str(out)]) == 0
    assert [rep.tolerance for rep in verdicts] == [0.25]


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


def test_cli_optical_weight(tmp_path, capsys):
    out = str(tmp_path / "w")
    cfg = _write(tmp_path, "w.yaml", {"grid": {"nx": 16, "ny": 16},
                                      "sweep": {"Gamma": [0.0, 1.5]}})
    assert main(["optical-weight", "--config", cfg, "--out", out]) == 0
    printed = capsys.readouterr().out.splitlines()
    lines = (tmp_path / "w" / "optical_weight.csv").read_text().splitlines()
    assert len(lines) == 3
    header = lines[0].split(",")
    assert header[0] == "Gamma"
    assert "weight_numeric" in header and "weight_closed" in header
    row = dict(zip(header, (float(x) for x in lines[1].split(","))))
    assert row["Gamma"] == 0.0
    assert row["margin"] > 0
    # each printed line shows the CSV columns of its row
    for line, printed_line in zip(lines[1:], printed, strict=True):
        row = dict(zip(header, (float(x) for x in line.split(","))))
        assert printed_line == (f"Gamma={row['Gamma']}: weight/2pi={row['bound_lhs']:+.6f} "
                                f"bound={row['bound_rhs']:+.6f} margin={row['margin']:+.6f}")


SWEEP = [0.0, 0.5, 1.0, 1.5]


def _sweep_runs(tmp_path, capsys, forks, tag, threads_list=(1, 2, 4)):
    """(exit code, stdout, stderr, output files) of a 4-value optical-weight
    sweep at each thread count; asserts the sweep's forks and that no process
    is left.  The output directory is masked in the streams."""
    cfg = _write(tmp_path, "sweep.yaml", {"grid": {"nx": 16, "ny": 16},
                                          "sweep": {"Gamma": SWEEP}})
    runs = []
    for threads in threads_list:
        out = tmp_path / f"{tag}{threads}"
        del forks[:]
        code = main(["optical-weight", "--config", cfg, "--out", str(out),
                     "--threads", str(threads)])
        streams = capsys.readouterr()
        assert len(forks) == min(threads, serialize._usable_cpus(), len(SWEEP)) - 1
        files = {f: (out / f).read_bytes() for f in sorted(os.listdir(out))}
        if "optical_weight.json" in files:  # the echoed thread count differs
            files["optical_weight.json"] = json.loads(files["optical_weight.json"])["rows"]
        runs.append((code, streams.out.replace(str(out), "OUT"),
                     streams.err.replace(str(out), "OUT"), files))
        assert_no_child_left()
    return runs


def test_cli_optical_weight_sweep_forks_and_keeps_bytes(tmp_path, capsys, monkeypatch,
                                                       csv_forks):
    # 8 usable CPUs: --threads 2 and 4 solve 1 and 3 parts of the sweep in
    # forked processes; the CSV, the JSON rows and stdout do not change
    runs = _sweep_runs(tmp_path, capsys, csv_forks, "t")
    assert runs[0][0] == 0 and len(runs[0][1].splitlines()) == len(SWEEP)
    assert sorted(runs[0][3]) == ["optical_weight.csv", "optical_weight.json"]
    assert runs[0] == runs[1] == runs[2]
    # 2 usable CPUs cap --threads 4 at one forked part
    monkeypatch.setattr(serialize, "_usable_cpus", lambda: 2)
    assert _sweep_runs(tmp_path, capsys, csv_forks, "c", threads_list=(4,)) == runs[:1]


def test_cli_optical_weight_error_in_forked_part(tmp_path, capsys, monkeypatch, csv_forks):
    # Gamma = 1.0 is the first row of a forked part at --threads 2 and the
    # third part at --threads 4; its error reaches the parent as at --threads 1
    solve = response.optical_weight_bz

    def exceptional(model, **kwargs):
        if model.params.Gamma == 1.0:
            raise ExceptionalPointError("gap closes", points=[(0.25, -1.5)])
        return solve(model, **kwargs)

    monkeypatch.setattr(response, "optical_weight_bz", exceptional)
    runs = _sweep_runs(tmp_path, capsys, csv_forks, "e")
    code, out, err, files = runs[0]
    assert code == 3 and len(out.splitlines()) == 2 and files == {}
    assert err == "numerical error: gap closes\n  at k = (0.25, -1.5)\n"
    assert runs[0] == runs[1] == runs[2]


def test_cli_optical_weight_forked_part_dies(tmp_path, capsys, monkeypatch, csv_forks):
    # every forked process dies; the parent solves their parts itself
    parent, solve = os.getpid(), response.optical_weight_bz

    def dying(model, **kwargs):
        if os.getpid() != parent:
            raise MemoryError("sweep process dies")
        return solve(model, **kwargs)

    reference = _sweep_runs(tmp_path, capsys, csv_forks, "r", threads_list=(1,))
    monkeypatch.setattr(response, "optical_weight_bz", dying)
    runs = _sweep_runs(tmp_path, capsys, csv_forks, "d", threads_list=(2, 4))
    assert reference[0][0] == 0
    assert runs[0] == runs[1] == reference[0]


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
    lines = pathlib.Path(out, "optical_weight.csv").read_text().splitlines()
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
    doc = json.loads(pathlib.Path(out, "lindblad.json").read_text())
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


@pytest.mark.parametrize("omega_min", [0.0, 0.5])
@pytest.mark.parametrize("command", ["lindblad-check", "bounds"])
def test_cli_zero_gamma_is_not_replaced(tmp_path, capsys, command, omega_min):
    # gamma = 0 is a zero level decay, not the default rate 1.0: with Gamma = 1
    # the model is non-Hermitian, and the levels the checks scan are undamped,
    # on resonance (omega = 0) or off it
    cfg = _write(tmp_path, "z.yaml", {"model": {"gamma": 0.0, "Gamma": 1.0},
                                      "response": {"k_samples": 4, "omega_count": 11,
                                                   "omega_min": omega_min}})
    assert main([command, "--grid", "8", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
    assert "Im eps_m = 0" in capsys.readouterr().err


@pytest.mark.parametrize("model", [{"gamma": 0.0, "Gamma": 0.0},
                                   {"family": "constant", "gamma": 0.0,
                                    "matrix": [[1.0, 0.5], [0.5, -1.0]]}],
                         ids=["rice_mele", "constant"])
def test_cli_hermitian_model_without_bath_skips_the_absorptive_report(tmp_path, capsys, model):
    # no decay anywhere: bounds checks the rest, as lindblad-check finds
    # nothing to check
    cfg = _write(tmp_path, "h.yaml", {"model": model,
                                      "response": {"k_samples": 4, "omega_count": 11}})
    out = tmp_path / "o"
    assert main(["bounds", "--grid", "8", "--config", cfg, "--out", str(out)]) == 0
    assert "AbsorptivePSD: skipped" in capsys.readouterr().out
    names = [r["name"] for r in json.loads((out / "bounds.json").read_text())["reports"]]
    assert names == ["LocalCurvature", "QGTInequality", "PSD_RR", "PSD_LL", "ChernChain",
                     "OpticalWeight"]
    assert not (out / "margins_absorptivepsd.csv").exists()
    assert main(["lindblad-check", "--config", cfg, "--out", str(out)]) == 0
    assert json.loads((out / "lindblad.json").read_text())["hermitian"] is True


@pytest.mark.parametrize("t, gamma", [(1e-3, 1e-3), (1.0, 1.0), (3e3, 3e3), (1e7, 1e7),
                                      (1e10, 1e10), (1e50, 1e50), (1.0, 1e-4), (1.0, 1e-6),
                                      (1e7, 1.0)])
def test_cli_lindblad_roundtrip_is_relative(tmp_path, capsys, t, gamma):
    # the residual is relative to max|H(0)|, whose ulp sets its roundoff: at
    # t = gamma = 1e7 the absolute residual, 9.3e-10, is ~1e-16 of the scale,
    # and a weak gamma at t = 1 is no false failure (relative to the target,
    # gamma = 1e-4 read 2.2e-12)
    cfg = _write(tmp_path, "s.yaml", {"model": {"t": t, "delta": t, "Delta": t,
                                                "gamma": gamma}})
    out = tmp_path / "o"
    assert main(["lindblad-check", "--config", cfg, "--out", str(out)]) == 0
    assert json.loads((out / "lindblad.json").read_text())["roundtrip_residual"] < 1e-15


# -- the two-outcome contract over random configurations ----------------------

_MAGNITUDES = [0.0, 1e-300, 1e-16, 1e-3, 0.5, 1.0, 3.0, 1e8, 1e150]
_SIGNED = st.sampled_from(_MAGNITUDES + [-x for x in _MAGNITUDES[1:]])
_RATE = st.one_of(st.sampled_from(_MAGNITUDES), st.just(-0.5))
_RM_MODEL = st.fixed_dictionaries({}, optional={
    "t": _SIGNED, "delta": _SIGNED, "Delta": _SIGNED, "dz_offset": _SIGNED,
    "gamma": _RATE, "Gamma": _RATE, "variant": st.sampled_from(["supplemental", "appendix"])})
_CONSTANT_MODEL = st.fixed_dictionaries(
    {"family": st.just("constant"),
     "matrix": st.lists(st.lists(st.lists(_SIGNED, min_size=2, max_size=2),
                                 min_size=2, max_size=2), min_size=2, max_size=2)},
    optional={"gamma": _RATE})
_CONFIGS = st.fixed_dictionaries({"model": st.one_of(_RM_MODEL, _CONSTANT_MODEL)}, optional={
    "response": st.fixed_dictionaries({}, optional={
        "invert_bath": st.booleans(), "beta": st.sampled_from([None, 0.0, 2.0, 1e8]),
        "k_samples": st.integers(1, 4), "omega_count": st.integers(1, 11),
        "eta": st.sampled_from([1e-3, 1e-12, 1.0])}),
    "sweep": st.fixed_dictionaries({"Gamma": st.lists(_RATE, min_size=1, max_size=2)}),
    "chern": st.fixed_dictionaries({"curvature_grid": st.integers(8, 12)})})


def _finite_leaves(value):
    """Every number in a JSON document or a list of them is finite."""
    if isinstance(value, dict):
        return all(_finite_leaves(v) for v in value.values())
    if isinstance(value, list):
        return all(_finite_leaves(v) for v in value)
    return not isinstance(value, float) or np.isfinite(value)


@settings(max_examples=80)
@given(command=st.sampled_from(COMMANDS), config=_CONFIGS)
@example(command="scan", config={"model": {"matrix": [[1.0, 0.0], [0.0, -1.0]]}})
@example(command="bounds", config={"model": {"family": "constant", "t": 3.0,
                                             "matrix": [[1.0, 0.5], [0.2, -1.0]]}})
@example(command="lindblad-check", config={"model": {"gamma": 0.0, "Gamma": 1.0}})
@example(command="bounds", config={"model": {"gamma": 0.0, "Gamma": 1.0}})
@example(command="chern", config={"model": {"family": [1, 2]}})
@example(command="lindblad-check", config={"model": {"family": "constant", "gamma": "fast",
                                                     "matrix": [[1.0, 0.5], [0.2, -1.0]]}})
def test_cli_outcome_is_finite_output_or_a_typed_error(command, config):
    # exit 0 (finite output), 2 (nothing written), 3 or 4; no traceback and no
    # RuntimeWarning on the way
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "c.yaml")
        with open(path, "w") as fh:
            yaml.safe_dump(config, fh)
        out = os.path.join(tmp, "o")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main([command, "--grid", "8", "--threads", "1", "--config", path,
                         "--out", out])
        assert code in (0, 2, 3, 4)
        if code == 2:
            assert not os.path.exists(out)
        if code == 0:
            for name in os.listdir(out):
                with open(os.path.join(out, name)) as fh:
                    if name.endswith(".json"):
                        assert _finite_leaves(json.load(fh)), name
                    else:
                        rows = [line.split(",") for line in fh.read().splitlines()[1:]]
                        assert rows and np.all(np.isfinite(np.array(rows, dtype=float))), name
