"""Command-line front end: config parsing, BZ sweeps, report generation.

Commands: scan | chern | bounds | optical-weight | lindblad-check.
Configuration comes from a YAML file; --grid/--band/--threads/--out and
the NHGEO_* environment variables override individual entries.  Exit
codes: 0 ok, 2 configuration, 3 numerical (exceptional points or
non-convergence), 4 bound violation.
"""

from __future__ import annotations

import argparse
import copy
import os
import sys
import time

import numpy as np
import yaml

from . import bounds as bounds_mod
from . import lindblad, response, serialize, topology
from .errors import ConfigError, NHGeoError
from .geometry import scan_geometry
from .models import BlochModel, bz_mesh, model_from_config
from .response import TransitionTable, response_spectrum

DEFAULT_CONFIG = {
    "model": {"family": "rice_mele", "t": 1.0, "delta": 1.0, "Delta": 1.0,
              "gamma": 1.0, "Gamma": 0.0, "variant": "supplemental"},
    "grid": {"nx": 64, "ny": 64},
    "band": 0,
    "threads": 1,
    "output": {"dir": "out"},
    "response": {"eta": 1.0e-3, "omega_min": 0.0, "omega_max": 10.0,
                 "omega_count": 81, "invert_bath": False,
                 "k_samples": 16, "beta": None},
    "sweep": {"Gamma": [0.0, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0]},
    "chern": {"curvature_grid": 201},
    "tolerances": {},
}


def _deep_update(base, other):
    for key, val in (other or {}).items():
        if isinstance(val, dict) and isinstance(base.get(key), dict):
            _deep_update(base[key], val)
        else:
            base[key] = val
    return base


def load_config(path=None, cli_overrides=None):
    cfg = copy.deepcopy(DEFAULT_CONFIG)
    if path is not None:
        try:
            with open(path) as fh:
                user = yaml.safe_load(fh) or {}
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}") from exc
        except yaml.YAMLError as exc:
            raise ConfigError(f"malformed config: {exc}") from exc
        if not isinstance(user, dict):
            raise ConfigError("config root must be a mapping")
        _deep_update(cfg, user)

    env_grid = os.environ.get("NHGEO_GRID")
    if env_grid:
        cfg["grid"] = _parse_grid(env_grid)
    if os.environ.get("NHGEO_THREADS"):
        cfg["threads"] = os.environ["NHGEO_THREADS"]
    if os.environ.get("NHGEO_BAND"):
        cfg["band"] = os.environ["NHGEO_BAND"]
    if os.environ.get("NHGEO_OUT"):
        cfg["output"]["dir"] = os.environ["NHGEO_OUT"]

    for key, val in (cli_overrides or {}).items():
        if val is None:
            continue
        if key == "grid":
            cfg["grid"] = _parse_grid(val)
        elif key == "out":
            cfg["output"]["dir"] = val
        else:
            cfg[key] = val

    _validate(cfg)
    return cfg


def _parse_grid(text):
    try:
        if "x" in str(text):
            nx, ny = (int(p) for p in str(text).lower().split("x"))
        else:
            nx = ny = int(text)
    except ValueError as exc:
        raise ConfigError(f"bad grid spec {text!r}") from exc
    return {"nx": nx, "ny": ny}


def _integer(value, name):
    """int(value) for integral input (3, 3.0, "3"); ConfigError otherwise."""
    try:
        out = int(value)
        integral = out == float(value)
    except (TypeError, ValueError):
        integral = False
    if not integral:
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return out


def _validate(cfg):
    """Check the entries every command reads; grid, threads and band become ints."""
    grid = cfg.get("grid", {})
    if not isinstance(grid, dict):
        raise ConfigError("grid must be a mapping with nx and ny")
    grid["nx"] = _integer(grid.get("nx", 0), "grid.nx")
    grid["ny"] = _integer(grid.get("ny", 0), "grid.ny")
    if grid["nx"] < 8 or grid["ny"] < 8:
        raise ConfigError("grid must be at least 8x8")
    try:
        eta = float(cfg["response"].get("eta", 0.0))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"response.eta must be a number: {exc}") from exc
    if not 0.0 < eta < np.inf:
        raise ConfigError("response.eta must be positive and finite")
    cfg["threads"] = _integer(cfg.get("threads", 1), "threads")
    if cfg["threads"] < 1:
        raise ConfigError("threads must be >= 1")
    cfg["band"] = _integer(cfg.get("band", 0), "band")
    if cfg["band"] not in (0, 1):
        raise ConfigError("band must be 0 or 1")


def _ensure_outdir(cfg):
    path = cfg["output"]["dir"]
    os.makedirs(path, exist_ok=True)
    return path


def _model(cfg) -> BlochModel:
    return model_from_config(cfg["model"])


# -- commands -----------------------------------------------------------------

def cmd_scan(cfg):
    out = _ensure_outdir(cfg)
    model = _model(cfg)
    grid = scan_geometry(model, band=cfg["band"], nx=cfg["grid"]["nx"],
                         ny=cfg["grid"]["ny"], workers=cfg["threads"])
    csv_path = os.path.join(out, "geometry.csv")
    serialize.write_geometry_csv(csv_path, grid)
    chern_cv = float(np.real(np.sum(grid.curvature_lr)) * grid.cell_area() / (2 * np.pi))
    serialize.write_report_json(
        os.path.join(out, "geometry.json"),
        {
            "kind": "geometry_scan",
            "band": cfg["band"],
            "grid": [cfg["grid"]["nx"], cfg["grid"]["ny"]],
            "csv": "geometry.csv",
            "chern_from_curvature": chern_cv,
            "max_abs_curvature": float(np.max(np.abs(grid.curvature_lr))),
            "norm_product_range": [float(np.min(grid.norm_product)),
                                   float(np.max(grid.norm_product))],
        },
        config=cfg)
    print(f"scan: wrote {csv_path} ({cfg['grid']['nx']}x{cfg['grid']['ny']})")
    return 0


def cmd_chern(cfg):
    out = _ensure_outdir(cfg)
    model = _model(cfg)
    t0 = time.monotonic()
    result = topology.compute_chern(
        model, band=cfg["band"], n_plaquette=cfg["grid"]["nx"],
        n_curvature=int(cfg["chern"]["curvature_grid"]), workers=cfg["threads"])
    chain = bounds_mod.check_chern_chain(result)
    serialize.write_report_json(
        os.path.join(out, "chern.json"),
        {
            "kind": "chern",
            "chern_plaquette": result.chern_plaquette,
            "chern_curvature": result.chern_curvature,
            "plaquette_residue": result.plaquette_residue,
            "curvature_abs_integral": result.curvature_abs_integral,
            "qgt_bound_integral": result.qgt_bound_integral,
            "chain": serialize.bound_report_summary(chain),
            "timing_seconds": time.monotonic() - t0,
        },
        config=cfg)
    print(f"C_NH = {result.chern_plaquette} "
          f"(plaquette {result.grid_plaquette}^2, residue {result.plaquette_residue:.2e}); "
          f"curvature sum = {result.chern_curvature:.6f} ({result.grid_curvature}^2)")
    print(f"chain: 2pi|C| = {2*np.pi*abs(result.chern_plaquette):.6f} "
          f"<= int|F| = {result.curvature_abs_integral:.6f} "
          f"<= int(|Q|+|Q|) = {result.qgt_bound_integral:.6f}")
    return 0 if chain.passed else 4


def _absorptive_stack(cfg, model):
    """Uniform-decay commuting instance: dressed levels of the Hermitian
    part plus a flat bath of rate gamma/2, current operators as elements."""
    rsp = cfg["response"]
    nx = min(int(cfg["grid"]["nx"]), int(rsp.get("k_samples", 16)))
    kxg, kyg = bz_mesh(nx, nx)
    omegas = np.linspace(float(rsp["omega_min"]), float(rsp["omega_max"]),
                         int(rsp["omega_count"]))
    gamma = float(cfg["model"].get("gamma", 1.0)) or 1.0
    rate = 0.5 * gamma
    if rsp.get("invert_bath"):
        rate = -rate
    beta = rsp.get("beta")
    stack = np.zeros(omegas.shape + (2, 2), dtype=complex)
    for i in range(nx):
        for j in range(nx):
            h = model.hamiltonian(kxg[i, j], kyg[i, j])
            h = 0.5 * (h + h.conj().T)
            evals, vecs = np.linalg.eigh(h)
            ops = tuple(vecs.conj().T @ model.derivative(kxg[i, j], kyg[i, j], ax) @ vecs
                        for ax in (0, 1))
            ops = tuple(0.5 * (o + o.conj().T) for o in ops)
            energies = evals - 1j * rate
            table = TransitionTable(energies=energies, operators=ops)
            if beta is None:
                rho = np.array([1.0, 0.0])
            else:
                w = np.exp(-float(beta) * evals)
                rho = w / w.sum()
            stack += response_spectrum(table, rho, omegas).pi_abs
    return omegas, stack / (nx * nx)


def cmd_bounds(cfg):
    out = _ensure_outdir(cfg)
    model = _model(cfg)
    t0 = time.monotonic()
    tol = cfg.get("tolerances", {}) or {}
    tol_bound = float(tol.get("bound", 1e-9))
    tol_psd = float(tol.get("psd", 1e-12))
    tol_qgt = float(tol.get("qgt", 1e-10))
    reports = []

    grid = scan_geometry(model, band=cfg["band"], nx=cfg["grid"]["nx"],
                         ny=cfg["grid"]["ny"], workers=cfg["threads"])
    reports.append(bounds_mod.check_local_curvature_bound(grid, tolerance=tol_bound))
    reports.append(bounds_mod.check_qgt_inequality(grid, tolerance=tol_qgt))
    reports.append(bounds_mod.check_psd(grid.qgt_rr, name="PSD_RR", tolerance=tol_psd))
    reports.append(bounds_mod.check_psd(grid.qgt_ll, name="PSD_LL", tolerance=tol_psd))

    chern = topology.compute_chern(model, band=cfg["band"],
                                   n_plaquette=cfg["grid"]["nx"],
                                   n_curvature=cfg["grid"]["nx"],
                                   workers=cfg["threads"])
    reports.append(bounds_mod.check_chern_chain(chern))

    weight = response.optical_weight_bz(model, band="slowest",
                                        n_grid=min(cfg["grid"]["nx"], 48),
                                        eta=float(cfg["response"]["eta"]))
    reports.append(bounds_mod.check_optical_weight_bound(
        weight.bound_trace, chern.chern_plaquette, weight.arg_infimum))

    omegas, pi_abs = _absorptive_stack(cfg, model)
    reports.append(bounds_mod.check_absorptive_psd(omegas, pi_abs))

    for rep in reports:
        name = rep.name.lower()
        serialize.write_bound_csv(os.path.join(out, f"margins_{name}.csv"), rep)
        print(rep)
    serialize.write_report_json(
        os.path.join(out, "bounds.json"),
        {
            "kind": "bounds",
            "reports": [serialize.bound_report_summary(r) for r in reports],
            "chern": chern.chern_plaquette,
            "timing_seconds": time.monotonic() - t0,
        },
        config=cfg)
    return 0 if all(r.passed for r in reports) else 4


def cmd_optical_weight(cfg, quadrature=False):
    out = _ensure_outdir(cfg)
    sweep = cfg["sweep"].get("Gamma") or []
    if not sweep:
        raise ConfigError("sweep.Gamma must be a nonempty list")
    eta = float(cfg["response"]["eta"])
    n_grid = min(int(cfg["grid"]["nx"]), 48)
    rows = []
    header = ["Gamma", "weight_numeric", "weight_closed", "weight_bound_form",
              "bound_lhs", "bound_rhs", "margin", "arg_infimum",
              "ln_eta_coefficient"]
    if quadrature:
        header.append("weight_quadrature")
    all_pass = True
    for g_val in sweep:
        mcfg = dict(cfg["model"])
        mcfg["Gamma"] = float(g_val)
        model = model_from_config(mcfg)
        res = response.optical_weight_bz(model, band="slowest", n_grid=n_grid,
                                         eta=eta)
        chern = topology.chern_plaquette(model, band=0, n_grid=max(32, n_grid // 2))
        rep = bounds_mod.check_optical_weight_bound(res.bound_trace, chern,
                                                    res.arg_infimum)
        all_pass &= rep.passed and rep.margin[0] > 0
        row = [g_val, res.bz_trace, res.closed_trace, res.bound_trace,
               res.bound_trace / (2 * np.pi),
               (np.pi + res.arg_infimum) * abs(chern),
               rep.margin[0], res.arg_infimum, res.ln_eta_coefficient]
        if quadrature:
            kxg, kyg = bz_mesh(n_grid, n_grid)
            area = (2 * np.pi / n_grid) ** 2
            total = 0.0
            for i in range(n_grid):
                for j in range(n_grid):
                    total += response.optical_weight_quadrature(
                        model, kxg[i, j], kyg[i, j], eta=eta)
            row.append(total * area)
        rows.append(row)
        print(f"Gamma={g_val}: weight/2pi={res.bound_trace/(2*np.pi):+.6f} "
              f"bound={(np.pi+res.arg_infimum)*abs(chern):+.6f} "
              f"margin={rep.margin[0]:+.6f}")
    serialize.write_csv(os.path.join(out, "optical_weight.csv"), header, rows)
    serialize.write_report_json(
        os.path.join(out, "optical_weight.json"),
        {"kind": "optical_weight_sweep", "columns": header,
         "rows": [[float(x) for x in row] for row in rows]},
        config=cfg)
    return 0 if all_pass else 4


def cmd_lindblad_check(cfg):
    out = _ensure_outdir(cfg)
    model = _model(cfg)
    h0 = model.hamiltonian(0.0, 0.0)
    anti = 0.5 * (h0 - h0.conj().T)
    if float(np.max(np.abs(anti))) < 1e-14:
        print("Hermitian model; nothing to check")
        serialize.write_report_json(
            os.path.join(out, "lindblad.json"),
            {"kind": "lindblad_check", "hermitian": True}, config=cfg)
        return 0
    target = 1j * anti  # anti-Hermitian part is -i * target
    spec = lindblad.decompose_antihermitian(target)
    h_eff = lindblad.effective_hamiltonian(0.5 * (h0 + h0.conj().T), spec)
    recon = 0.5 * (h_eff - h_eff.conj().T) - spec.identity_shift * np.eye(2)
    residual = float(np.max(np.abs(recon - (-1j) * target)))
    kel = lindblad.keldysh_sigma(spec, inverted=bool(cfg["response"].get("invert_bath")))

    # positivity scan of the Keldysh bubbles on the uniform-decay levels
    rsp = cfg["response"]
    omegas = np.linspace(float(rsp["omega_min"]), float(rsp["omega_max"]),
                         int(rsp["omega_count"]))
    gamma = float(cfg["model"].get("gamma", 1.0)) or 1.0
    h_sym = 0.5 * (h0 + h0.conj().T)
    evals = np.linalg.eigvalsh(h_sym)
    energies = evals - 0.5j * gamma
    # inverted bath: Keldysh noise flips sign at fixed (decaying) spectra
    noise_sign = -1.0 if rsp.get("invert_bath") else 1.0
    bad_omegas = []
    for w in omegas:
        for n in range(2):
            for m in range(2):
                for side in ("A", "R"):
                    q = lindblad.bubble_positivity(
                        energies[n], energies[m], float(w), side=side,
                        sigma_k_m=noise_sign * 2j * np.imag(energies[m]))
                    if q < -1e-10:
                        bad_omegas.append(float(w))
    bad_omegas = sorted(set(bad_omegas))
    passed = residual < 1e-12 and not bad_omegas

    print(f"jump count: {len(spec.jumps)}; roundtrip residual: {residual:.2e}")
    with np.printoptions(precision=6, suppress=True):
        print(f"Sigma^K =\n{kel.sigma_k}")
    if bad_omegas:
        print(f"bubble positivity FAILED at {len(bad_omegas)} omega(s): "
              f"{bad_omegas[:8]}{'...' if len(bad_omegas) > 8 else ''}")
    else:
        print("bubble positivity: pass")
    serialize.write_report_json(
        os.path.join(out, "lindblad.json"),
        {
            "kind": "lindblad_check",
            "hermitian": False,
            "jumps": [np.asarray(j) for j in spec.jumps],
            "identity_shift": spec.identity_shift,
            "roundtrip_residual": residual,
            "sigma_k": kel.sigma_k,
            "sigma_r": kel.sigma_r,
            "proportionality": kel.proportionality,
            "positivity_failures": bad_omegas,
        },
        config=cfg)
    return 0 if passed else 4


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="nhgeo",
        description="Biorthogonal quantum geometry and response bounds for "
                    "non-Hermitian Bloch models")
    parser.add_argument("command",
                        choices=["scan", "chern", "bounds", "optical-weight",
                                 "lindblad-check"])
    parser.add_argument("--config", help="YAML run configuration")
    parser.add_argument("--out", help="output directory")
    parser.add_argument("--grid", help="grid size, e.g. 64x64 or 64")
    parser.add_argument("--threads", type=int, help="parallel row workers")
    parser.add_argument("--band", type=int, help="band index")
    parser.add_argument("--quadrature", action="store_true",
                        help="add the slow adaptive-quadrature column to the sweep")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config, {"grid": args.grid, "threads": args.threads,
                                        "band": args.band, "out": args.out})
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    try:
        if args.command == "scan":
            return cmd_scan(cfg)
        if args.command == "chern":
            return cmd_chern(cfg)
        if args.command == "bounds":
            return cmd_bounds(cfg)
        if args.command == "optical-weight":
            return cmd_optical_weight(cfg, quadrature=args.quadrature)
        if args.command == "lindblad-check":
            return cmd_lindblad_check(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NHGeoError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        points = getattr(exc, "points", None)
        if points:
            for pt in list(points)[:20]:
                print(f"  at k = {pt}", file=sys.stderr)
        return 3
    return 2


if __name__ == "__main__":
    sys.exit(main())
