"""Command-line front end: config parsing, BZ sweeps, report generation.

Commands: scan | chern | bounds | optical-weight | lindblad-check.
Configuration comes from a YAML file; --grid/--band/--threads/--out
override individual entries.  ``threads`` (an integer >= 1, by default
the usable CPUs) is the number of processes that format each ``scan`` and
``bounds`` CSV and solve the ``optical-weight`` sweep rows, capped at the
usable CPUs, the CSV's row blocks and the sweep's length; the bytes do not
depend on it, and every mesh is solved serially.  Exit codes: 0 ok,
2 configuration (an output that cannot be written included), 3 numerical
(exceptional points or non-convergence), 4 a failed bound report.
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
from . import lindblad, response, serialize, tolerances as tols, topology
from .errors import ConfigError, NHGeoError, NonIntegrableError
from .geometry import scan_geometry
from .models import BlochModel, bz_mesh, model_from_config

DEFAULT_CONFIG = {
    "model": {"family": "rice_mele", "t": 1.0, "delta": 1.0, "Delta": 1.0,
              "gamma": 1.0, "Gamma": 0.0, "variant": "supplemental"},
    "grid": {"nx": 64, "ny": 64},
    "band": 0,
    "threads": None,  # the usable CPUs
    "output": {"dir": "out"},
    "response": {"eta": 1.0e-3, "omega_min": 0.0, "omega_max": 10.0,
                 "omega_count": 81, "invert_bath": False,
                 "k_samples": 16, "beta": None},
    "sweep": {"Gamma": [0.0, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0]},
    "chern": {"curvature_grid": 201},
    "tolerances": {"bound": tols.BOUND_TOL, "psd": tols.PSD_TOL, "qgt": tols.QGT_TOL},
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

    for key, val in (cli_overrides or {}).items():
        if val is None:
            continue
        if key == "grid":
            cfg["grid"] = _parse_grid(val)
        elif key == "out":
            _mapping(cfg, "output")["dir"] = val
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


def _number(value, name):
    """float(value) for finite numeric input; ConfigError otherwise."""
    try:
        out = float(value)
    except (TypeError, ValueError):
        out = np.nan
    if not np.isfinite(out):
        raise ConfigError(f"{name} must be a finite number, got {value!r}")
    return out


def _mapping(cfg, key):
    """The section ``cfg[key]``; ConfigError unless it is a mapping."""
    section = cfg.get(key)
    if not isinstance(section, dict):
        raise ConfigError(f"{key} must be a mapping, got {section!r}")
    return section


def _validate(cfg):
    """Check the entries the commands read: every section is a mapping,
    output.dir a string and sweep.Gamma a nonempty list; grid, threads,
    band, the response counts and chern.curvature_grid become ints, the
    other response entries and the tolerances floats."""
    _mapping(cfg, "model")  # its entries are checked where the model is built
    if not isinstance(_mapping(cfg, "output").get("dir"), str):
        raise ConfigError(f"output.dir must be a string, got {cfg['output'].get('dir')!r}")
    gammas = _mapping(cfg, "sweep").get("Gamma")
    if not isinstance(gammas, list) or not gammas:
        raise ConfigError(f"sweep.Gamma must be a nonempty list, got {gammas!r}")
    grid = _mapping(cfg, "grid")
    grid["nx"] = _integer(grid.get("nx", 0), "grid.nx")
    grid["ny"] = _integer(grid.get("ny", 0), "grid.ny")
    if grid["nx"] < 8 or grid["ny"] < 8:
        raise ConfigError("grid must be at least 8x8")
    rsp = _mapping(cfg, "response")
    for key in ("eta", "omega_min", "omega_max"):
        rsp[key] = _number(rsp.get(key), f"response.{key}")
    if not rsp["eta"] > 0.0:
        raise ConfigError("response.eta must be positive")
    if rsp.get("beta") is not None:
        rsp["beta"] = _number(rsp["beta"], "response.beta")
    for key in ("omega_count", "k_samples"):
        rsp[key] = _integer(rsp.get(key), f"response.{key}")
        if rsp[key] < 1:
            raise ConfigError(f"response.{key} must be >= 1")
    threads = cfg.get("threads")
    cfg["threads"] = serialize._usable_cpus() if threads is None else _integer(threads, "threads")
    if cfg["threads"] < 1:
        raise ConfigError("threads must be >= 1")
    cfg["band"] = _integer(cfg.get("band", 0), "band")
    if cfg["band"] not in (0, 1):
        raise ConfigError("band must be 0 or 1")
    chern = _mapping(cfg, "chern")
    chern["curvature_grid"] = _integer(chern.get("curvature_grid"),
                                       "chern.curvature_grid")
    if chern["curvature_grid"] < 8:
        raise ConfigError("chern.curvature_grid must be at least 8")
    tol = _mapping(cfg, "tolerances")
    for key in ("bound", "psd", "qgt"):
        tol[key] = _number(tol.get(key), f"tolerances.{key}")
        if tol[key] < 0.0:
            raise ConfigError(f"tolerances.{key} must be >= 0")


def _ensure_outdir(cfg):
    path = cfg["output"]["dir"]
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot write output {path}: {exc}") from exc
    return path


def _model(model_cfg) -> BlochModel:
    """The configured model; every command supports two bands only."""
    model = model_from_config(model_cfg)
    if model.dimension != 2:
        raise ConfigError(f"the commands support two-band models only, got {model.dimension}")
    return model


# -- commands -----------------------------------------------------------------

def cmd_scan(cfg):
    model = _model(cfg["model"])
    out = _ensure_outdir(cfg)
    grid = scan_geometry(model, band=cfg["band"], nx=cfg["grid"]["nx"],
                         ny=cfg["grid"]["ny"])
    chern_cv = topology.chern_from_curvature(grid)  # raises before any file is written
    csv_path = os.path.join(out, "geometry.csv")
    serialize.write_geometry_csv(csv_path, grid, workers=cfg["threads"])
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
    model = _model(cfg["model"])
    out = _ensure_outdir(cfg)
    t0 = time.monotonic()
    result = topology.compute_chern(
        model, band=cfg["band"], n_plaquette=cfg["grid"]["nx"],
        n_curvature=cfg["chern"]["curvature_grid"])
    chain = bounds_mod.check_chern_chain(result, tolerance=cfg["tolerances"]["bound"])
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
    part plus a flat bath of rate gamma/2, current operators as elements.
    The k-sample mean of the correlator is accumulated one kx row at a
    time; its absorptive part is that of the mean (the map is linear)."""
    rsp = cfg["response"]
    nx = min(cfg["grid"]["nx"], rsp["k_samples"])
    kxg, kyg = bz_mesh(nx, nx)
    omegas = np.linspace(rsp["omega_min"], rsp["omega_max"], rsp["omega_count"])
    gamma = float(cfg["model"].get("gamma", 1.0)) or 1.0
    rate = 0.5 * gamma
    if rsp.get("invert_bath"):
        rate = -rate
    h, *dh = model.hamiltonian(kxg, kyg, derivatives=True)
    evals, vecs = np.linalg.eigh(0.5 * (h + np.conj(np.swapaxes(h, -1, -2))))
    vecs_h = np.conj(np.swapaxes(vecs, -1, -2))
    ops = np.stack([vecs_h @ d @ vecs for d in dh], axis=-3)
    ops = 0.5 * (ops + np.conj(np.swapaxes(ops, -1, -2)))
    if rsp.get("beta") is None:
        rho = np.array([1.0, 0.0])
    else:
        x = -rsp["beta"] * evals
        w = np.exp(x - x.max(axis=-1, keepdims=True))  # no overflow at any beta
        rho = w / w.sum(axis=-1, keepdims=True)
    energies = evals - 1j * rate
    rho = np.broadcast_to(rho, evals.shape)
    pi = 0.0
    for i in range(nx):
        pi = pi + np.sum(response.lehmann_correlator(energies[i], ops[i], rho[i], omegas),
                         axis=0)
    return omegas, response.absorptive_part(pi / (nx * nx))


def cmd_bounds(cfg):
    model = _model(cfg["model"])
    out = _ensure_outdir(cfg)
    t0 = time.monotonic()
    tol = cfg["tolerances"]
    reports = []

    grid = scan_geometry(model, band=cfg["band"], nx=cfg["grid"]["nx"],
                         ny=cfg["grid"]["ny"])
    reports.append(bounds_mod.check_local_curvature_bound(grid, tolerance=tol["bound"]))
    reports.append(bounds_mod.check_qgt_inequality(grid, tolerance=tol["qgt"]))
    reports.append(bounds_mod.check_psd(grid.qgt_rr, name="PSD_RR", tolerance=tol["psd"]))
    reports.append(bounds_mod.check_psd(grid.qgt_ll, name="PSD_LL", tolerance=tol["psd"]))

    chern = topology.compute_chern(model, band=cfg["band"],
                                   n_plaquette=cfg["grid"]["nx"], grid=grid)
    reports.append(bounds_mod.check_chern_chain(chern, tolerance=tol["bound"]))

    weight = response.optical_weight_bz(model, band="slowest",
                                        n_grid=min(cfg["grid"]["nx"], 48),
                                        eta=cfg["response"]["eta"])
    reports.append(bounds_mod.check_optical_weight_bound(
        weight.bound_trace, chern.chern_plaquette, weight.arg_infimum, tolerance=tol["bound"]))

    omegas, pi_abs = _absorptive_stack(cfg, model)
    reports.append(bounds_mod.check_absorptive_psd(omegas, pi_abs))

    for rep in reports:
        name = rep.name.lower()
        serialize.write_bound_csv(os.path.join(out, f"margins_{name}.csv"), rep,
                                  workers=cfg["threads"])
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


def _sweep_row(model, n_grid, eta, tolerance, quadrature):
    """The optical-weight columns of one sweep value after Gamma."""
    res = response.optical_weight_bz(model, band="slowest", n_grid=n_grid, eta=eta)
    chern = topology.chern_plaquette(model, band=0, n_grid=max(32, n_grid // 2))
    rep = bounds_mod.check_optical_weight_bound(res.bound_trace, chern, res.arg_infimum,
                                                tolerance=tolerance)
    row = [res.bz_trace, res.closed_trace, res.bound_trace,
           res.bound_trace / (2 * np.pi),
           (np.pi + res.arg_infimum) * abs(chern),
           rep.margin[0], res.arg_infimum, res.ln_eta_coefficient]
    if quadrature:
        from . import oracles  # the slow oracle module loads only for this column
        per_k = oracles.optical_weight_quadrature(model, *bz_mesh(n_grid, n_grid), eta=eta)
        row.append(np.sum(per_k) * (2 * np.pi / n_grid) ** 2)
    return row


def cmd_optical_weight(cfg, quadrature=False):
    """The sweep is cut into at most ``threads`` (and usable CPUs) contiguous
    parts; the first is solved here, each other one in a forked process that
    returns its rows as float64 bytes.  A part whose process fails is solved
    here again, so every run prints, writes and raises as the serial one."""
    sweep = cfg["sweep"]["Gamma"]
    models = [_model(dict(cfg["model"], Gamma=g_val)) for g_val in sweep]
    out = _ensure_outdir(cfg)
    args = (min(cfg["grid"]["nx"], 48), cfg["response"]["eta"],
            cfg["tolerances"]["bound"], quadrature)
    header = ["Gamma", "weight_numeric", "weight_closed", "weight_bound_form",
              "bound_lhs", "bound_rhs", "margin", "arg_infimum",
              "ln_eta_coefficient"] + (["weight_quadrature"] if quadrature else [])
    parts = serialize.split_parts(range(len(sweep)), cfg["threads"], len(sweep))
    rows = []

    def emit(i, row):
        rows.append([sweep[i], *row])
        col = dict(zip(header, rows[-1]))
        print(f"Gamma={sweep[i]}: weight/2pi={col['bound_lhs']:+.6f} "
              f"bound={col['bound_rhs']:+.6f} margin={col['margin']:+.6f}")

    def solve(part):
        for i in part:
            emit(i, _sweep_row(models[i], *args))

    def solve_bytes(fh, part):
        fh.write(np.array([_sweep_row(models[i], *args) for i in part]).tobytes())

    with serialize.fork_parts(solve_bytes, parts[1:], out) as done:
        solve(parts[0])
        for part, (code, fh) in zip(parts[1:], done):
            if code != 0:
                solve(part)
                continue
            for i, row in zip(part, np.frombuffer(fh.read()).reshape(len(part), -1)):
                emit(i, row.tolist())
    table = np.array(rows, dtype=float)
    serialize.write_csv(os.path.join(out, "optical_weight.csv"), header, table)
    serialize.write_report_json(
        os.path.join(out, "optical_weight.json"),
        {"kind": "optical_weight_sweep", "columns": header, "rows": table.tolist()},
        config=cfg)
    # a positive margin passes at every tolerance >= 0
    return 0 if np.all(table[:, header.index("margin")] > 0) else 4


def cmd_lindblad_check(cfg):
    model = _model(cfg["model"])
    out = _ensure_outdir(cfg)
    h0 = model.hamiltonian(0.0, 0.0)
    anti = 0.5 * (h0 - h0.conj().T)
    if float(np.max(np.abs(anti))) < tols.HERMITIAN_MODEL_TOL:
        print("Hermitian model; nothing to check")
        serialize.write_report_json(
            os.path.join(out, "lindblad.json"),
            {"kind": "lindblad_check", "hermitian": True}, config=cfg)
        return 0
    target = 1j * anti  # anti-Hermitian part is -i * target
    spec = lindblad.decompose_antihermitian(target)
    h_sym = 0.5 * (h0 + h0.conj().T)
    h_eff = lindblad.effective_hamiltonian(h_sym, spec)
    recon = 0.5 * (h_eff - h_eff.conj().T) - spec.identity_shift * np.eye(2)
    residual = float(np.max(np.abs(recon - (-1j) * target)))
    rsp = cfg["response"]
    kel = lindblad.keldysh_sigma(spec, inverted=bool(rsp.get("invert_bath")))

    # positivity scan of the Keldysh bubbles on the levels e = E - i gamma/2.
    # With Sigma^K_m = noise_sign 2i Im(e_m), both sides of
    # bubble_positivity(e_n, e_m, omega) equal one Lorentzian of width
    # |S_n + S_m| = |gamma|: noise_sign 2 pi^2 L(E_m - E_n, 0, |gamma|, omega)
    omegas = np.linspace(rsp["omega_min"], rsp["omega_max"], rsp["omega_count"])
    gamma = float(cfg["model"].get("gamma", 1.0)) or 1.0
    evals = np.linalg.eigvalsh(h_sym)
    levels = evals - 0.5j * gamma
    if abs(0.5 * gamma) < tols.UNDAMPED_RTOL * max(1.0, float(np.max(np.abs(levels)))):
        raise NonIntegrableError("level m must decay or grow: Im eps_m = 0")
    # inverted bath: Keldysh noise flips sign at fixed (decaying) spectra
    noise_sign = -1.0 if rsp.get("invert_bath") else 1.0
    q = noise_sign * 2.0 * np.pi**2 * response.lorentzian_kernel(
        evals[None, :] - evals[:, None], 0.0, abs(gamma), omegas[:, None, None])
    bad_omegas = sorted(set(omegas[np.any(q < -tols.BUBBLE_POSITIVITY_TOL, axis=(1, 2))].tolist()))
    passed = residual < tols.ROUNDTRIP_TOL and not bad_omegas

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
    parser.add_argument("--threads", type=int,
                        help="processes (>= 1) that format the scan/bounds CSVs and solve the "
                             "optical-weight sweep rows; default: the usable CPUs, to which it "
                             "is capped; the bytes do not depend on it")
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
        for pt in list(getattr(exc, "points", ()))[:20]:  # a list or an index array
            print(f"  at k = {pt}", file=sys.stderr)
        return 3
    return 2


if __name__ == "__main__":
    sys.exit(main())
