"""Command-line front end: config parsing, BZ sweeps, report generation.

Commands: scan | chern | bounds | optical-weight | lindblad-check.
Configuration comes from a YAML file; --grid/--band/--threads/--out
override individual entries.  ``CONFIG_KEYS`` names every key with its
default and its parser; any other key, outside ``model:`` (which the model
family checks), is a configuration error.  ``threads`` (an integer >= 1, by
default the usable CPUs) is the number of processes that format each ``scan`` and
``bounds`` CSV and solve the ``optical-weight`` sweep rows, capped at the
usable CPUs, the CSV's row blocks and the sweep's length; the bytes do not
depend on it, and every mesh is solved serially.  Exit codes: 0 ok,
2 configuration (an output that cannot be written included), 3 numerical
(exceptional points or non-convergence), 4 a failed bound report.
"""

from __future__ import annotations

import argparse
import dataclasses
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


def _number(kind, low=-np.inf, high=np.inf):
    """Parser of a finite number in [low, high] made by ``kind``: float, or
    int, which takes integral input only (3, 3.0, "3").  A bool (true/false)
    is not a number here, though Python counts it as one."""
    def parse(value, name):
        try:
            out = kind(value)
            valid = (not isinstance(value, bool) and out == float(value) and np.isfinite(out)
                     and low <= out <= high)
        except (TypeError, ValueError, OverflowError):
            valid = False
        if not valid:
            raise ConfigError(f"{name} must be a finite {kind.__name__} in [{low}, {high}], "
                              f"got {value!r}")
        return out
    return parse


def _typed(kind, what):
    """Parser of a value of type ``kind`` (``what`` in its error), kept as given."""
    def parse(value, name):
        if not isinstance(value, kind):
            raise ConfigError(f"{name} must be {what}, got {value!r}")
        return value
    return parse


def _optional(parse):
    """Parser of None or of what ``parse`` accepts."""
    return lambda value, name: None if value is None else parse(value, name)


def _number_list(value, name):
    """Parser of a nonempty list of finite ints or floats, kept as given."""
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{name} must be a nonempty list, got {value!r}")
    for i, item in enumerate(value):
        if not isinstance(item, (int, float)):
            raise ConfigError(f"{name}[{i}] must be a number, got {item!r}")
        _number(float)(item, f"{name}[{i}]")
    return list(value)


def _as_given(value, name):
    """A model: entry; model_from_config checks it against the family."""
    return value


#: every config key, "section.key" or a top-level "key": its default and the
#: parser that checks a value and returns the one the commands read.  Only
#: model: takes keys the table does not name: nhgeo.models.FAMILY_KEYS names
#: those of each family, and model_from_config checks them.  The table keeps
#: the CLI's own model defaults only: the family, and gamma = 1.0 where
#: RMParams has 0.0.  threads: null stands for the usable CPUs.
CONFIG_KEYS = {
    "model.family": ("rice_mele", _as_given),
    "model.gamma": (1.0, _as_given),
    "grid.nx": (64, _number(int, 8)),
    "grid.ny": (64, _number(int, 8)),
    "band": (0, _number(int, 0, 1)),
    "threads": (None, _optional(_number(int, 1))),
    "output.dir": ("out", _typed(str, "a string")),
    "response.eta": (1.0e-3, _number(float, 5e-324)),  # > 0
    "response.omega_min": (0.0, _number(float)),
    "response.omega_max": (10.0, _number(float)),
    "response.omega_count": (81, _number(int, 1)),
    "response.invert_bath": (False, _typed(bool, "true or false")),
    "response.k_samples": (16, _number(int, 1)),
    "response.beta": (None, _optional(_number(float))),
    "sweep.Gamma": ([0.0, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0], _number_list),
    "chern.curvature_grid": (201, _number(int, 8)),
    "tolerances.bound": (tols.BOUND_TOL, _number(float, 0.0)),
    "tolerances.psd": (tols.PSD_TOL, _number(float, 0.0)),
    "tolerances.qgt": (tols.QGT_TOL, _number(float, 0.0)),
}
#: (section, key) of each CONFIG_KEYS name; section "" is the top level
_PLACES = {tuple(name.rpartition(".")[::2]): name for name in CONFIG_KEYS}
_SECTIONS = dict.fromkeys(section for section, _ in _PLACES if section)


def load_config(path=None, cli_overrides=None):
    """The run configuration: the top-level keys and one mapping per section.

    Each CONFIG_KEYS entry takes its non-None CLI flag (``grid``, ``out``,
    ``threads``, ``band``), else its value in the YAML file at ``path``, else
    its default, and passes it through its parser.  A key the table does not
    name is a ConfigError that names it, in every section but model:."""
    given = {place: CONFIG_KEYS[name][0] for place, name in _PLACES.items()}
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
        for name, value in user.items():
            if name not in _SECTIONS:
                given["", name] = value
            elif isinstance(value, dict):
                given.update(((name, key), val) for key, val in value.items())
            else:
                raise ConfigError(f"{name} must be a mapping, got {value!r}")
    for flag, value in (cli_overrides or {}).items():
        if value is not None and flag == "grid":  # "64x48" or "64"
            nx, x, ny = str(value).partition("x")
            given["grid", "nx"], given["grid", "ny"] = nx, ny if x else nx
        elif value is not None:
            given[("output", "dir") if flag == "out" else ("", flag)] = value

    cfg = {section: {} for section in _SECTIONS}
    for (section, key), value in given.items():
        name = _PLACES.get((section, key))
        if name is not None:
            value = CONFIG_KEYS[name][1](value, name)
        elif section != "model":
            raise ConfigError(f"unknown config key {section + '.' if section else ''}{key}")
        (cfg[section] if section else cfg)[key] = value
    if cfg["threads"] is None:
        cfg["threads"] = serialize._usable_cpus()
    return cfg


def _ensure_outdir(cfg):
    path = cfg["output"]["dir"]
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot write output {path}: {exc}") from exc
    return path


def _model(cfg) -> BlochModel:
    """The configured model; every command supports two bands only.  A
    Rice-Mele model's echoed section becomes every parameter it runs with."""
    model = model_from_config(cfg["model"])
    if model.dimension != 2:
        raise ConfigError(f"the commands support two-band models only, got {model.dimension}")
    if model.params is not None:
        cfg["model"] = {"family": "rice_mele", **dataclasses.asdict(model.params)}
    return model


# -- commands -----------------------------------------------------------------

def cmd_scan(cfg, model):
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


def cmd_chern(cfg, model):
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
          f"curvature sum = {round(result.chern_curvature, 6) + 0.0:.6f} "  # not -0.000000
          f"({result.grid_curvature}^2)")
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
    rate = (-0.5 if rsp["invert_bath"] else 0.5) * float(cfg["model"]["gamma"])
    if rate == 0.0:  # exact: a level-relative guard would fire on sound rates at large scale
        raise NonIntegrableError("absorptive stack levels must decay: gamma = 0, so Im eps_m = 0")
    h, *dh = model.hamiltonian(kxg, kyg, derivatives=True)
    evals, vecs = np.linalg.eigh(0.5 * (h + np.conj(np.swapaxes(h, -1, -2))))
    vecs_h = np.conj(np.swapaxes(vecs, -1, -2))
    ops = np.stack([vecs_h @ d @ vecs for d in dh], axis=-3)
    ops = 0.5 * (ops + np.conj(np.swapaxes(ops, -1, -2)))
    if rsp["beta"] is None:
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


def cmd_bounds(cfg, model):
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

    if float(cfg["model"]["gamma"]) == 0.0 and _is_hermitian(model.hamiltonian(0.0, 0.0)):
        print("AbsorptivePSD: skipped, a Hermitian model with no bath (gamma = 0)")
    else:
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


def cmd_optical_weight(cfg, model, quadrature=False):
    """The sweep is cut into at most ``threads`` (and usable CPUs) contiguous
    parts; the first is solved here, each other one in a forked process that
    returns its rows as float64 bytes.  A part whose process fails is solved
    here again, so every run prints, writes and raises as the serial one."""
    sweep = cfg["sweep"]["Gamma"]
    if model.params is not None:  # a bad Gamma raises before the output exists
        models = [BlochModel.rice_mele(dataclasses.replace(model.params, Gamma=float(g_val)))
                  for g_val in sweep]
    elif len(sweep) == 1:
        models = [model]
    else:  # every row would be the same
        raise ConfigError(f"sweep.Gamma has {len(sweep)} values, but the "
                          f"{cfg['model']['family']} family has no Gamma to sweep; "
                          "give it one value")
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
    serialize.write_csv(os.path.join(out, "optical_weight.csv"), header, [table])
    serialize.write_report_json(
        os.path.join(out, "optical_weight.json"),
        {"kind": "optical_weight_sweep", "columns": header, "rows": table.tolist()},
        config=cfg)
    # a positive margin passes at every tolerance >= 0
    return 0 if np.all(table[:, header.index("margin")] > 0) else 4


def _is_hermitian(h0):
    """Below HERMITIAN_MODEL_TOL the model at k = 0 has nothing to dissipate."""
    return float(np.max(np.abs(0.5 * (h0 - h0.conj().T)))) < tols.HERMITIAN_MODEL_TOL


def cmd_lindblad_check(cfg, model):
    out = _ensure_outdir(cfg)
    h0 = model.hamiltonian(0.0, 0.0)
    if _is_hermitian(h0):
        print("Hermitian model; nothing to check")
        serialize.write_report_json(
            os.path.join(out, "lindblad.json"),
            {"kind": "lindblad_check", "hermitian": True}, config=cfg)
        return 0
    target = 1j * (0.5 * (h0 - h0.conj().T))  # anti-Hermitian part is -i * target
    spec = lindblad.decompose_antihermitian(target)
    h_sym = 0.5 * (h0 + h0.conj().T)
    h_eff = lindblad.effective_hamiltonian(h_sym, spec)
    recon = 0.5 * (h_eff - h_eff.conj().T) - spec.identity_shift * np.eye(2)
    # relative to max|H(0)|, as Eigensystem.validate scales its reconstruction:
    # h_eff rounds each entry at the ulp of the whole matrix, not of its
    # anti-Hermitian part, so a small gamma at a large t is no false failure
    residual = float(np.max(np.abs(recon - (-1j) * target)) / np.max(np.abs(h0)))
    rsp = cfg["response"]
    kel = lindblad.keldysh_sigma(spec, inverted=rsp["invert_bath"])

    # positivity scan of the Keldysh bubbles on the levels e = E - i gamma/2.
    # With Sigma^K_m = noise_sign 2i Im(e_m), both sides of
    # bubble_positivity(e_n, e_m, omega) equal one Lorentzian of width
    # |S_n + S_m| = |gamma|: noise_sign 2 pi^2 L(E_m - E_n, 0, |gamma|, omega)
    omegas = np.linspace(rsp["omega_min"], rsp["omega_max"], rsp["omega_count"])
    gamma = float(cfg["model"]["gamma"])
    evals = np.linalg.eigvalsh(h_sym)
    levels = evals - 0.5j * gamma
    if abs(0.5 * gamma) < tols.UNDAMPED_RTOL * max(1.0, float(np.max(np.abs(levels)))):
        raise NonIntegrableError("level m must decay or grow: Im eps_m = 0")
    # inverted bath: Keldysh noise flips sign at fixed (decaying) spectra
    noise_sign = -1.0 if rsp["invert_bath"] else 1.0
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
        model = _model(cfg)
        if args.command == "scan":
            return cmd_scan(cfg, model)
        if args.command == "chern":
            return cmd_chern(cfg, model)
        if args.command == "bounds":
            return cmd_bounds(cfg, model)
        if args.command == "optical-weight":
            return cmd_optical_weight(cfg, model, quadrature=args.quadrature)
        return cmd_lindblad_check(cfg, model)  # argparse admits these five only
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NHGeoError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        for pt in list(getattr(exc, "points", ()))[:20]:  # a list or an index array
            print(f"  at k = {pt}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
