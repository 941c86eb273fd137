"""nhgeo benchmark: CLI wall time and library k-point throughput.

Usage (from the repository root)::

    python3 bench/run.py --workload cli_large --seed 3 --seconds 50 --trace 0

Workloads (all closed loops with one client: the next command or call starts
when the previous one has ended; child processes run single-threaded BLAS):

* ``cli_large`` -- the five CLI commands, each a fresh ``python -m
  nhgeo.cli`` process, at large sizes (160^2 scan, 301^2 curvature, 96^2
  bounds with a 24^2 absorptive stack, a 13-value Gamma sweep, 801
  frequencies); ``scan``, ``chern`` and ``bounds`` pass ``--threads 2``.
  One pass takes 10-14 s on a 2-vCPU Xeon, so a 50 s run holds four or five.
* ``cli_default`` -- the same five commands at the CLI's default sizes.  It
  is the workload of the traced comparison with the ROADMAP Baseline, but it
  is not in ``BENCHMARK.json``: its passes are five import-bound processes
  whose times spread up to 0.29 across the runs of a set, more than the
  bound, and ``setup_s`` already measures the import on every workload.
* ``library_grid`` -- one warm interpreter calling the library directly and
  writing no files: ``scan_geometry`` at 64^2-256^2, ``chern_plaquette`` at
  64^2-256^2, ``compute_chern`` 64/201, the bound checkers on the 256^2 grid,
  ``optical_weight_bz`` at 32^2-96^2 and an 801-frequency bubble positivity
  sweep.  On this workload each ``*_s`` metric is the busy time of the calls
  that stand in for that command.

The seed draws the Rice-Mele parameters (gamma, Gamma, and the topological
or trivial phase); the program only sees the generated configs.  Each
command or call is one operation; it fails on a non-zero exit, an exception
or a failed output check.  For seeds listed in ``bench/reference.json`` the
report values of every pass must also match the recorded ones; each such
comparison is one more operation.  ``bench/reference.json`` is committed
data: the report values of one pass of seeds 0 and 1 of each workload, taken
at the commit that added the benchmark.  Changing it is a deliberate change
of its own, to be explained where it is made.

On the CLI workloads ``<command>_s`` is the wall time of the command's
process, ``session_s`` their sum over one pass, ``peak_rss_mb`` the largest
child peak RSS (``wait4``), and ``<family>_kpoints_per_s`` the mesh points of
``scan``, of the ``chern`` plaquette grid and of the ``optical-weight`` sweep
per second of that command.  On ``library_grid`` they are the busy times and
points of the calls, and the interpreter's own peak RSS.  ``setup_s`` is the
time of a fresh interpreter to ``import nhgeo.cli``: one probe runs before
each pass, more follow the last pass until there are ``SETUP_PROBES``, and
the median is reported.

With ``--trace 0`` the last stdout line carries the end-to-end metrics of
``BENCHMARK.json``, each the median over the passes made in ``--seconds``
(the sample count is printed above it; no higher percentile is printed
because no metric has ten samples beyond one).  With ``--trace 1`` an
untraced warm-up pass runs, then untraced and traced passes alternate until
``--seconds`` have passed (``TRACE_PAIRS`` pairs at least).  The last line
carries the per-layer metrics from ``bench/tracing.py``, each the median over
the traced passes; ``trace.overhead_s`` is the median traced ``session_s``
minus the median untraced one.  A table of the metrics per command is
printed above it.
"""

import os

# before numpy is imported, here and in every child
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import tracing  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
SRC = ROOT / "src"
WORK = BENCH / "_work"
REFERENCE = BENCH / "reference.json"

COMMANDS = ("scan", "chern", "bounds", "optical-weight", "lindblad-check")
#: least number of ``setup_s`` probes in a run
SETUP_PROBES = 12
#: least number of untraced/traced pass pairs in a traced run
TRACE_PAIRS = 2
#: Gamma values in the CLI's default sweep
DEFAULT_SWEEP_LEN = 9
IMPORT_PROBES = 3
#: relative tolerance of reference values, plus an absolute floor for values
#: that are themselves roundoff (PSD margins of order 1e-16)
REF_RTOL, REF_ATOL = 1e-9, 1e-12

CLI_WORKLOADS = {
    "cli_default": {cmd: ([], {}) for cmd in COMMANDS},
    "cli_large": {
        "scan": (["--grid", "160", "--threads", "2"], {}),
        "chern": (["--grid", "64", "--threads", "2"], {"chern": {"curvature_grid": 301}}),
        "bounds": (["--grid", "96", "--threads", "2"],
                   {"response": {"k_samples": 24, "omega_count": 161}}),
        "optical-weight": ([], {"sweep": {"Gamma": [i / 6 for i in range(13)]}}),
        "lindblad-check": ([], {"response": {"omega_count": 801}}),
    },
}
CLI_TINY = {
    "scan": (["--grid", "16"], {}),
    "chern": (["--grid", "16"], {"chern": {"curvature_grid": 48}}),
    "bounds": (["--grid", "16"], {"response": {"k_samples": 4, "omega_count": 11}}),
    "optical-weight": (["--grid", "16"], {"sweep": {"Gamma": [0.0, 1.0]}}),
    "lindblad-check": ([], {"response": {"omega_count": 11}}),
}
LIBRARY_SIZES = {"scan": (64, 128, 192, 256), "plaquette": (64, 128, 192, 256),
                 "chern": (64, 201), "weight": (32, 64, 96), "omegas": 801}
LIBRARY_TINY = {"scan": (32, 40), "plaquette": (16, 24), "chern": (16, 48),
                "weight": (8, 16), "omegas": 11}
WORKLOADS = ("cli_default", "cli_large", "library_grid")


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def draw_model(seed):
    """Seeded Rice-Mele parameters and the Chern number of their phase."""
    rng = random.Random(seed)
    model = {"family": "rice_mele", "gamma": rng.uniform(0.25, 1.5),
             "Gamma": rng.uniform(0.0, 2.0), "variant": "supplemental",
             "dz_offset": rng.choice([0.0, 3.5])}
    return model, (1 if model["dz_offset"] == 0.0 else 0)


def environment(seed):
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        # the ceiling keeps git from looking above a checkout that is not a repository
        rev = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10,
                             env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
                             ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        rev = "unknown"
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "cpu": cpu, "nproc": os.cpu_count(),
            "thread_env": THREAD_ENV, "git_revision": rev, "seed": seed}


def run_child(argv, log):
    """Run a child to completion; return (exit code, wall seconds, peak RSS MB)."""
    with open(log, "w") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, env=child_env(), cwd=ROOT, stdout=subprocess.DEVNULL,
                                stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def setup_probe():
    """Wall time of a fresh interpreter reaching ``import nhgeo.cli``."""
    code, wall, _ = run_child([sys.executable, "-c", "import nhgeo.cli"], WORK / "setup.log")
    if code != 0:
        raise RuntimeError(f"import nhgeo.cli failed: {(WORK / 'setup.log').read_text()}")
    return wall


def import_times():
    """``import.nhgeo_cli_s`` and ``import.scipy_s`` from ``-X importtime``."""
    cli, scipy = [], []
    for _ in range(IMPORT_PROBES):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import nhgeo.cli"],
                              env=child_env(), cwd=ROOT, capture_output=True, text=True,
                              check=True)
        own, cum = 0.0, 0.0
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) != 3 or not parts[0].startswith("import time:"):
                continue
            try:
                self_us, cum_us = int(parts[0].split(":")[1]), int(parts[1])
            except ValueError:
                continue  # the column header
            name = parts[2].strip()
            if name == "nhgeo.cli":
                cum = cum_us
            if name == "scipy" or name.startswith("scipy."):
                own += self_us
        cli.append(cum * 1e-6)
        scipy.append(own * 1e-6)
    return {"import.nhgeo_cli_s": statistics.median(cli),
            "import.scipy_s": statistics.median(scipy)}


# -- output checks -------------------------------------------------------------

def flatten(doc, prefix=""):
    """Leaf values of a report keyed by path; echoed config and timings excluded."""
    out = {}
    if isinstance(doc, dict):
        for key, val in doc.items():
            if key not in ("config", "timing_seconds"):
                out.update(flatten(val, f"{prefix}{key}."))
    elif isinstance(doc, list):
        for i, val in enumerate(doc):
            out.update(flatten(val, f"{prefix}{i}."))
    else:
        out[prefix.rstrip(".")] = doc
    return out


def compare_reference(values, reference):
    bad = []
    for key, ref in reference.items():
        got = values.get(key)
        if isinstance(ref, bool) or not isinstance(ref, (int, float)):
            ok = got == ref
        else:
            ok = (isinstance(got, (int, float)) and not isinstance(got, bool)
                  and abs(got - ref) <= REF_RTOL * max(abs(got), abs(ref)) + REF_ATOL)
        if not ok:
            bad.append(f"{key}: {got!r} != reference {ref!r}")
    bad += [f"{key}: not in reference" for key in values.keys() - reference.keys()]
    return bad


def check_scan_csv(path, n):
    import numpy as np

    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if data.shape[0] != n * n:
        return [f"scan CSV has {data.shape[0]} rows, expected {n * n}"]
    bad = [] if np.all(np.isfinite(data)) else ["scan CSV has non-finite values"]
    k = -np.pi + 2.0 * np.pi * np.arange(n) / n
    kx, ky = np.meshgrid(k, k, indexing="ij")
    if not (np.allclose(data[:, 0], kx.ravel(), rtol=0, atol=1e-12)
            and np.allclose(data[:, 1], ky.ravel(), rtol=0, atol=1e-12)):
        bad.append("scan CSV kx/ky columns do not match the BZ mesh")
    return bad


def check_command(cmd, out, grid, expected):
    """Checks on one command's outputs; returns (failures, report values)."""
    name = {"scan": "geometry", "chern": "chern", "bounds": "bounds",
            "optical-weight": "optical_weight", "lindblad-check": "lindblad"}[cmd]
    with open(out / f"{name}.json") as fh:
        report = json.load(fh)
    bad = []
    if cmd == "scan":
        bad += check_scan_csv(out / "geometry.csv", grid)
    elif cmd == "chern":
        if report["chern_plaquette"] != expected:
            bad.append(f"chern_plaquette {report['chern_plaquette']} != {expected}")
        if not abs(report["chern_curvature"] - report["chern_plaquette"]) < 1e-2:
            bad.append(f"chern_curvature {report['chern_curvature']} off the integer")
    elif cmd == "bounds":
        bad += [f"bound {r['name']} failed" for r in report["reports"] if not r["passed"]]
        if report["chern"] != expected:
            bad.append(f"bounds chern {report['chern']} != {expected}")
    elif cmd == "optical-weight":
        if not all(math.isfinite(x) for row in report["rows"] for x in row):
            bad.append("optical weight sweep has non-finite values")
    elif cmd == "lindblad-check" and report.get("positivity_failures"):
        bad.append("bubble positivity failed")
    return bad, {f"{name}.{k}": v for k, v in flatten(report).items()}


# -- workloads -----------------------------------------------------------------

class Workload:
    """One workload: set-up, then passes of operations with their checks."""

    def __init__(self, name, seed, tiny=False):
        self.name, self.seed, self.tiny = name, seed, tiny
        self.model_cfg, self.expected = draw_model(seed)
        self.attempted = self.failed = 0
        self.failures = []
        self.values = {}
        with open(REFERENCE) as fh:
            self.reference = None if tiny else json.load(fh).get(name, {}).get(str(seed))

    def record(self, op, bad):
        self.attempted += 1
        if bad:
            self.failed += 1
            self.failures += [f"{op}: {msg}" for msg in bad]

    def measure_pass(self, index, **trace):
        """One pass; its report values are then checked against the reference."""
        self.values = {}
        sample = self.run_pass(index, **trace)
        if self.reference is not None:
            self.record(f"reference#{index}", compare_reference(self.values, self.reference)[:20])
        return sample


class CliWorkload(Workload):
    def setup(self):
        self.specs = CLI_TINY if self.tiny else CLI_WORKLOADS[self.name]
        self.out = WORK / "out"
        self.configs = {}
        for cmd, (argv, extra) in self.specs.items():
            path = WORK / f"{cmd}.yaml"
            path.write_text(json.dumps({"model": self.model_cfg, **extra}))  # JSON is YAML
            self.configs[cmd] = path

    def run_pass(self, index, spans=None):
        sample, rss = {}, []
        for cmd in COMMANDS:
            argv, extra = self.specs[cmd]
            cli = [cmd, "--config", str(self.configs[cmd]), "--out", str(self.out)] + argv
            if spans is None:
                prog = [sys.executable, "-m", "nhgeo.cli"] + cli
            else:
                span_file = WORK / f"spans_{cmd}.json"
                prog = [sys.executable, str(BENCH / "tracing.py"), "--spans", str(span_file),
                        "--request", f"{cmd}#{index}", "--"] + cli
            log = WORK / f"{cmd}.log"
            code, wall, peak = run_child(prog, log)
            sample[cmd.replace("-", "_") + "_s"] = wall
            rss.append(peak)
            grid = int(argv[argv.index("--grid") + 1]) if "--grid" in argv else 64
            n_sweep = len(extra.get("sweep", {}).get("Gamma", ())) or DEFAULT_SWEEP_LEN
            points = {"scan": ("geometry", grid * grid), "chern": ("plaquette", grid * grid),
                      "optical-weight": ("weight", n_sweep * min(grid, 48) ** 2)}
            if cmd in points:
                family, n = points[cmd]
                sample[f"{family}_kpoints_per_s"] = n / wall
            if code != 0:
                bad = [f"exit code {code}: {log.read_text()[-500:].strip()}"]
            else:
                try:
                    bad, values = check_command(cmd, self.out, grid, self.expected)
                    self.values.update(values)
                except (OSError, ValueError, KeyError, TypeError) as exc:
                    bad = [f"output unreadable: {exc!r}"]
            self.record(cmd, bad)
            if spans is not None and span_file.exists():
                with open(span_file) as fh:
                    spans.extend(tracing.offset_parents(json.load(fh), len(spans)))
        sample["session_s"] = sum(sample[c.replace("-", "_") + "_s"] for c in COMMANDS)
        sample["peak_rss_mb"] = max(rss)
        return sample


class LibraryWorkload(Workload):
    def setup(self):
        import nhgeo
        import nhgeo.bounds
        import nhgeo.lindblad

        self.nhgeo = nhgeo
        self.sizes = LIBRARY_TINY if self.tiny else LIBRARY_SIZES
        params = {k: v for k, v in self.model_cfg.items() if k != "family"}
        self.model = nhgeo.BlochModel.rice_mele(nhgeo.RMParams(**params))

    def run_pass(self, index, tracer=None):
        import numpy as np

        nh, bnd, lb = self.nhgeo, self.nhgeo.bounds, self.nhgeo.lindblad
        model, expected = self.model, self.expected
        busy = {}  # seconds per library function

        def call(cmd, op, fn, *args, **kwargs):
            """Time one library call; the command it stands for is the request id."""
            if tracer is not None:
                tracer.request = f"{cmd}#{index}"
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except Exception as exc:  # a typed or untyped error is a failed operation
                self.record(op, [repr(exc)])
                return None
            finally:
                busy[fn.__name__] = busy.get(fn.__name__, 0.0) + time.perf_counter() - t0

        def check(op, bad, **values):
            self.record(op, bad)
            self.values.update({f"{op}.{k}": v for k, v in values.items()})

        grid = None
        for n in self.sizes["scan"]:
            grid = call("scan", f"scan_geometry.{n}", nh.scan_geometry, model, nx=n, workers=1)
            if grid is not None:
                c_cv = nh.chern_from_curvature(grid)
                finite = all(np.all(np.isfinite(a)) for a in (
                    grid.qgt_lr, grid.qgt_rr, grid.qgt_ll, grid.anomalous_r, grid.curvature_lr))
                check(f"scan_geometry.{n}",
                      ([] if finite else ["non-finite geometry"])
                      + ([] if abs(c_cv - expected) < 1e-2 else [f"curvature sum {c_cv}"]),
                      chern_curvature=c_cv,
                      max_abs_curvature=float(np.max(np.abs(grid.curvature_lr))))
        for n in self.sizes["plaquette"]:
            c = call("chern", f"chern_plaquette.{n}", nh.chern_plaquette, model, n_grid=n)
            if c is not None:
                check(f"chern_plaquette.{n}", [] if c == expected else [f"C = {c}"], chern=c)
        n_pl, n_cv = self.sizes["chern"]
        chern = call("chern", "compute_chern", nh.compute_chern, model,
                     n_plaquette=n_pl, n_curvature=n_cv)
        if chern is not None:
            check("compute_chern",
                  ([] if chern.chern_plaquette == expected else [f"C = {chern.chern_plaquette}"])
                  + ([] if abs(chern.chern_curvature - chern.chern_plaquette) < 1e-2
                     else [f"curvature sum {chern.chern_curvature}"]),
                  chern_plaquette=chern.chern_plaquette, chern_curvature=chern.chern_curvature,
                  curvature_abs_integral=chern.curvature_abs_integral,
                  qgt_bound_integral=chern.qgt_bound_integral)

        checks = []
        if grid is not None:
            checks += [(bnd.check_local_curvature_bound, (grid,)),
                       (bnd.check_qgt_inequality, (grid,)),
                       (bnd.check_psd, (grid.qgt_rr, "PSD_RR")),
                       (bnd.check_psd, (grid.qgt_ll, "PSD_LL"))]
        if chern is not None:
            checks.append((bnd.check_chern_chain, (chern,)))
        for fn, args in checks:
            rep = call("bounds", fn.__name__, fn, *args)
            if rep is not None:
                check(f"bounds.{rep.name}", [] if rep.passed else ["failed"],
                      worst_margin=rep.worst_margin)

        for n in self.sizes["weight"]:
            w = call("optical-weight", f"optical_weight_bz.{n}", nh.optical_weight_bz, model,
                     band="slowest", n_grid=n, eta=1e-3)
            if w is not None:
                rep = bnd.check_optical_weight_bound(w.bound_trace, expected, w.arg_infimum)
                check(f"optical_weight_bz.{n}", [] if rep.passed else ["bound failed"],
                      bz_trace=w.bz_trace, closed_trace=w.closed_trace,
                      bound_trace=w.bound_trace, arg_infimum=w.arg_infimum)

        # the bubble positivity sweep of ``nhgeo lindblad-check``
        h0 = model.hamiltonian(0.0, 0.0)
        energies = np.linalg.eigvalsh(0.5 * (h0 + h0.conj().T)) - 0.5j * self.model_cfg["gamma"]
        worst = np.inf
        for omega in np.linspace(0.0, 10.0, self.sizes["omegas"]):
            for n in range(2):
                for m in range(2):
                    for side in ("A", "R"):
                        q = call("lindblad-check", "bubble_positivity", lb.bubble_positivity,
                                 energies[n], energies[m], float(omega), side=side,
                                 sigma_k_m=2j * np.imag(energies[m]))
                        if q is not None:
                            self.record("bubble_positivity", [] if q >= -1e-10 else [f"q = {q}"])
                            worst = min(worst, q)
        self.values["bubble_positivity.min"] = float(worst)

        plaquette = busy.get("chern_plaquette", 0.0)
        sample = {"scan_s": busy.get("scan_geometry", 0.0),
                  "chern_s": plaquette + busy.get("compute_chern", 0.0),
                  "bounds_s": sum(v for k, v in busy.items() if k.startswith("check_")),
                  "optical_weight_s": busy.get("optical_weight_bz", 0.0),
                  "lindblad_check_s": busy.get("bubble_positivity", 0.0)}
        sample["session_s"] = sum(sample.values())
        sample["geometry_kpoints_per_s"] = (sum(n * n for n in self.sizes["scan"])
                                            / sample["scan_s"])
        sample["plaquette_kpoints_per_s"] = sum(n * n for n in self.sizes["plaquette"]) / plaquette
        sample["weight_kpoints_per_s"] = (sum(n * n for n in self.sizes["weight"])
                                          / sample["optical_weight_s"])
        sample["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        return sample


# -- main ------------------------------------------------------------------------

def median_metrics(samples):
    return {key: statistics.median(s[key] for s in samples) for key in samples[0]}


def median_layers(tables):
    """Per-metric median over the tables of several traced passes; counts stay
    whole numbers and errors are summed, so one failing pass shows."""
    out = {}
    for name in set().union(*tables):
        values = [t.get(name, 0) for t in tables]
        if name.endswith(".errors"):
            out[name] = sum(values)
        elif name.endswith((".calls", ".points", ".bytes")):
            out[name] = statistics.median_low(values)
        else:
            out[name] = statistics.median(values)
    return out


def traced_metrics(workload, deadline):
    """A warm-up pass, then untraced and traced passes in turn until ``deadline``.
    Returns the per-layer metrics overall and per command, as medians over
    the traced passes."""
    workload.measure_pass(0)
    untraced, traced, tables, by_request = [], [], [], []
    while len(traced) < TRACE_PAIRS or time.perf_counter() < deadline:
        index = 1 + 2 * len(traced)
        untraced.append(workload.measure_pass(index)["session_s"])
        if isinstance(workload, CliWorkload):
            spans = []
            sample = workload.measure_pass(index + 1, spans=spans)
        else:
            tracer = tracing.Tracer()
            uninstall = tracing.install(tracer)
            try:
                sample = workload.measure_pass(index + 1, tracer=tracer)
            finally:
                uninstall()
            spans = tracer.spans
        traced.append(sample["session_s"])
        tables.append(tracing.layer_metrics(spans))
        by_request.append(tracing.layer_metrics(spans, by_request=True))
    metrics = median_layers(tables)
    metrics.update(import_times())
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    commands = set().union(*by_request)
    by_command = {cmd: median_layers([t.get(cmd, {}) for t in by_request]) for cmd in commands}
    print(f"traced passes: {len(traced)}; untraced session_s {untraced}; traced {traced}")
    return metrics, by_command


def print_layer_table(metrics, by_command):
    cmds = [c for c in COMMANDS if c in by_command]
    print(f"{'per-layer metric':44s}{'total':>12s}" + "".join(f"{c:>15s}" for c in cmds))
    for name in sorted(metrics):
        row = "".join(f"{by_command[c].get(name, 0):15.6g}" for c in cmds)
        print(f"{name:44s}{metrics[name]:12.6g}{row}")


def select(spec, measured):
    """The metrics ``BENCHMARK.json`` names, in its units.  Per-layer metrics of
    a function the workload never calls are 0."""
    out = {}
    for m in spec:
        if m["name"] not in measured and "." not in m["name"]:
            raise KeyError(f"metric {m['name']} was not measured")
        out[m["name"]] = {"value": measured.get(m["name"], 0), "unit": m["unit"]}
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description="nhgeo benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test sizes; reference values are not checked")
    args = parser.parse_args(argv)

    if not (SRC / "nhgeo" / "cli.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"bench: no nhgeo sources under {SRC}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    sys.path.insert(0, str(SRC))
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    try:
        cls = LibraryWorkload if args.workload == "library_grid" else CliWorkload
        workload = cls(args.workload, args.seed, tiny=args.tiny)
        print(json.dumps({"env": environment(args.seed), "workload": args.workload,
                          "model": workload.model_cfg}))

        workload.setup()
        deadline = time.perf_counter() + args.seconds

        if args.trace:
            measured, by_command = traced_metrics(workload, deadline)
            print_layer_table(measured, by_command)
            metrics = select(spec["per_layer"], measured)
        else:
            setup, samples = [], []
            while not samples or time.perf_counter() < deadline:
                setup.append(setup_probe())
                samples.append(workload.measure_pass(len(samples)))
            while len(setup) < (1 if args.tiny else SETUP_PROBES):
                setup.append(setup_probe())
            measured = median_metrics(samples)
            for key, val in sorted(measured.items()):
                print(f"{key:28s}{val:14.6g}  (median of {len(samples)} passes)")
            measured["setup_s"] = statistics.median(setup)
            print(f"{'setup_s':28s}{measured['setup_s']:14.6g}  (median of {len(setup)} imports)")
            metrics = select(spec["end_to_end"], measured)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    for msg in workload.failures[:40]:
        print(f"FAILED {msg}")
    print(json.dumps({"correct": workload.failed == 0, "attempted": workload.attempted,
                      "failed": workload.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
