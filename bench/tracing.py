"""Span recorder for the nhgeo benchmark's traced run.

Spans are recorded from outside the package: :func:`install` replaces the
public functions of each ``nhgeo`` module with wrappers that time every call
into them.  A span carries its name (``<module>.<function>``), start, end,
parent span, request id and thread.  Spans stay in memory and are written
out once the traced run ends; :func:`layer_metrics` turns them into the
per-layer metrics (calls, batch k-points, self time, bytes written, errors).

Run as a script, this file is the traced child of a CLI workload::

    python bench/tracing.py --spans spans.json --request scan#0 -- scan --config run.yaml

It imports ``nhgeo.cli``, installs the wrappers, calls
``nhgeo.cli.main(argv)``, writes the spans and exits with the command's code.
"""

import argparse
import functools
import importlib
import inspect
import json
import os
import sys
import threading
import time

LAYERS = ("models", "spectra", "geometry", "topology", "bounds", "response",
          "lindblad", "serialize", "cli")


def _points(*names):
    """Batch k-points of a call: the size of its largest momentum argument."""
    def count(args):
        return max(int(getattr(args[n], "size", 1)) for n in names)
    return count


def _mesh(n_arg, m_arg=None):
    def count(args):
        n = int(args[n_arg])
        m = args.get(m_arg) if m_arg else None
        return n * (n if m is None else int(m))
    return count


def _matrices(args):
    h = args["h"]
    return int(getattr(h, "size", 4)) // 4


def _written(args):
    return os.path.getsize(args["path"])


# (module, attribute, points counter, bytes counter).  A dotted attribute
# names a method, wrapped on its class.  ``bounds`` check_* functions are
# found at install time.
TARGETS = [
    ("models", "BlochModel.hamiltonian", _points("kx", "ky"), None),
    ("models", "BlochModel.derivative", _points("kx", "ky"), None),
    ("spectra", "eigensystem_two_band", _matrices, None),
    ("spectra", "Eigensystem.validate", None, None),
    ("geometry", "scan_geometry", _mesh("nx", "ny"), None),
    ("geometry", "compute_geometry", None, None),
    ("topology", "chern_plaquette", _mesh("n_grid"), None),
    ("topology", "compute_chern", None, None),
    ("response", "interband_fh", _points("kx", "ky"), None),
    ("response", "optical_weight_bz", _mesh("n_grid"), None),
    ("response", "response_spectrum", None, None),
    ("lindblad", "bubble_positivity", None, None),
    ("serialize", "write_geometry_csv", None, _written),
    ("serialize", "write_csv", None, _written),
    ("serialize", "write_report_json", None, _written),
    ("cli", "load_config", None, None),
    ("cli", "cmd_scan", None, None),
    ("cli", "cmd_chern", None, None),
    ("cli", "cmd_bounds", None, None),
    ("cli", "cmd_optical_weight", None, None),
    ("cli", "cmd_lindblad_check", None, None),
]

#: spans not opened when the caller is already inside this span: the rows
#: that ``write_geometry_csv`` formats belong to it, not to ``write_csv``
NESTED_IN = {"serialize.write_csv": "serialize.write_geometry_csv"}


class Tracer:
    """In-memory span store shared by every wrapper of one run."""

    def __init__(self, request="run"):
        self.request = request
        # [name, start, end, parent, request, thread, points, bytes, error];
        # points and bytes stay None for functions that have no such counter
        self.spans = []
        self._local = threading.local()
        self._main = threading.get_ident()
        self._main_stack = []
        self._raised = set()
        self._lock = threading.Lock()

    def _stack(self):
        if threading.get_ident() == self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, points=None, nbytes=None):
        sig = inspect.signature(fn) if (points or nbytes) else None
        skip_inside = NESTED_IN.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            if skip_inside and stack and self.spans[stack[-1]][0] == skip_inside:
                return fn(*args, **kwargs)
            if stack:
                parent = stack[-1]
            else:
                # pool-thread work belongs to the main-thread span open around it
                parent = self._main_stack[-1] if self._main_stack else None
            span = [name, time.perf_counter(), None, parent, self.request,
                    threading.get_ident(), None, None, 0]
            with self._lock:  # pool threads append too
                self.spans.append(span)
                stack.append(len(self.spans) - 1)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                # count an error once, in the innermost span it crossed
                if id(exc) not in self._raised:
                    self._raised.add(id(exc))
                    span[8] = 1
                raise
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if sig is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                if points:
                    span[6] = points(bound.arguments)
                if nbytes:
                    span[7] = nbytes(bound.arguments)
            return result

        return wrapper

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


def _rebind(original, wrapper):
    """Point every module-level name bound to ``original`` at ``wrapper``,
    including names imported by value (``cli.scan_geometry``, ...).  Returns
    the ``(module, name)`` pairs it changed."""
    changed = []
    for modname, mod in list(sys.modules.items()):
        if modname == "nhgeo" or modname.startswith("nhgeo."):
            for key, val in list(vars(mod).items()):
                if val is original:
                    setattr(mod, key, wrapper)
                    changed.append((mod, key))
    return changed


def install(tracer):
    """Wrap every traced function of the ``nhgeo`` modules with ``tracer``.
    Returns a function that puts the originals back."""
    mods = {name: importlib.import_module(f"nhgeo.{name}") for name in LAYERS}
    targets = list(TARGETS)
    targets += [("bounds", name, None, None) for name in sorted(vars(mods["bounds"]))
                if name.startswith("check_") and callable(getattr(mods["bounds"], name))]
    undo = []  # (owner, name, original)
    for layer, attr, points, nbytes in targets:
        owner = mods[layer]
        *cls, fname = attr.split(".")
        if cls:
            owner = getattr(owner, cls[0])
        original = getattr(owner, fname)
        wrapper = tracer.wrap(f"{layer}.{fname}", original, points, nbytes)
        setattr(owner, fname, wrapper)
        undo.append((owner, fname, original))
        if not cls:
            undo += [(mod, key, original) for mod, key in _rebind(original, wrapper)]

    def uninstall():
        for owner, name, original in reversed(undo):
            setattr(owner, name, original)

    return uninstall


def offset_parents(spans, offset):
    """Spans read from one child's file, renumbered to follow ``offset`` others."""
    for span in spans:
        if span[3] is not None:
            span[3] += offset
    return spans


def _self_times(spans):
    """Span duration minus the union of its children's intervals."""
    children = {}
    for idx, span in enumerate(spans):
        if span[3] is not None:
            children.setdefault(span[3], []).append(idx)
    out = []
    for idx, span in enumerate(spans):
        start, end = span[1], span[2]
        covered, cur_a, cur_b = 0.0, None, None
        for a, b in sorted((max(spans[c][1], start), min(spans[c][2], end))
                           for c in children.get(idx, ())):
            if b <= a:
                continue
            if cur_b is None or a > cur_b:
                if cur_b is not None:
                    covered += cur_b - cur_a
                cur_a, cur_b = a, b
            else:
                cur_b = max(cur_b, b)
        if cur_b is not None:
            covered += cur_b - cur_a
        out.append((end - start) - covered)
    return out


def _metric_name(span_name):
    layer, fname = span_name.split(".", 1)
    return "bounds.check" if layer == "bounds" and fname.startswith("check_") else span_name


def layer_metrics(spans, by_request=False):
    """Per-layer metrics ``<module>.<function>.<stat>`` and ``<module>.errors``.

    With ``by_request`` the result maps each command (the request id before
    ``#``) to its own metrics.
    """
    self_s = _self_times(spans)
    groups = {}
    for span, own in zip(spans, self_s):
        key = span[4].split("#")[0] if by_request else "all"
        out = groups.setdefault(key, {f"{layer}.errors": 0 for layer in LAYERS})
        base = _metric_name(span[0])
        for stat, val in (("calls", 1), ("points", span[6]), ("self_s", own),
                          ("bytes", span[7])):
            if val is not None:
                out[f"{base}.{stat}"] = out.get(f"{base}.{stat}", 0) + val
        out[f"{span[0].split('.')[0]}.errors"] += span[8]
    return groups if by_request else groups.get("all", {f"{l}.errors": 0 for l in LAYERS})


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True, help="file the spans are written to")
    parser.add_argument("--request", default="run", help="request id: command#pass")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    import nhgeo.cli

    tracer = Tracer(args.request)
    install(tracer)
    try:
        code = nhgeo.cli.main(cli_args)
    finally:
        tracer.dump(args.spans)
    return code


if __name__ == "__main__":
    sys.exit(main())
