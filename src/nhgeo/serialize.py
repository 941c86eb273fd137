"""CSV and JSON emission for grids, reports and sweeps.

CSV files carry a mandatory header row, comma separators, LF line endings
and floats at 17 significant digits, so identical runs produce identical
bytes, whatever the number of formatting processes.  JSON reports are
schema-versioned and embed the configuration that produced them.  An
``OSError`` while writing any output becomes a ``ConfigError``.
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import signal
import tempfile

import numpy as np

from .errors import ConfigError

SCHEMA_VERSION = 1

#: rows formatted per string operation; bounds the transient text to a few MB
_CSV_BLOCK = 2048


def csv_parts(workers, cpus, blocks):
    """Processes that share one job, the caller included: at most the
    requested ``workers``, the usable ``cpus`` and the ``blocks`` the job
    divides into, and at least 1."""
    return max(1, min(workers, cpus, blocks))


def split_parts(seq, workers, cap):
    """``seq`` cut into ``csv_parts(workers, usable CPUs, cap)`` contiguous
    slices, in order; the first is the caller's, the others go to
    :func:`fork_parts`."""
    n_parts = csv_parts(workers, _usable_cpus(), cap)
    edges = [len(seq) * p // n_parts for p in range(n_parts + 1)]
    return [seq[a:b] for a, b in zip(edges, edges[1:])]


def _usable_cpus():
    """CPUs this process may run on; 1 where it cannot fork."""
    if not hasattr(os, "fork"):
        return 1
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _write_rows(fh, line, table):
    """Append the rows of ``table`` to the binary file ``fh``, one string
    operation per ``_CSV_BLOCK`` rows."""
    for i in range(0, table.shape[0], _CSV_BLOCK):
        block = table[i:i + _CSV_BLOCK]
        fh.write(((line * block.shape[0]) % tuple(block.ravel().tolist())).encode())


@contextlib.contextmanager
def fork_parts(work, parts, tmpdir):
    """Run ``work(fh, part)`` for each of ``parts`` in its own forked child,
    which writes into an unlinked temporary file in ``tmpdir`` and exits
    with status 0 once ``work`` has returned.  The block receives an
    iterator that reaps the children in order and yields, per part, the
    child's exit code and its file, rewound.  On leaving the block every
    child still running is killed and reaped, and every file closed."""
    children = []  # [temporary file, pid or None once reaped]

    def reap():
        for child in children:
            tmp, pid = child
            _, status = os.waitpid(pid, 0)
            child[1] = None
            tmp.seek(0)
            yield os.waitstatus_to_exitcode(status), tmp

    try:
        for part in parts:
            tmp = tempfile.TemporaryFile(dir=tmpdir)
            children.append([tmp, None])
            pid = os.fork()
            if pid == 0:
                # the child never returns into the caller: no atexit handler,
                # no flush of a buffer it inherited
                code = 1
                try:
                    work(tmp, part)
                    tmp.flush()
                    code = 0
                finally:
                    os._exit(code)
            children[-1][1] = pid
        yield reap()
    finally:
        for tmp, pid in children:
            if pid is not None:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            tmp.close()


def write_csv(path, header, table, workers=1):
    """Write a 2-D float table with a header; deterministic byte output.

    Each value is printed "%.17g" (the bytes of f"{x:.17g}"), one string
    operation per block of rows.  The rows are cut into
    ``split_parts(table, workers, rows // _CSV_BLOCK)``, all but the first
    formatted in forked processes (:func:`fork_parts`); the bytes do not
    depend on ``workers``.  The file is written under a temporary name in
    the same directory and atomically replaces ``path`` once complete, so a
    failed write leaves the previous file, if any, and no partial one.  Raises
    ``ConfigError`` when the file cannot be written.
    """
    table = np.asarray(table, dtype=float)
    if table.ndim != 2 or table.shape[1] != len(header):
        raise ValueError(f"table shape {table.shape} does not fit {len(header)} columns")
    line = ",".join(["%.17g"] * len(header)) + "\n"
    parts = split_parts(table, workers, table.shape[0] // _CSV_BLOCK)
    partial = f"{path}.{os.getpid()}.tmp"
    try:
        with open(partial, "wb") as fh, fork_parts(
                lambda tmp, part: _write_rows(tmp, line, part), parts[1:],
                os.path.dirname(os.path.abspath(path))) as done:
            fh.write((",".join(header) + "\n").encode())
            _write_rows(fh, line, parts[0])
            for code, tmp in done:
                if code != 0:
                    raise ChildProcessError(f"a CSV formatting process exited with status {code}")
                shutil.copyfileobj(tmp, fh, 1 << 20)
        os.replace(partial, path)
    except BaseException as exc:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(partial)
        if isinstance(exc, OSError):
            raise ConfigError(f"cannot write output {path}: {exc}") from exc
        raise


def geometry_csv_header():
    header = ["kx", "ky"]
    for tag in ("qgt_lr", "qgt_rl", "qgt_rr", "qgt_ll"):
        for mu in "xy":
            for nu in "xy":
                header += [f"re_{tag}_{mu}{nu}", f"im_{tag}_{mu}{nu}"]
    for tag in ("anom_r", "anom_l"):
        for mu in "xy":
            header += [f"re_{tag}_{mu}", f"im_{tag}_{mu}"]
    header += ["re_curvature", "im_curvature", "norm_product"]
    return header


def write_geometry_csv(path, grid, workers=1):
    """Row-major (kx, ky) rows with Re/Im of every tensor component."""
    n = grid.kx.size
    cols = [grid.kx, grid.ky, grid.qgt_lr, grid.qgt_rl, grid.qgt_rr, grid.qgt_ll,
            grid.anomalous_r, grid.anomalous_l, grid.curvature_lr, grid.norm_product]
    # a complex array viewed as float interleaves (re, im) per component
    table = np.concatenate([np.ascontiguousarray(c).view(float).reshape(n, -1)
                            for c in cols], axis=1)
    write_csv(path, geometry_csv_header(), table, workers)


def write_bound_csv(path, report, workers=1):
    """Per-point margin table of one bound report."""
    n = report.lhs.shape[0]
    labels = np.asarray(report.labels, dtype=float).reshape(n, -1)
    header = [f"label{i}" for i in range(labels.shape[1])] + ["lhs", "rhs", "margin"]
    write_csv(path, header, np.column_stack([labels, report.lhs, report.rhs,
                                             report.margin]), workers)


def _to_jsonable(obj):
    if isinstance(obj, dict):
        return {k: _to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_to_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        if np.iscomplexobj(obj):
            return {"re": obj.real.tolist(), "im": obj.imag.tolist()}
        return obj.tolist()
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    return obj


def write_report_json(path, payload, config=None):
    """Schema-versioned JSON document with the config echoed back."""
    doc = {"schema_version": SCHEMA_VERSION}
    if config is not None:
        doc["config"] = _to_jsonable(config)
    doc.update(_to_jsonable(payload))
    try:
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
    except OSError as exc:
        raise ConfigError(f"cannot write output {path}: {exc}") from exc


def bound_report_summary(report):
    return {
        "name": report.name,
        "passed": report.passed,
        "worst_margin": report.worst_margin,
        "tolerance": report.tolerance,
        "n_points": int(report.lhs.shape[0]),
        "extra": _to_jsonable(report.extra),
    }
