"""CSV and JSON emission for grids, reports and sweeps.

CSV files carry a mandatory header row, comma separators, LF line endings
and floats at 17 significant digits, so identical runs produce identical
bytes, whatever the number of formatting processes.  JSON reports are
schema-versioned and embed the configuration that produced them.  An
``OSError`` while writing any output becomes a ``ConfigError``.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import shutil
import signal
import tempfile
import types

import numpy as np

from .errors import ConfigError
from .tolerances import FORMAT_HALF_BAND, FORMAT_RANGE

SCHEMA_VERSION = 1

#: values formatted per block: bounds the transient arrays to ~4 MB
_CSV_BLOCK = 16384

#: fewest values per formatting process: on 2 vCPUs a forked part of 2^17
#: values (~40 ms of formatting) costs more than it saves, 2^18 breaks even
_CSV_PART = 1 << 18

#: the format tables cover decades |e| < _E_MAX; |x| < FORMAT_RANGE keeps
#: e within +-283.  Layouts per sign: 23 notations (fixed for e in -4..16,
#: or an exponent of 2 or 3 digits) times 1-17 significant digits
_E_MAX, _LAYOUTS = 290, 23 * 17


def split_parts(seq, workers, cap):
    """``seq`` cut into contiguous slices, in order, one per process that
    shares the job: at most the requested ``workers``, the usable CPUs and
    ``cap``, and at least 1.  The first slice is the caller's, the others
    go to :func:`fork_parts`."""
    n_parts = max(1, min(workers, _usable_cpus(), cap))
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


def _write_rows(fh, blocks):
    """Append the rows of the column ``blocks`` to the binary file ``fh``,
    joined and formatted by :func:`_format_block` ``_CSV_BLOCK`` values at a time."""
    rows = max(1, _CSV_BLOCK // max(1, sum(b.shape[1] for b in blocks)))
    for i in range(0, len(blocks[0]), rows):
        fh.write(_format_block(np.concatenate([b[i:i + rows] for b in blocks], axis=1)))


@functools.cache
def _format_tables():
    """The constant tables of :func:`_format_block`, built on first use."""
    decades = range(-_E_MAX, _E_MAX)
    # 10^(16-e) = num/den as hi + lo, the nearest double and the nearest to
    # the rest: Python's int division and int-to-float conversion round exactly
    hi, lo = np.empty(len(decades)), np.empty(len(decades))
    for i, e in enumerate(decades):
        num, den = (10 ** (16 - e), 1) if e <= 16 else (1, 10 ** (e - 16))
        hi[i] = num / den
        hnum, hden = hi[i].as_integer_ratio()
        lo[i] = (num * hden - hnum * den) / (den * hden)
    quads = np.arange(10000)[:, None] // np.array([1000, 100, 10, 1]) % 10 + ord("0")
    digits4 = quads.astype(np.uint8).view(np.uint32).ravel()
    sig4 = 4 - sum(np.arange(10000) % 10 ** j == 0 for j in range(1, 5))
    exp_chars = np.frombuffer("".join(f"{e:+04d}" for e in decades).encode(), np.uint32)
    notation = np.array([e + 4 if -4 <= e < 17 else 21 + (abs(e) >= 100) for e in decades])
    # plan: the columns of a _chars row that a layout prints: 0-2 "-.0", 3-19
    # the 17 digits, 20-23 the exponent's sign and 3 digits, 24 "e", 25 ",\n"
    plans = []
    for neg, mode, k in np.ndindex(2, 23, 17):
        e, k, plan = mode - 4, k + 1, [0] * neg
        if mode > 20:  # d.ddde+XX
            plan += [3] + ([1] + list(range(4, 3 + k)) if k > 1 else [])
            plan += [24, 20] + [21] * (mode == 22) + [22, 23]
        elif e >= 0:  # ddd.ddd, the integer part padded with zeros
            plan += list(range(3, 4 + e))
            plan += [1] + list(range(4 + e, 3 + k)) if k > e + 1 else []
        else:  # 0.000ddd
            plan += [2, 1] + [2] * (-e - 1) + list(range(3, 3 + k))
        plans.append(plan + [25])
    plans += [list(range(n)) + [25] for n in range(1, 25)]  # "%.17g" strings
    width = max(map(len, plans))
    return types.SimpleNamespace(
        hi=hi, lo=lo, digits4=digits4, sig4=sig4, exp_chars=exp_chars, notation=notation * 17,
        plans=np.array([p + [0] * (width - len(p)) for p in plans]),
        masks=np.arange(width) < np.array([len(p) for p in plans])[:, None])


def _scaled(a, e):
    """a 10^(16-e) as p + s: p the rounded product of a with hi, s its exact
    error (a Dekker two-product) plus the rounded product of a with lo."""
    tables = _format_tables()
    h, l = tables.hi[e + _E_MAX], tables.lo[e + _E_MAX]
    p = a * h
    ca, ch = 134217729.0 * a, 134217729.0 * h  # Veltkamp split into 26-bit halves
    a1, h1 = ca - (ca - a), ch - (ch - h)
    a2, h2 = a - a1, h - h1
    return p, (((a1 * h1 - p) + a1 * h2 + a2 * h1) + a2 * h2) + a * l


def _decimal(x):
    """(N, e, exact) per value of the 1-D float64 ``x``: for ``exact``
    values, |x| rounded to 17 significant digits is N 10^(e-16), with
    10^16 <= N < 10^17, or N = 0 for a zero.

    In range, e = floor(log10|x|) and p + s (:func:`_scaled`) is within
    4e-15 of |x| 10^(16-e): p is an integer, |s| < 20 rounds twice by at
    most 1.8e-15 and 0.9e-15, and lo is off by at most 2^-106 p = 1.3e-15.
    The decade is decided on the unrounded p + s: 1e16 - 0.04 <= p + s <
    1e17, whose low edge rounds to 10^16 at either decade.  Values within
    FORMAT_HALF_BAND of a half (exact ties among them), decades still
    moving after two corrections and nonzero values out of range are not
    ``exact``.
    """
    a = np.abs(x)
    exact = (a > 1 / FORMAT_RANGE) & (a < FORMAT_RANGE)
    a[~exact] = 1.0
    e = np.floor(np.log10(a)).astype(np.intp)
    p, s = _scaled(a, e)
    for fix in range(3):  # log10 puts e at most one decade off
        step = ((p - 1e17) + s >= 0).astype(np.intp) - ((p - 1e16) + s < -0.04)
        moved = np.flatnonzero(step)
        if fix == 2 or not moved.size:
            break
        e[moved] += step[moved]
        p[moved], s[moved] = _scaled(a[moved], e[moved])
    exact[moved] = False
    whole = np.floor(s)
    frac = s - whole
    exact &= np.abs(frac - 0.5) > FORMAT_HALF_BAND
    n = p.astype(np.int64) + whole.astype(np.int64) + (frac > 0.5)
    carry = n == 10 ** 17
    n[carry] = 10 ** 16
    e += carry
    n[x == 0] = 0
    return n, e, exact | (x == 0)


def _chars(block):
    """(chars, layout) of the values of the 2-D float64 ``block``: per
    value a row of the columns that a plan of _format_tables picks from,
    and the index of that plan."""
    tables = _format_tables()
    x = block.ravel()
    n, e, exact = _decimal(x)
    lead, groups = n, [None] * 4  # N as its first digit and four 4-digit groups
    for i in (3, 2, 1, 0):
        lead, groups[i] = np.divmod(lead, 10000)
    k = 1 + tables.sig4[groups[0]]  # significant digits, up to the last nonzero one
    for i in (1, 2, 3):
        k = np.where(groups[i], 1 + 4 * i + tables.sig4[groups[i]], k)
    chars = np.empty((x.size, 28), np.uint8)
    chars[:, :3] = np.frombuffer(b"-.0", np.uint8)
    chars[:, 3] = lead + ord("0")
    words = chars.view(np.uint32)
    words[:, 1:5] = tables.digits4[np.stack(groups, axis=1)]
    words[:, 5] = tables.exp_chars[e + _E_MAX]
    chars[:, 24] = ord("e")
    chars[:, 25] = np.where((np.arange(x.size) + 1) % block.shape[1], ord(","), ord("\n"))
    layout = tables.notation[e + _E_MAX] + _LAYOUTS * np.signbit(x) + (k - 1)
    for i in np.flatnonzero(~exact):
        text = ("%.17g" % x[i]).encode()
        chars[i, :len(text)] = np.frombuffer(text, np.uint8)
        layout[i] = 2 * _LAYOUTS + len(text) - 1
    return chars, layout


def _format_block(block):
    """The bytes of f"{x:.17g}" for each value x of the 2-D float64
    ``block``, joined by "," and ending each row in "\\n"."""
    tables = _format_tables()
    chars, layout = _chars(block)
    # the digit arrays die with _chars, before the pick (200 bytes per value)
    # is made: a block's transient memory peaks at ~280 bytes per value
    pick = tables.plans.take(layout, axis=0)
    pick += np.arange(0, chars.size, chars.shape[1])[:, None]
    return chars.ravel().take(pick)[tables.masks.take(layout, axis=0)].tobytes()


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


@contextlib.contextmanager
def _replacing(path, mode):
    """The file opened in ``mode`` under a temporary name in the directory of
    ``path``, which atomically replaces ``path`` once the block completes.  A
    failure removes it and leaves the previous file, if any; an ``OSError``
    becomes a ``ConfigError``."""
    partial = f"{path}.{os.getpid()}.tmp"
    try:
        with open(partial, mode) as fh:
            yield fh
        os.replace(partial, path)
    except BaseException as exc:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(partial)
        if isinstance(exc, OSError):
            raise ConfigError(f"cannot write output {path}: {exc}") from exc
        raise


def write_csv(path, header, columns, workers=1):
    """Write a float table with a header; deterministic byte output.

    ``columns``, 2-D float arrays with one row count, are joined one row block
    at a time, and each value printed as "%.17g" prints it (the bytes of
    f"{x:.17g}") by the vectorised :func:`_format_block`.  The rows are cut
    into ``split_parts(rows, workers, values // _CSV_PART)``, all but the first
    formatted in forked processes (:func:`fork_parts`); the bytes do not
    depend on ``workers``.  The file is written through :func:`_replacing`, so
    a failed write leaves the previous file, if any, and no partial one.
    Raises ``ConfigError`` when the file cannot be written."""
    blocks = [np.asarray(c, dtype=float) for c in columns]
    n = len(blocks[0])
    if any(b.ndim != 2 or len(b) != n for b in blocks) or sum(
            b.shape[1] for b in blocks) != len(header):
        raise ValueError(f"column blocks {[b.shape for b in blocks]} do not fit the header")
    parts = [[b[rows.start:rows.stop] for b in blocks]
             for rows in split_parts(range(n), workers, n * len(header) // _CSV_PART)]
    _format_tables()  # built here, so that no forked part builds its own
    with _replacing(path, "wb") as fh, fork_parts(
            _write_rows, parts[1:], os.path.dirname(os.path.abspath(path))) as done:
        fh.write((",".join(header) + "\n").encode())
        _write_rows(fh, parts[0])
        for code, tmp in done:
            if code != 0:
                raise ChildProcessError(f"a CSV formatting process exited with status {code}")
            shutil.copyfileobj(tmp, fh, 1 << 20)


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
    # complex arrays viewed as float interleave (re, im); qgt_rl is copied row-major
    write_csv(path, geometry_csv_header(), [
        np.ascontiguousarray(c).view(float).reshape(grid.kx.size, -1) for c in (
            grid.kx, grid.ky, grid.qgt_lr, grid.qgt_rl, grid.qgt_rr, grid.qgt_ll,
            grid.anomalous_r, grid.anomalous_l, grid.curvature_lr, grid.norm_product)], workers)


def write_bound_csv(path, report, workers=1):
    """Per-point margin table of one bound report."""
    n = report.lhs.shape[0]
    labels = np.asarray(report.labels, dtype=float).reshape(n, -1)
    header = [f"label{i}" for i in range(labels.shape[1])] + ["lhs", "rhs", "margin"]
    write_csv(path, header, [labels] + [v[:, None] for v in (report.lhs, report.rhs,
                                                              report.margin)], workers)


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


def write_report_json(path, payload, config):
    """Schema-versioned JSON document with the config echoed back, written
    through :func:`_replacing` as the CSVs are."""
    doc = {"schema_version": SCHEMA_VERSION, "config": _to_jsonable(config)}
    doc.update(_to_jsonable(payload))
    with _replacing(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def bound_report_summary(report):
    return {
        "name": report.name,
        "passed": report.passed,
        "worst_margin": report.worst_margin,
        "tolerance": report.tolerance,
        "n_points": int(report.lhs.shape[0]),
        "extra": _to_jsonable(report.extra),
    }
