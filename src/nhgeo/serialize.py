"""CSV and JSON emission for grids, reports and sweeps.

CSV files carry a mandatory header row, comma separators, LF line endings
and floats at 17 significant digits, so identical runs produce identical
bytes.  JSON reports are schema-versioned and embed the configuration that
produced them.
"""

from __future__ import annotations

import json

import numpy as np

SCHEMA_VERSION = 1

#: rows formatted per string operation; bounds the transient text to a few MB
_CSV_BLOCK = 2048


def write_csv(path, header, table):
    """Write a 2-D float table with a header; deterministic byte output.

    Each value is printed "%.17g" (the bytes of f"{x:.17g}"), one string
    operation per block of rows.
    """
    table = np.asarray(table, dtype=float)
    if table.ndim != 2 or table.shape[1] != len(header):
        raise ValueError(f"table shape {table.shape} does not fit {len(header)} columns")
    line = ",".join(["%.17g"] * len(header)) + "\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for i in range(0, table.shape[0], _CSV_BLOCK):
            block = table[i:i + _CSV_BLOCK]
            fh.write((line * block.shape[0]) % tuple(block.ravel().tolist()))


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


def write_geometry_csv(path, grid):
    """Row-major (kx, ky) rows with Re/Im of every tensor component."""
    n = grid.kx.size
    cols = [grid.kx, grid.ky, grid.qgt_lr, grid.qgt_rl, grid.qgt_rr, grid.qgt_ll,
            grid.anomalous_r, grid.anomalous_l, grid.curvature_lr, grid.norm_product]
    # a complex array viewed as float interleaves (re, im) per component
    table = np.concatenate([np.ascontiguousarray(c).view(float).reshape(n, -1)
                            for c in cols], axis=1)
    write_csv(path, geometry_csv_header(), table)


def write_bound_csv(path, report):
    """Per-point margin table of one bound report."""
    n = report.lhs.shape[0]
    labels = np.asarray(report.labels, dtype=float).reshape(n, -1)
    header = [f"label{i}" for i in range(labels.shape[1])] + ["lhs", "rhs", "margin"]
    write_csv(path, header, np.column_stack([labels, report.lhs, report.rhs,
                                             report.margin]))


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
    with open(path, "w") as fh:
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
