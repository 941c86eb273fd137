import numpy as np
import pytest

from nhgeo import serialize
from nhgeo.bounds import check_optical_weight_bound, check_psd, check_qgt_inequality
from nhgeo.geometry import scan_geometry
from nhgeo.serialize import write_bound_csv, write_csv, write_geometry_csv

# -0.0, a subnormal, the smallest normal, non-finite values and digits that
# need all 17 significant places
SPECIAL = [-0.0, 5e-324, 2.2250738585072014e-308, np.nan, np.inf, -np.inf,
           0.1, 1.0 / 3.0, -1.2345678901234567e300, 7.0]


def _per_element_csv(header, rows):
    """The per-element rule every CSV follows: f"{x:.17g}" joined by commas."""
    return ",".join(header) + "\n" + "".join(
        ",".join(f"{float(x):.17g}" for x in row) + "\n" for row in rows)


def _read(path):
    with open(path, newline="") as fh:
        return fh.read()


def test_write_csv_matches_per_element_rule(tmp_path, monkeypatch):
    # three rows per block: the ten rows span four formatting blocks
    monkeypatch.setattr(serialize, "_CSV_BLOCK", 3)
    table = np.array(SPECIAL * 3).reshape(10, 3)
    header = ["a", "b", "c"]
    write_csv(tmp_path / "t.csv", header, table)
    assert _read(tmp_path / "t.csv") == _per_element_csv(header, table)


def test_write_csv_rejects_mismatched_table(tmp_path):
    with pytest.raises(ValueError):
        write_csv(tmp_path / "t.csv", ["a", "b"], np.zeros((2, 3)))


def test_geometry_csv_matches_per_element_rule(tmp_path, rm_model):
    grid = scan_geometry(rm_model, nx=3, ny=4)
    grid.qgt_rr[0, 1, 1, 0] = complex(-0.0, 5e-324)
    grid.norm_product[2, 3] = -0.0
    rows = []
    for i in range(3):
        for j in range(4):
            row = [grid.kx[i, j], grid.ky[i, j]]
            for tensor in (grid.qgt_lr, grid.qgt_rl, grid.qgt_rr, grid.qgt_ll):
                for mu in range(2):
                    for nu in range(2):
                        row += [tensor[i, j, mu, nu].real, tensor[i, j, mu, nu].imag]
            for vec in (grid.anomalous_r, grid.anomalous_l):
                for mu in range(2):
                    row += [vec[i, j, mu].real, vec[i, j, mu].imag]
            row += [grid.curvature_lr[i, j].real, grid.curvature_lr[i, j].imag,
                    grid.norm_product[i, j]]
            rows.append(row)
    write_geometry_csv(tmp_path / "g.csv", grid)
    expected = _per_element_csv(serialize.geometry_csv_header(), rows)
    assert _read(tmp_path / "g.csv") == expected


def test_bound_csv_matches_per_element_rule(tmp_path, rm_model):
    grid = scan_geometry(rm_model, nx=3, ny=2)
    reports = [check_qgt_inequality(grid),  # labels kx, ky, index pair
               check_psd(grid.qgt_rr),      # one integer label per point
               check_optical_weight_bound(1.0, 1, -0.5)]  # a single entry
    for k, rep in enumerate(reports):
        labels = np.asarray(rep.labels, dtype=float)
        labels = labels if labels.ndim == 2 else labels[:, None]
        rows = [list(lab) + [rep.lhs[i], rep.rhs[i], rep.margin[i]]
                for i, lab in enumerate(labels)]
        header = [f"label{c}" for c in range(labels.shape[1])] + ["lhs", "rhs", "margin"]
        write_bound_csv(tmp_path / f"b{k}.csv", rep)
        assert _read(tmp_path / f"b{k}.csv") == _per_element_csv(header, rows)
    assert _read(tmp_path / "b0.csv").startswith("label0,label1,label2,lhs,rhs,margin\n")
