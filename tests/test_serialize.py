import json
import os
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
import yaml

from conftest import assert_no_child_left, fail_in_child
from nhgeo import serialize
from nhgeo.bounds import check_optical_weight_bound, check_psd, check_qgt_inequality
from nhgeo.cli import load_config, main
from nhgeo.errors import ConfigError
from nhgeo.geometry import scan_geometry
from nhgeo.serialize import (split_parts, write_bound_csv, write_csv,
                             write_geometry_csv)

# -0.0, a subnormal, the smallest normal, non-finite values and digits that
# need all 17 significant places; a value whose 17 digits round up into the
# next decade, one whose log10 lands a decade low, a half-even tie, and the
# edges of fixed notation (1e-05, 0.0001; 1e16, 1e17)
SPECIAL = [-0.0, 5e-324, 2.2250738585072014e-308, np.nan, np.inf, -np.inf,
           0.1, 1.0 / 3.0, -1.2345678901234567e300, 7.0,
           9.9999999999999997e-278, 1e20, 1234567890123456.25,
           1e-05, 0.0001, 1e16, 1e17]


def _per_element_csv(header, rows):
    """The per-element rule every CSV follows: f"{x:.17g}" joined by commas."""
    return ",".join(header) + "\n" + "".join(
        ",".join(f"{float(x):.17g}" for x in row) + "\n" for row in rows)


def _read(path):
    with open(path, newline="") as fh:
        return fh.read()


def test_write_csv_matches_per_element_rule(tmp_path, monkeypatch):
    # three rows of 3 values per block: the 17 rows span six formatting blocks
    monkeypatch.setattr(serialize, "_CSV_BLOCK", 9)
    table = np.array(SPECIAL * 3).reshape(17, 3)
    header = ["a", "b", "c"]
    write_csv(tmp_path / "t.csv", header, [table])
    assert _read(tmp_path / "t.csv") == _per_element_csv(header, table)


def _decade_neighbours(rng):
    # 10^k +- 3 ulp, where floor(log10|x|) can land a decade off
    powers = np.array([float(f"1e{k}") for k in range(-307, 309)]).view(np.int64)
    near = (powers[:, None] + np.arange(-3, 4)).view(np.float64).ravel()
    return np.concatenate([near, -near])


def _scaled_17_digit_integers(rng):
    digits = rng.integers(10**16, 10**17, 4000).tolist()
    return np.array([float(f"{m}e{e}") for m, e in zip(digits, rng.integers(-340, 292, 4000))])


FORMAT_CASES = {
    "random_bits": lambda rng: rng.integers(0, 2**64, 20000, dtype=np.uint64).view(np.float64),
    "decade_neighbours": _decade_neighbours,
    "dyadic": lambda rng: np.ldexp(rng.integers(1, 2**53, 8000).astype(float),
                                   rng.integers(-70, 20, 8000)),
    "scaled_17_digit_integers": _scaled_17_digit_integers,
    # m + 1/2 over 2^j: 17-digit half-even ties among them
    "halves": lambda rng: ((rng.integers(0, 2**52, 8000) + 0.5)
                           * 2.0 ** -rng.integers(0, 30, 8000)),
    "specials": lambda rng: np.array(SPECIAL + [1e280, -1e-280, 1e300, 1.7976931348623157e308,
                                                -5e-324, -np.nan, 0.5, 2.5, 100.0]),
}


@pytest.mark.parametrize("case", FORMAT_CASES)
def test_formatter_matches_per_element_rule(tmp_path, case):
    values = FORMAT_CASES[case](np.random.default_rng(20261019))
    table = np.resize(values, (-(-values.size // 7), 7))
    header = [f"c{i}" for i in range(7)]
    write_csv(tmp_path / "t.csv", header, [table])
    assert _read(tmp_path / "t.csv") == _per_element_csv(header, table)


def test_formatter_defers_only_ties_and_the_out_of_range():
    # the vectorised route serves every value but half-even ties, non-finite
    # values, subnormals and magnitudes beyond 1e280; zeros stay on it
    served = [0.0, -0.0, 0.1, -2.5, 1e-05, 1e20, 9.9999999999999997e-278, 1e17,
              1.2345678901234567e279, 4.9406564584124654e-280]
    deferred = [1234567890123456.25, -1234567890123456.75, np.nan, np.inf, 5e-324, 1e-300,
                -1e300]
    exact = serialize._decimal(np.array(served + deferred))[2]
    assert exact.tolist() == [True] * len(served) + [False] * len(deferred)
    # in range, only exact ties are deferred: |x| 10^(16-e) is m + 1/2
    bits = np.random.default_rng(7).integers(0, 2**64, 20000, dtype=np.uint64).view(np.float64)
    bits = bits[(np.abs(bits) > 1e-280) & (np.abs(bits) < 1e280)]
    _, decade, exact = serialize._decimal(bits)
    for x, e in zip(bits[~exact].tolist(), decade[~exact].tolist()):
        assert (abs(Fraction(x)) * Fraction(10) ** (16 - e)) % 1 == Fraction(1, 2)
    assert 0 < (~exact).sum() < 20


def test_geometry_csv_of_a_64x64_scan_matches_per_element_rule(tmp_path, rm_model):
    grid = scan_geometry(rm_model, nx=64, ny=64)
    cols = [grid.kx, grid.ky, grid.qgt_lr, grid.qgt_rl, grid.qgt_rr, grid.qgt_ll,
            grid.anomalous_r, grid.anomalous_l, grid.curvature_lr, grid.norm_product]
    # qgt_rl is a conjugated transposed view of qgt_lr: copy it row-major first
    table = np.concatenate([np.ascontiguousarray(c).view(float).reshape(64 * 64, -1)
                            for c in cols], axis=1)
    write_geometry_csv(tmp_path / "g.csv", grid)
    assert _read(tmp_path / "g.csv") == _per_element_csv(serialize.geometry_csv_header(), table)


@pytest.mark.parametrize("rows", [10, 7, 12, 0],
                         ids=["partial_last_block", "fewer_blocks_than_workers",
                              "whole_blocks", "no_rows"])
def test_write_csv_bytes_do_not_depend_on_workers(tmp_path, csv_forks, rows):
    # parts of at least 9 values, 3 rows: 10 rows make 3 whole parts and a
    # partial one, 7 rows only 2 whole parts, so 3 and 4 workers still use 2
    # processes
    table = np.resize(np.array(SPECIAL), (rows, 3))
    header = ["a", "b", "c"]
    expected = _per_element_csv(header, table)
    for workers in (1, 2, 3, 4):
        del csv_forks[:]
        write_csv(tmp_path / f"w{workers}.csv", header, [table], workers=workers)
        assert _read(tmp_path / f"w{workers}.csv") == expected
        assert len(csv_forks) == len(split_parts(table, workers, table.size // 9)) - 1
    assert sorted(os.listdir(tmp_path)) == [f"w{w}.csv" for w in (1, 2, 3, 4)]
    assert_no_child_left()


def test_split_parts_contiguous_and_capped(monkeypatch):
    # the cut both the CSV writer and the optical-weight sweep use
    monkeypatch.setattr(serialize, "_usable_cpus", lambda: 3)
    assert split_parts(range(13), 2, 13) == [range(0, 6), range(6, 13)]
    assert split_parts(range(13), 8, 13) == [range(0, 4), range(4, 8), range(8, 13)]
    assert split_parts(range(2), 8, 2) == [range(0, 1), range(1, 2)]
    assert split_parts(range(13), 8, 1) == [range(13)]
    assert split_parts(range(0), 4, 0) == [range(0)]
    table = np.arange(20.0).reshape(10, 2)
    parts = split_parts(table, 4, 10 // 3)
    assert len(parts) == 3 and np.array_equal(np.concatenate(parts), table)


def test_split_parts_caps_workers(tmp_path, monkeypatch):
    # an extreme thread count is checked on the split alone: no process starts
    path = tmp_path / "run.yaml"
    path.write_text(yaml.safe_dump({"threads": 1000000}))
    workers = load_config(str(path), {})["threads"]
    for wanted, cpus, cap, parts in [(workers, 2, 3, 2), (workers, 1, 3, 1),
                                     (workers, 2, 0, 1), (1, 8, 3, 1)]:
        monkeypatch.setattr(serialize, "_usable_cpus", lambda cpus=cpus: cpus)
        assert len(split_parts(range(3), wanted, cap)) == parts

    def no_fork():
        raise AssertionError("a table of fewer than two parts must not fork")

    monkeypatch.setattr(os, "fork", no_fork)
    monkeypatch.setattr(serialize, "_CSV_PART", 4)
    write_csv(tmp_path / "t.csv", ["a"], [np.zeros((2 * serialize._CSV_PART - 1, 1))],
              workers=workers)


@pytest.mark.parametrize("side, error", [("child", "exited with status 1"),
                                         ("parent", "No space left")])
def test_write_csv_failure_reaps_every_child(tmp_path, csv_forks, monkeypatch, side, error):
    if side == "child":
        fail_in_child(monkeypatch)
    else:  # the parent fails while its children are still formatting
        parent = os.getpid()

        def full_disk(fh, blocks):
            if os.getpid() != parent:
                time.sleep(60)  # only a kill ends the child in time
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(serialize, "_write_rows", full_disk)
    t0 = time.monotonic()
    with pytest.raises(ConfigError, match=f"cannot write output .*{error}"):
        write_csv(tmp_path / "t.csv", ["a", "b", "c"], [np.ones((12, 3))], workers=4)
    assert time.monotonic() - t0 < 30
    assert len(csv_forks) == 3
    assert os.listdir(tmp_path) == []  # neither a truncated CSV nor a temporary file
    assert_no_child_left()


def test_write_csv_failure_keeps_previous_file(tmp_path, csv_forks, monkeypatch):
    # the new file replaces the old one only once it is complete
    path = tmp_path / "t.csv"
    write_csv(path, ["a"], [np.zeros((1, 1))])
    before = _read(path)
    fail_in_child(monkeypatch)
    with pytest.raises(ConfigError, match="cannot write output"):
        write_csv(path, ["a", "b", "c"], [np.ones((12, 3))], workers=4)
    assert os.listdir(tmp_path) == ["t.csv"] and _read(path) == before
    assert_no_child_left()


def test_write_csv_rejects_mismatched_table(tmp_path):
    with pytest.raises(ValueError):
        write_csv(tmp_path / "t.csv", ["a", "b"], [np.zeros((2, 3))])
    with pytest.raises(ValueError):  # the column blocks must share their row count
        write_csv(tmp_path / "t.csv", ["a", "b"], [np.zeros((2, 1)), np.zeros((3, 1))])
    with pytest.raises(ValueError):  # a bare table is a list of 1-D rows, not of blocks
        write_csv(tmp_path / "t.csv", ["a", "b"], np.zeros((2, 2)))
    assert os.listdir(tmp_path) == []


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


def _formatted(header, table):
    """The CSV bytes of a whole table, formatted as one block."""
    return (",".join(header) + "\n").encode() + serialize._format_block(table)


@pytest.mark.parametrize("workers", [1, 2])
def test_column_block_csvs_match_the_joined_table(tmp_path, rm_model, csv_forks, monkeypatch,
                                                  workers):
    # blocks of 100 values (2 geometry rows, 16 margin rows) and parts of at
    # least 200: both tables span several blocks, and at 2 workers their
    # second part starts inside a block
    monkeypatch.setattr(serialize, "_CSV_BLOCK", 100)
    monkeypatch.setattr(serialize, "_CSV_PART", 200)
    grid = scan_geometry(rm_model, nx=5, ny=3)
    cols = [grid.kx, grid.ky, grid.qgt_lr, grid.qgt_rl, grid.qgt_rr, grid.qgt_ll,
            grid.anomalous_r, grid.anomalous_l, grid.curvature_lr, grid.norm_product]
    table = np.concatenate([np.ascontiguousarray(c).view(float).reshape(15, -1)
                            for c in cols], axis=1)
    write_geometry_csv(tmp_path / "g.csv", grid, workers=workers)
    assert (tmp_path / "g.csv").read_bytes() == _formatted(serialize.geometry_csv_header(),
                                                           table)
    rep = check_qgt_inequality(scan_geometry(rm_model, nx=7, ny=9))
    table = np.concatenate([np.asarray(rep.labels, dtype=float), rep.lhs[:, None],
                            rep.rhs[:, None], rep.margin[:, None]], axis=1)
    write_bound_csv(tmp_path / "b.csv", rep, workers=workers)
    header = ["label0", "label1", "label2", "lhs", "rhs", "margin"]
    assert (tmp_path / "b.csv").read_bytes() == _formatted(header, table)
    assert len(csv_forks) == 2 * (workers - 1)
    assert_no_child_left()


@pytest.mark.parametrize("threads", ["1", "2"])
def test_sweep_csv_matches_the_joined_table(tmp_path, capsys, csv_forks, threads):
    cfg = tmp_path / "w.yaml"
    cfg.write_text(yaml.safe_dump({"grid": {"nx": 8, "ny": 8}, "sweep": {"Gamma": [0.0, 1.0]}}))
    assert main(["optical-weight", "--config", str(cfg), "--out", str(tmp_path / "w"),
                 "--threads", threads]) == 0
    doc = json.loads((tmp_path / "w" / "optical_weight.json").read_text())
    # the swept Gamma column, then the solved columns (JSON floats round-trip)
    table = np.concatenate([[[0.0], [1.0]], np.array(doc["rows"])[:, 1:]], axis=1)
    assert (tmp_path / "w" / "optical_weight.csv").read_bytes() == _formatted(doc["columns"],
                                                                              table)
    assert len(csv_forks) == int(threads) - 1  # the sweep's own fork
    assert_no_child_left()


def test_geometry_csv_joins_no_whole_table(tmp_path, rm_model):
    # the joined 45-column table of a 160^2 scan alone takes 9.2 MB; only the
    # derived qgt_rl and curvature_lr and one block's formatting are new
    grid = scan_geometry(rm_model, nx=160)
    write_geometry_csv(tmp_path / "warm.csv", grid)
    tracemalloc.start()
    try:
        write_geometry_csv(tmp_path / "g.csv", grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 160 * 160 * 45 * 8
