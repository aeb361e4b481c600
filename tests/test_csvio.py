import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from floquet_lattice import Branch, FloquetMode
from floquet_lattice import ValidationError
from floquet_lattice.csvio import (
    BLOCK_CELLS,
    _write_columns,
    _write_floats,
    fmt,
    write_heatmap,
    write_min_p1_scan,
    write_modes,
    write_monodromy,
    write_population_series,
    write_spectrum,
    write_trajectory,
)

AWKWARD = [0.0, -0.0, 1e-300, -5e-324, float("nan"), float("inf"),
           -float("inf"), 0.1, 1.0 / 3.0, 1e16, -2.5e-7, 123456.789012345678]


def _fmt_lines(rows, header, comment=None):
    """The table as ``fmt`` formats it cell by cell."""
    lines = ([f"# {comment}"] if comment else []) + [header]
    lines += [",".join(fmt(x) for x in row) for row in rows]
    return "".join(line + "\n" for line in lines)


def test_fmt_round_trips_floats():
    values = [0.1, 1.0 / 3.0, 2.40482555769577, 1e-300, -1e16, 0.0,
              123456.789012345678, 5.52007811028631]
    for v in values:
        assert float(fmt(v)) == v
    assert fmt(3) == "3"
    assert fmt(np.float64(0.25)) == "0.25"


def test_trajectory_csv_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    times = np.linspace(0.0, 1.0, 7)
    amps = rng.normal(size=(7, 3)) + 1j * rng.normal(size=(7, 3))
    path = tmp_path / "traj.csv"
    write_trajectory(path, times, amps)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,re_a1,im_a1,re_a2,im_a2,re_a3,im_a3"
    for i, line in enumerate(lines[1:]):
        cells = line.split(",")
        assert float(cells[0]) == times[i]
        for j in range(3):
            assert float(cells[1 + 2 * j]) == amps[i, j].real
            assert float(cells[2 + 2 * j]) == amps[i, j].imag


def test_table_writer_matches_fmt_per_cell(tmp_path):
    rng = np.random.default_rng(3)
    table = np.concatenate([np.reshape(AWKWARD, (4, 3)),
                            rng.normal(size=(5, 3)) * 10.0 ** rng.integers(
                                -300, 300, size=(5, 3))])
    path = tmp_path / "table.csv"
    _write_floats(path, "a,b,c", table.T, comment="note")
    assert path.read_bytes() == _fmt_lines(table, "a,b,c", "note").encode()


def _awkward_table(rows, n_columns, seed):
    """(rows, n_columns) floats: the AWKWARD values cycled, then shuffled
    with random values of every magnitude."""
    rng = np.random.default_rng(seed)
    table = rng.normal(size=rows * n_columns) * 10.0 ** rng.integers(
        -300, 300, size=rows * n_columns)
    table[::2] = np.resize(AWKWARD, table[::2].size)
    return rng.permutation(table).reshape(rows, n_columns)


@pytest.mark.parametrize("extra", [-1, 0, 1, "2x+3"])
def test_float_writer_across_block_edges(tmp_path, extra):
    block = BLOCK_CELLS // 3
    rows = 2 * block + 3 if extra == "2x+3" else block + extra
    table = _awkward_table(rows, 3, seed=rows)
    path = tmp_path / "table.csv"
    _write_floats(path, "a,b,c", table.T, comment="edge")
    assert path.read_bytes() == _fmt_lines(table, "a,b,c", "edge").encode()


def test_heatmap_across_blocks_matches_fmt_per_cell(tmp_path):
    # 7 times do not divide the block, so blocks start mid-way through an a2
    times = np.array(AWKWARD[:7])
    a2 = np.resize(AWKWARD, BLOCK_CELLS // 7 + 5)  # about 3 blocks of rows
    grid = _awkward_table(a2.size, times.size, seed=5)
    write_heatmap(tmp_path / "heat.csv", times, a2, grid, comment="h")
    assert (tmp_path / "heat.csv").read_bytes() == _fmt_lines(
        [(t, a, grid[i, k]) for i, a in enumerate(a2)
         for k, t in enumerate(times)], "t,a2,p1", "h").encode()


def test_repeated_columns_cycle_across_blocks(tmp_path):
    block = BLOCK_CELLS // 3
    rows = 2 * block + 3
    ids = np.arange(4)
    values = np.resize(AWKWARD, (rows + 4) // 5)
    path = tmp_path / "cols.csv"
    _write_columns(path, "v,id,x", rows, [(values, 5), (ids, 1),
                                          (np.arange(rows) / 3.0, 1)])
    want = [(values[i // 5], ids[i % 4], i / 3.0) for i in range(rows)]
    assert path.read_bytes() == _fmt_lines(want, "v,id,x").encode()


def test_heatmap_grid_must_match_its_axes(tmp_path):
    times, a2 = np.arange(3.0), np.arange(2.0)
    path = tmp_path / "heat.csv"
    for grid in (np.zeros((3, 2)), np.zeros(6), np.zeros((2, 4))):
        with pytest.raises(ValidationError, match="p1_grid must have shape"):
            write_heatmap(path, times, a2, grid)
    assert not path.exists()


def test_float_columns_must_share_a_length(tmp_path):
    with pytest.raises(ValidationError, match="differ in length"):
        write_population_series(tmp_path / "s.csv", np.arange(3.0),
                                np.arange(4.0))


def test_float_writers_match_fmt_per_cell(tmp_path):
    rng = np.random.default_rng(4)
    times = np.array(AWKWARD)
    amps = np.array(AWKWARD)[:, None] * (1.0 + 1j * rng.normal(size=(1, 2)))
    cells = [(t, *(v for z in row for v in (z.real, z.imag)))
             for t, row in zip(times, amps)]
    write_trajectory(tmp_path / "traj.csv", times, amps)
    assert (tmp_path / "traj.csv").read_text() == _fmt_lines(
        cells, "t,re_a1,im_a1,re_a2,im_a2")

    write_population_series(tmp_path / "series.csv", times, times[::-1])
    assert (tmp_path / "series.csv").read_text() == _fmt_lines(
        zip(times, times[::-1]), "t,p1")

    write_min_p1_scan(tmp_path / "minp1.csv", times, times ** 2)
    assert (tmp_path / "minp1.csv").read_text() == _fmt_lines(
        zip(times, times ** 2), "a2_over_omega,min_p1")

    write_monodromy(tmp_path / "u.csv", amps[:2])
    assert (tmp_path / "u.csv").read_text() == _fmt_lines(
        [[v for z in row for v in (z.real, z.imag)] for row in amps[:2]],
        "re_c1,im_c1,re_c2,im_c2")

    a2 = np.array([0.0, -0.0, 2.5])
    grid = rng.normal(size=(3, times.size))
    grid[1, 2] = np.nan
    write_heatmap(tmp_path / "heat.csv", times, a2, grid, comment="h")
    assert (tmp_path / "heat.csv").read_text() == _fmt_lines(
        [(t, a, grid[i, k]) for i, a in enumerate(a2)
         for k, t in enumerate(times)], "t,a2,p1", "h")


# Each writer below is fed the columns of a (rows, 5) float table and
# returns the table of floats its CSV must read back to, row by row.

def _trajectory(path, t):
    write_trajectory(path, t[:, 0], np.ascontiguousarray(t[:, 1:]).view(complex))
    return t


def _series(path, t):
    write_population_series(path, t[:, 0], t[:, 1])
    return t[:, :2]


def _min_p1(path, t):
    write_min_p1_scan(path, t[:, 0], t[:, 1])
    return t[:, :2]


def _monodromy(path, t):
    write_monodromy(path, np.ascontiguousarray(t[:, 1:]).view(complex))
    return t[:, 1:]


def _heatmap(path, t):
    write_heatmap(path, t[0], t[:, 0], t, comment="h")
    return np.column_stack((np.tile(t[0], len(t)), np.repeat(t[:, 0], 5),
                            np.ravel(t)))


def _spectrum(path, t, n_branches):
    branches = [Branch(branch_id=b, quasienergies=t[:, 1 + b],
                       vectors=np.zeros((len(t), 2), dtype=complex),
                       avg_populations=t[:, 3:5], residuals=t[:, 2 - b])
                for b in range(n_branches)]
    write_spectrum(path, t[:, 0], branches)
    return [[t[i, 0], b, t[i, 1 + b], t[i, 3], t[i, 4], t[i, 2 - b]]
            for i in range(len(t)) for b in range(n_branches)]


def _modes(path, t):
    modes = [FloquetMode(quasienergy=float(row[1]), vector=np.zeros(2),
                         eigen_residual=float(row[4]),
                         avg_populations=row[2:4])
             for row in t]
    write_modes(path, t[0, 0], modes)
    return [[t[0, 0], k, *row[1:]] for k, row in enumerate(t)]


@pytest.mark.parametrize("write", [
    _trajectory, _series, _min_p1, _monodromy, _heatmap, _modes,
    # one branch, then two whose residuals each stay on their own row
    lambda path, t: _spectrum(path, t, n_branches=1),
    lambda path, t: _spectrum(path, t, n_branches=2),
], ids=["trajectory", "series", "min_p1", "monodromy", "heatmap", "modes",
        "spectrum", "spectrum_residual"])
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(table=arrays(np.float64, st.tuples(st.integers(1, 4), st.just(5)),
                    elements=st.floats(allow_subnormal=True)
                    | st.sampled_from(AWKWARD)))
def test_float_writers_read_back_exactly(write, table):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "out.csv"
        want = np.array(write(path, table), dtype=float)
        lines = path.read_text(encoding="ascii").splitlines()
    rows = [line for line in lines if not line.startswith("#")][1:]
    got = np.array([[float(cell) for cell in row.split(",")] for row in rows])
    assert got.shape == want.shape
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    # bit equality off NaN tells -0.0 from 0.0 and keeps every subnormal;
    # a NaN's sign and payload do not survive decimal text
    assert np.array_equal(got[~nan].view(np.int64), want[~nan].view(np.int64))
