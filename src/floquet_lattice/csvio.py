"""CSV writers with byte-stable, round-trip-safe number formatting.

All data files use the shortest decimal representation that parses back to
the exact float (Python's repr), LF newlines, and no timestamps, so two runs
of the same configuration produce byte-identical files on any platform.

Every writer goes through one primitive, ``_write_columns``, which writes
a table column by column. Each column is formatted with one
``map(repr, values.tolist())``; a column that repeats (a heatmap's t and
a2, a spectrum's a2/omega and branch id) is formatted once and its strings
reused. Rows are written in blocks of BLOCK_CELLS cells (about 64 KiB of
text), one ``write`` per block, so the strings held at any time stay
bounded whatever the table's length.
"""

from __future__ import annotations

import itertools

import numpy as np

from .errors import ValidationError

# Cells per block of rows: a 64 KiB text budget at 24 bytes a cell, a
# 17-digit float's repr and its separator (the longest take 25).
BLOCK_CELLS = (64 << 10) // 24


def fmt(x) -> str:
    """Shortest round-trip decimal form of a float (ints stay integral)."""
    if isinstance(x, (int, np.integer)) and not isinstance(x, bool):
        return str(int(x))
    return repr(float(x))


def _write_columns(path, header: str, n_rows: int, columns,
                   comment: str | None = None) -> None:
    """Write an ``n_rows`` table whose columns are ``columns``, under ``header``.

    Each column is a pair (values, repeat) of a 1-D array and a count:
    row i holds values[(i // repeat) % len(values)], each cell in ``fmt``'s
    form (repr of the Python scalars of ``tolist``). A column of exactly
    ``n_rows`` values with repeat 1 is formatted block by block; any other
    column repeats, and its distinct values are formatted once.
    """
    columns = [(np.asarray(values).reshape(-1), repeat)
               for values, repeat in columns]
    formatted = [None if repeat == 1 and values.size == n_rows
                 else np.array(list(map(repr, values.tolist())), dtype=object)
                 for values, repeat in columns]
    block = max(1, BLOCK_CELLS // len(columns))
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write((f"# {comment}\n" if comment else "") + header + "\n")
        for r0 in range(0, n_rows, block):
            r1 = min(r0 + block, n_rows)
            rows = np.arange(r0, r1)
            cells = [map(repr, values[r0:r1].tolist()) if strings is None
                     else strings[rows // repeat % values.size].tolist()
                     for (values, repeat), strings in zip(columns, formatted)]
            # the empty last item ends the block's last row with a newline
            fh.write("\n".join(itertools.chain(map(",".join, zip(*cells)),
                                               ("",))))


def _write_floats(path, header: str, columns,
                  comment: str | None = None) -> None:
    """Write the equal-length float ``columns``, one cell of each per row."""
    columns = [np.asarray(col, dtype=float).reshape(-1) for col in columns]
    if len({col.size for col in columns}) > 1:
        raise ValidationError(
            f"columns differ in length: {[col.size for col in columns]}")
    _write_columns(path, header, len(columns[0]),
                   [(col, 1) for col in columns], comment)


def write_trajectory(path, times, amplitudes) -> None:
    """Trajectory CSV: header t,re_a1,im_a1,...,re_aN,im_aN, one row per sample."""
    n = amplitudes.shape[1]
    header = "t," + ",".join(f"re_a{j},im_a{j}" for j in range(1, n + 1))
    re_im = np.ascontiguousarray(amplitudes, dtype=complex).view(float)
    _write_floats(path, header, [times, *re_im.T])


def write_population_series(path, times, values, comment: str | None = None) -> None:
    """Two-column series CSV: t,p1."""
    _write_floats(path, "t,p1", [times, values], comment)


def write_min_p1_scan(path, ratios, min_p1) -> None:
    _write_floats(path, "a2_over_omega,min_p1", [ratios, min_p1])


def write_spectrum(path, ratios, branches) -> None:
    """Branch CSV: a2_over_omega,branch_id,quasienergy,avg_p1..avg_pN,residual.

    One row per grid point and branch, the branches of a point in order.
    """
    nb = len(branches)
    n = branches[0].avg_populations.shape[1]
    n_rows = len(ratios) * nb
    header = "a2_over_omega,branch_id,quasienergy," + ",".join(
        f"avg_p{j}" for j in range(1, n + 1)
    ) + ",residual"
    quasienergies = np.stack([br.quasienergies for br in branches], axis=1)
    populations = np.stack([br.avg_populations for br in branches], axis=1)
    _write_columns(path, header, n_rows, [
        (ratios, nb),
        ([br.branch_id for br in branches], 1),
        (quasienergies, 1),
        *((col, 1) for col in populations.reshape(n_rows, n).T),
        (np.stack([br.residuals for br in branches], axis=1), 1),
    ])


def write_modes(path, param, modes) -> None:
    """Single-point mode CSV: param,branch_id,quasienergy,avg_p*,residual."""
    n = modes[0].avg_populations.size
    header = "param,branch_id,quasienergy," + ",".join(
        f"avg_p{j}" for j in range(1, n + 1)
    ) + ",residual"
    populations = np.array([mode.avg_populations for mode in modes])
    _write_columns(path, header, len(modes), [
        ([param], len(modes)),
        (np.arange(len(modes)), 1),
        ([mode.quasienergy for mode in modes], 1),
        *((col, 1) for col in populations.T),
        ([mode.eigen_residual for mode in modes], 1),
    ])


def write_monodromy(path, matrix) -> None:
    """Debug dump of U: row-major, interleaved real/imag columns."""
    n = matrix.shape[0]
    header = ",".join(f"re_c{j},im_c{j}" for j in range(1, n + 1))
    _write_floats(path, header,
                  np.ascontiguousarray(matrix, dtype=complex).view(float).T)


def write_heatmap(path, times, a2_values, p1_grid, comment: str | None = None) -> None:
    """Long-form heatmap CSV (t, a2, p1), one row per (a2, t) with t fastest;
    p1_grid must be (len(a2_values), len(times))."""
    times = np.asarray(times, dtype=float).reshape(-1)
    a2_values = np.asarray(a2_values, dtype=float).reshape(-1)
    p1_grid = np.asarray(p1_grid, dtype=float)
    if p1_grid.shape != (a2_values.size, times.size):
        raise ValidationError(
            f"p1_grid must have shape {(a2_values.size, times.size)} "
            f"(a2 values, times), got {p1_grid.shape}"
        )
    _write_columns(path, "t,a2,p1", p1_grid.size, [
        (times, 1), (a2_values, times.size), (p1_grid, 1),
    ], comment)
