"""CSV writers with byte-stable, round-trip-safe number formatting.

All data files use the shortest decimal representation that parses back to
the exact float (Python's repr), LF newlines, and no timestamps, so two runs
of the same configuration produce byte-identical files on any platform.
"""

from __future__ import annotations

import itertools

import numpy as np


def fmt(x) -> str:
    """Shortest round-trip decimal form of a float (ints stay integral)."""
    if isinstance(x, (int, np.integer)) and not isinstance(x, bool):
        return str(int(x))
    return repr(float(x))


def _write_lines(path, lines) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        for line in lines:
            fh.write(line)
            fh.write("\n")


def _write_table(path, header: str, table, comment: str | None = None) -> None:
    """One line per row of the 2-D float ``table``, each cell in ``fmt``'s
    form: repr of the Python floats of the row's ``tolist``."""
    head = [f"# {comment}"] if comment else []
    rows = (",".join(map(repr, row.tolist()))
            for row in np.asarray(table, dtype=float))
    _write_lines(path, itertools.chain(head, [header], rows))


def write_trajectory(path, times, amplitudes, comment: str | None = None) -> None:
    """Trajectory CSV: header t,re_a1,im_a1,...,re_aN,im_aN, one row per sample."""
    n = amplitudes.shape[1]
    header = "t," + ",".join(f"re_a{j},im_a{j}" for j in range(1, n + 1))
    re_im = np.ascontiguousarray(amplitudes, dtype=complex).view(float)
    _write_table(path, header, np.column_stack((times, re_im)), comment)


def write_population_series(path, times, values, comment: str | None = None) -> None:
    """Two-column series CSV: t,p1."""
    _write_table(path, "t,p1", np.column_stack((times, values)), comment)


def write_min_p1_scan(path, ratios, min_p1) -> None:
    _write_table(path, "a2_over_omega,min_p1", np.column_stack((ratios, min_p1)))


def write_spectrum(path, ratios, branches, include_residual: bool = False) -> None:
    """Branch CSV: a2_over_omega,branch_id,quasienergy,avg_p1..avg_pN[,residual]."""
    n = branches[0].avg_populations.shape[1]
    header = "a2_over_omega,branch_id,quasienergy," + ",".join(
        f"avg_p{j}" for j in range(1, n + 1)
    )
    if include_residual:
        header += ",residual"
    lines = [header]
    for i, r in enumerate(ratios):
        for br in branches:
            cells = [fmt(r), str(br.branch_id), fmt(br.quasienergies[i])]
            cells.extend(fmt(v) for v in br.avg_populations[i])
            if include_residual:
                cells.append(fmt(br.residuals[i]))
            lines.append(",".join(cells))
    _write_lines(path, lines)


def write_modes(path, param, modes) -> None:
    """Single-point mode CSV: param,branch_id,quasienergy,avg_p*,residual."""
    n = modes[0].avg_populations.size
    header = "param,branch_id,quasienergy," + ",".join(
        f"avg_p{j}" for j in range(1, n + 1)
    ) + ",residual"
    lines = [header]
    for b, mode in enumerate(modes):
        cells = [fmt(param), str(b), fmt(mode.quasienergy)]
        cells.extend(fmt(v) for v in mode.avg_populations)
        cells.append(fmt(mode.eigen_residual))
        lines.append(",".join(cells))
    _write_lines(path, lines)


def write_monodromy(path, matrix) -> None:
    """Debug dump of U: row-major, interleaved real/imag columns."""
    n = matrix.shape[0]
    header = ",".join(f"re_c{j},im_c{j}" for j in range(1, n + 1))
    _write_table(path, header,
                 np.ascontiguousarray(matrix, dtype=complex).view(float))


def write_heatmap(path, times, a2_values, p1_grid, comment: str | None = None) -> None:
    """Long-form heatmap CSV (t, a2, p1); p1_grid is (len(a2_values), len(times))."""
    times, a2_values = np.asarray(times), np.asarray(a2_values)
    _write_table(path, "t,a2,p1", np.column_stack((
        np.tile(times, a2_values.size),
        np.repeat(a2_values, times.size),
        np.ravel(p1_grid),
    )), comment)
