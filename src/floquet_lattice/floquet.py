"""One-period evolution operator, quasi-energies, and mode analysis.

The one-period operator U(T, 0) comes from the propagator's single
one-period primitive, ``basis_sweep``, which carries every canonical basis
vector over a drive period for a batch of a2 values; ``monodromy`` and branch
tracking both use it. Its eigenvalues exp(-i eps T) define quasi-energies
eps, folded into the principal zone (-omega/2, omega/2]. The eigendecomposition
goes through a complex Schur factorization: for a (numerically) unitary
matrix the Schur form is diagonal, so the Schur basis is an orthonormal
eigenbasis even at exact degeneracies. One eigen step, ``_sorted_modes``,
sorts and checks the modes of every operator, and mode populations are
averaged over a period by the propagator's ``period_average``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import NumericsError, ValidationError
from .model import SystemSpec, require_state
from .propagator import (DEFAULT_STEPS_PER_PERIOD, basis_sweep, map_chunks,
                         period_average)

UNITARITY_FAILURE_BOUND = 1e-6
EIGEN_RESIDUAL_BOUND = 1e-7
GAP_THRESHOLD_FACTOR = 1e-4     # crossing threshold = factor * omega
REFINE_TOLERANCE_FACTOR = 1e-7  # location tolerance = factor * omega
MAX_GAP_PROBES = 16             # cap on parabolic refinement probes
OVERLAP_AMBIGUITY = 1e-3


@dataclass(frozen=True)
class MonodromyOperator:
    """One-period propagator U(T, 0) for a given system."""

    matrix: np.ndarray
    spec: SystemSpec
    steps_per_period: int

    def unitarity_residual(self) -> float:
        return _unitarity_residual(self.matrix)


def _unitarity_residual(u: np.ndarray) -> float:
    return float(np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))))


def _check_unitary(u: np.ndarray, where: str = "") -> None:
    """Raise NumericsError unless U is unitary to UNITARITY_FAILURE_BOUND."""
    res = _unitarity_residual(u)
    if not (res <= UNITARITY_FAILURE_BOUND):
        raise NumericsError(
            f"one-period operator unitarity residual {res:.3e} exceeds "
            f"{UNITARITY_FAILURE_BOUND:.0e}{where}; increase steps_per_period"
        )


@dataclass(frozen=True)
class FloquetMode:
    """Eigenpair of the one-period operator with derived observables.

    ``quasienergy`` lies in (-omega/2, omega/2]; ``avg_populations[j]`` is
    the one-period time average of |a_{j+1}(t)|^2 along the mode.
    """

    quasienergy: float
    vector: np.ndarray
    eigen_residual: float
    avg_populations: np.ndarray


def monodromy(
    spec: SystemSpec, steps_per_period: int = DEFAULT_STEPS_PER_PERIOD
) -> MonodromyOperator:
    """Assemble U(T, 0) column by column from basis-vector propagation."""
    (u,), _ = basis_sweep(spec, [spec.a2], steps_per_period)
    u = u.copy()
    _check_unitary(u)
    return MonodromyOperator(matrix=u, spec=spec,
                             steps_per_period=steps_per_period)


def fold_quasienergy(eigenvalue: complex, omega: float) -> float:
    """Quasi-energy in (-omega/2, omega/2] from an eigenvalue exp(-i eps T)."""
    eps = -np.angle(eigenvalue) * omega / (2.0 * math.pi)
    if eps <= -0.5 * omega:
        eps += omega
    return float(eps)


def _sorted_modes(u: np.ndarray, omega: float, where: str = ""):
    """(quasi-energies, eigenvectors as rows, eigen residuals) of U.

    Modes come in ascending quasi-energy order (stable on ties). Raises
    NumericsError when a residual ||U v - lambda v|| exceeds
    EIGEN_RESIDUAL_BOUND or is not a number.
    """
    t, z = scipy.linalg.schur(u, output="complex")
    lams = np.diag(t)
    eps = np.array([fold_quasienergy(lam, omega) for lam in lams])
    order = np.argsort(eps, kind="stable")
    resid = np.array(
        [np.linalg.norm(u @ z[:, k] - lams[k] * z[:, k]) for k in order]
    )
    worst = resid.max()
    if not (worst <= EIGEN_RESIDUAL_BOUND):
        raise NumericsError(
            f"eigen relation residual {worst:.3e} exceeds "
            f"{EIGEN_RESIDUAL_BOUND:.0e}{where}; increase steps_per_period"
        )
    return eps[order], z[:, order].T, resid


def floquet_modes(op: MonodromyOperator) -> list[FloquetMode]:
    """Full mode decomposition of U(T, 0), sorted by ascending quasi-energy.

    Each mode records the eigen relation residual ||U v - lambda v|| and its
    one-period averaged site populations.
    """
    eps, vecs, resid = _sorted_modes(op.matrix, op.spec.omega)
    pops = period_average(op.spec, [op.spec.a2], vecs[np.newaxis],
                          op.steps_per_period)[0]
    return [
        FloquetMode(
            quasienergy=float(eps[k]),
            vector=vecs[k].copy(),
            eigen_residual=float(resid[k]),
            avg_populations=pops[k],
        )
        for k in range(eps.size)
    ]


def averaged_populations(
    spec: SystemSpec,
    mode,
    steps_per_period: int = DEFAULT_STEPS_PER_PERIOD,
) -> np.ndarray:
    """One-period time average of the site populations along a mode.

    ``mode`` may be a FloquetMode or a unit-norm complex vector. The result
    sums to 1 up to integration rounding.
    """
    if isinstance(mode, FloquetMode):
        mode = mode.vector
    vector = require_state("mode vector", mode, spec.n_sites)
    return period_average(
        spec, [spec.a2], vector[np.newaxis, np.newaxis, :], steps_per_period
    )[0, 0]


# ---------------------------------------------------------------------------
# Branch tracking across a parameter scan


@dataclass
class Branch:
    """One quasi-energy branch followed through an a2 sweep
    (``param_values`` are the a2 values)."""

    branch_id: int
    param_values: np.ndarray
    quasienergies: np.ndarray
    vectors: np.ndarray          # (points, n_sites)
    avg_populations: np.ndarray  # (points, n_sites)
    residuals: np.ndarray
    base_spec: SystemSpec        # the other fields of every point
    steps_per_period: int

    def window(self, mask: np.ndarray) -> "Branch":
        """Restriction of the branch to a boolean mask of grid points."""
        return Branch(
            branch_id=self.branch_id,
            param_values=self.param_values[mask],
            quasienergies=self.quasienergies[mask],
            vectors=self.vectors[mask],
            avg_populations=self.avg_populations[mask],
            residuals=self.residuals[mask],
            base_spec=self.base_spec,
            steps_per_period=self.steps_per_period,
        )


@dataclass
class BranchSet:
    param_values: np.ndarray
    branches: list[Branch]
    warnings: list[str] = field(default_factory=list)


def _unpruned_matchings(overlap: list[list[float]]) -> list[tuple]:
    """(score, permutation) of every matching branch and bound keeps.

    A depth-first search over the permutations in lexicographic order
    (Land & Doig 1960): depth i fixes row i's column, trying columns in
    ascending order, and the score is summed left to right from 0.0, so
    each kept score is the float that summing the permutation's n overlaps
    in row order gives. A subtree is cut when partial + overlap[i][j] +
    tail[i+1], where tail[k] sums the row maxima of rows k..n-1, falls
    below running_best - OVERLAP_AMBIGUITY - slack. The bound is never
    below the exact best score in the subtree and the running best never
    exceeds the final best, so a cut permutation scores at least
    OVERLAP_AMBIGUITY below the best: it is neither the best nor a
    near-tie. ``slack`` covers the rounding. A float sum of k nonnegative
    terms, in any bracketing, is within (k - 1) u of the exact sum per unit
    of its size (u = eps / 2); the score and the bound are each such a sum
    of n overlaps <= 1, and the floor rounds twice more, which totals at
    most (n^2 + 1) eps. 2 n^2 eps leaves room for overlaps a few ulps
    above 1. The result is in lexicographic order.
    """
    n = len(overlap)
    tail = [0.0] * (n + 1)
    for i in reversed(range(n)):
        tail[i] = tail[i + 1] + max(overlap[i])
    slack = 2.0 * n * n * np.finfo(float).eps
    taken = [False] * n
    perm = [0] * n
    kept = []
    running_best = -math.inf

    def descend(i, partial):
        nonlocal running_best
        if i == n:
            kept.append((partial, tuple(perm)))
            if partial > running_best:
                running_best = partial
            return
        for j, value in enumerate(overlap[i]):
            if taken[j] or (partial + value + tail[i + 1]
                            < running_best - OVERLAP_AMBIGUITY - slack):
                continue
            taken[j] = True
            perm[i] = j
            descend(i + 1, partial + value)
            taken[j] = False

    descend(0, 0.0)
    return kept


def _best_permutation(prev_vecs, next_vecs, prev_eps, next_eps, omega):
    """Match modes across a grid step by maximal eigenvector overlap.

    Returns (permutation, ambiguous). The permutation maximizes the summed
    |<v_prev, v_next>|; near-ties (within OVERLAP_AMBIGUITY) are broken by
    quasi-energy proximity and flagged.

    The candidates come from a pruned lexicographic enumeration
    (``_unpruned_matchings``). It keeps every permutation within
    OVERLAP_AMBIGUITY of the best, with the same float scores and in the
    same order as a full enumeration of all n! permutations, so the best
    (the first max-score permutation) and the near-tie set, hence the
    result, are that enumeration's, bit for bit. When one assignment
    dominates, as between neighbouring grid points, the first complete
    permutation is near-optimal and the search visits a handful of nodes.
    When every assignment is a near-tie (a DFT-like overlap) all n!
    permutations are candidates and the search enumerates them all.
    """
    n = len(prev_eps)
    kept = _unpruned_matchings(
        np.abs(prev_vecs.conj() @ next_vecs.T).tolist())
    best_perm, best_score = None, -1.0
    for score, perm in kept:
        if score > best_score:
            best_score, best_perm = score, perm

    def ties():  # the best and its near-ties, in lexicographic order
        return (perm for score, perm in kept
                if best_score - score < OVERLAP_AMBIGUITY)
    ambiguous = any(perm != best_perm for perm in ties())
    if ambiguous:
        gaps = _circular_gap(np.asarray(prev_eps)[:, np.newaxis],
                             np.asarray(next_eps)[np.newaxis, :], omega).tolist()

        def key(perm):  # on equal cost the best, then the first near-tie
            return sum(gaps[i][perm[i]] for i in range(n)), perm != best_perm
        best_perm = min(ties(), key=key)
    return best_perm, ambiguous


def _modes_bulk(base_spec: SystemSpec, params: np.ndarray, idx: np.ndarray,
                steps_per_period: int):
    """Quasi-energies, eigenvectors, populations, and residuals at the grid
    points ``idx`` of the a2 grid ``params``.

    One basis sweep gives every point's U and one period average covers
    every mode of every point; both are row-local, so results do not depend
    on how the points are chunked. A failing gate names the point by its
    index in the whole grid and its a2.
    """
    a2_values = params[idx]
    us, _ = basis_sweep(base_spec, a2_values, steps_per_period)
    modes = []
    for i, u in zip(idx, us):
        where = f" at grid point {i} (a2={float(params[i])!r})"
        _check_unitary(u, where)
        modes.append(_sorted_modes(u, base_spec.omega, where))
    eps, vecs, resid = (np.array(arrays) for arrays in zip(*modes))
    pops = period_average(base_spec, a2_values, vecs, steps_per_period)
    return eps, vecs, pops, resid


def track_branches(
    base_spec: SystemSpec,
    a2_values,
    steps_per_period: int = DEFAULT_STEPS_PER_PERIOD,
    workers: int = 1,
) -> BranchSet:
    """Follow quasi-energy branches across a grid of a2 values.

    ``a2_values`` is a non-empty, finite, strictly monotone 1-D grid; every
    point has the other fields of ``base_spec``. Modes at consecutive grid
    points are matched by eigenvector overlap, so
    branches stay continuous through exact crossings where ordering by
    quasi-energy would swap labels. Mode computation for distinct grid
    points is independent and is spread over ``workers`` chunks
    (``map_chunks``); matching itself is sequential and worker-count
    invariant. Whether two chunks beat one depends on the figure and the
    BLAS thread count (README, "Numerical notes"). Matching a step costs a
    handful of search nodes when one pairing dominates, as it does between
    neighbouring grid points, whatever n_sites is; only steps where every
    pairing is a near-tie cost all n! (see ``_best_permutation``).
    """
    params = np.array(a2_values, dtype=float)
    if params.ndim != 1 or params.size == 0:
        raise ValidationError("a2 grid must be a non-empty 1-D array")
    if not np.all(np.isfinite(params)):
        raise ValidationError("a2 grid must be finite")
    diffs = np.diff(params)
    if not (np.all(diffs > 0) or np.all(diffs < 0)):
        raise ValidationError("a2 grid must be strictly monotone")

    n = base_spec.n_sites
    p = params.size
    parts = map_chunks(
        lambda idx: _modes_bulk(base_spec, params, idx, steps_per_period),
        p, workers,
    )
    eps, vecs, pops, resid = (np.concatenate(arrays) for arrays in zip(*parts))

    warnings: list[str] = []
    order = np.arange(n)
    orders = np.empty((p, n), dtype=int)
    orders[0] = order
    omega = base_spec.omega
    for i in range(1, p):
        prev = orders[i - 1]
        perm, ambiguous = _best_permutation(
            vecs[i - 1][prev], vecs[i], eps[i - 1][prev], eps[i], omega
        )
        if ambiguous:
            warnings.append(
                f"ambiguous mode matching at a2={params[i]!r}; "
                "resolved by quasi-energy proximity"
            )
        orders[i] = [perm[k] for k in range(n)]

    branches = []
    for b in range(n):
        sel = orders[:, b]
        idx = np.arange(p)
        branches.append(
            Branch(
                branch_id=b,
                param_values=params.copy(),
                quasienergies=eps[idx, sel],
                vectors=vecs[idx, sel],
                avg_populations=pops[idx, sel],
                residuals=resid[idx, sel],
                base_spec=base_spec,
                steps_per_period=steps_per_period,
            )
        )
    return BranchSet(param_values=params, branches=branches, warnings=warnings)


# ---------------------------------------------------------------------------
# Crossing vs avoided-crossing classification


def _circular_gap(e1, e2, omega: float):
    """Distance between quasi-energies on the folding circle (elementwise
    for arrays)."""
    d = np.abs(e1 - e2) % omega
    return np.minimum(d, omega - d)


@dataclass(frozen=True)
class ClosestApproach:
    kind: str       # "crossing" or "avoided"
    location: float  # a2 at the minimum gap
    gap: float
    evaluations: int


def _gap_probe(branch_a: Branch, branch_b: Branch, anchor: int, x: float) -> float:
    """Gap between the two tracked branches re-evaluated at parameter x.

    Only eigenvalues and eigenvectors are needed here, so the mode
    populations are skipped.
    """
    spec = branch_a.base_spec.replace(a2=float(x))
    op = monodromy(spec, branch_a.steps_per_period)
    eps, vecs, _ = _sorted_modes(op.matrix, spec.omega)
    ov_a = np.abs(vecs.conj() @ branch_a.vectors[anchor])
    ov_b = np.abs(vecs.conj() @ branch_b.vectors[anchor])
    ia = int(np.argmax(ov_a))
    ov_b[ia] = -1.0  # the pair must be two distinct modes
    ib = int(np.argmax(ov_b))
    return float(_circular_gap(eps[ia], eps[ib], spec.omega))


def classify_closest_approach(branch_a: Branch,
                              branch_b: Branch) -> ClosestApproach:
    """Locate and classify the closest approach of two tracked branches.

    Finds the interior local minimum of the circular quasi-energy gap g on
    the common grid (smallest gap wins if there are several; leftmost on
    ties), then refines it by successive parabolic interpolation on g^2
    inside the bracketing grid triple. Near a two-level approach
    g^2 = s^2 (x - x0)^2 + Delta^2 to leading order, so the vertex of the
    parabola through three points lands almost on the minimum (Brent 1973,
    ch. 5, without the golden-section fallback). The triple's middle point
    stays the lowest, so every vertex lies inside it; refinement stops once
    a vertex is within REFINE_TOLERANCE_FACTOR * omega of the middle point,
    or after MAX_GAP_PROBES probes. The reported gap is the smallest probed
    or grid value, at its location; the approach counts as a crossing when
    that gap falls below GAP_THRESHOLD_FACTOR * omega.
    """
    if not np.array_equal(branch_a.param_values, branch_b.param_values):
        raise ValidationError("branches must share one common parameter grid")
    params = branch_a.param_values
    if params.size < 3:
        raise ValidationError("need at least 3 grid points to bracket a minimum")
    omega = branch_a.base_spec.omega

    g = _circular_gap(branch_a.quasienergies, branch_b.quasienergies, omega)
    interior = np.flatnonzero((g[1:-1] <= g[:-2]) & (g[1:-1] <= g[2:])) + 1
    if interior.size == 0:
        raise ValidationError("no interior local minimum of the gap in range")
    best = int(interior[np.argmin(g[interior])])

    x0, x1, x2 = params[best - 1:best + 2]
    f0, f1, f2 = g[best - 1:best + 2] ** 2
    best_x, best_g = float(x1), float(g[best])
    evaluations = 0
    while evaluations < MAX_GAP_PROBES:
        # vertex x1 - p / (2 q); q < 0 unless the triple is flat, where p = 0
        # too and the test below stops on a grid plateau without dividing
        p = (x1 - x0) ** 2 * (f1 - f2) - (x1 - x2) ** 2 * (f1 - f0)
        q = (x1 - x0) * (f1 - f2) - (x1 - x2) * (f1 - f0)
        if abs(p) <= 2.0 * REFINE_TOLERANCE_FACTOR * omega * abs(q):
            break
        x = x1 - 0.5 * p / q
        gx = _gap_probe(branch_a, branch_b, best, x)
        evaluations += 1
        if gx < best_g:
            best_x, best_g = float(x), gx
        fx = gx * gx
        if fx <= f1:
            if x < x1:
                x2, f2 = x1, f1
            else:
                x0, f0 = x1, f1
            x1, f1 = x, fx
        elif x < x1:
            x0, f0 = x, fx
        else:
            x2, f2 = x, fx

    return ClosestApproach(
        kind="crossing" if best_g < GAP_THRESHOLD_FACTOR * omega else "avoided",
        location=best_x,
        gap=best_g,
        evaluations=evaluations,
    )
