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

import itertools
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import NumericsError, ValidationError
from .model import SystemSpec
from .propagator import DEFAULT_STEPS_PER_PERIOD, basis_sweep, period_average

UNITARITY_FAILURE_BOUND = 1e-6
EIGEN_RESIDUAL_BOUND = 1e-7
DEFAULT_GAP_THRESHOLD_FACTOR = 1e-4  # crossing threshold = factor * omega
OVERLAP_AMBIGUITY = 1e-3


@dataclass(frozen=True)
class MonodromyOperator:
    """One-period propagator U(T, 0) for a given system."""

    matrix: np.ndarray
    spec: SystemSpec
    steps_per_period: int

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]

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
    vector = mode.vector if isinstance(mode, FloquetMode) else np.asarray(mode)
    if vector.ndim != 1 or vector.size != spec.n_sites:
        raise ValidationError("mode vector size does not match the spec")
    nrm = float(np.sum(np.abs(vector) ** 2))
    if abs(nrm - 1.0) > 1e-7:
        raise ValidationError("mode vector must be unit norm")
    return period_average(
        spec, [spec.a2], vector[np.newaxis, np.newaxis, :], steps_per_period
    )[0, 0]


# ---------------------------------------------------------------------------
# Branch tracking across a parameter scan


@dataclass
class Branch:
    """One quasi-energy branch followed through a parameter sweep."""

    branch_id: int
    param_values: np.ndarray
    quasienergies: np.ndarray
    vectors: np.ndarray          # (points, n_sites)
    avg_populations: np.ndarray  # (points, n_sites)
    residuals: np.ndarray
    vary: str = "a2"
    base_spec: SystemSpec | None = None
    steps_per_period: int = DEFAULT_STEPS_PER_PERIOD

    def window(self, mask: np.ndarray) -> "Branch":
        """Restriction of the branch to a boolean mask of grid points."""
        return Branch(
            branch_id=self.branch_id,
            param_values=self.param_values[mask],
            quasienergies=self.quasienergies[mask],
            vectors=self.vectors[mask],
            avg_populations=self.avg_populations[mask],
            residuals=self.residuals[mask],
            vary=self.vary,
            base_spec=self.base_spec,
            steps_per_period=self.steps_per_period,
        )


@dataclass
class BranchSet:
    vary: str
    param_values: np.ndarray
    branches: list[Branch]
    warnings: list[str] = field(default_factory=list)


def _best_permutation(prev_vecs, next_vecs, prev_eps, next_eps, omega):
    """Match modes across a grid step by maximal eigenvector overlap.

    Returns (permutation, ambiguous). The permutation maximizes the summed
    |<v_prev, v_next>|; near-ties (within OVERLAP_AMBIGUITY) are broken by
    quasi-energy proximity and flagged.
    """
    n = len(prev_eps)
    overlap = np.abs(prev_vecs.conj() @ next_vecs.T)
    best_perm, best_score = None, -1.0
    scores = []
    for perm in itertools.permutations(range(n)):
        score = float(sum(overlap[i, perm[i]] for i in range(n)))
        scores.append((score, perm))
        if score > best_score:
            best_score, best_perm = score, perm
    near = [
        (score, perm) for score, perm in scores
        if best_score - score < OVERLAP_AMBIGUITY and perm != best_perm
    ]
    ambiguous = bool(near)
    if ambiguous:
        def eps_cost(perm):
            return sum(
                _circular_gap(prev_eps[i], next_eps[perm[i]], omega)
                for i in range(n)
            )
        candidates = [(best_score, best_perm)] + near
        best_perm = min(candidates, key=lambda item: eps_cost(item[1]))[1]
    return best_perm, ambiguous


def _modes_bulk(base_spec: SystemSpec, a2_values: np.ndarray,
                steps_per_period: int):
    """Per-point quasi-energies, eigenvectors, populations, and residuals.

    One basis sweep gives every point's U and one period average covers
    every mode of every point; both are row-local, so results do not depend
    on how the points are chunked.
    """
    us, _ = basis_sweep(base_spec, a2_values, steps_per_period)
    modes = []
    for i, u in enumerate(us):
        where = f" at grid point {i}"
        _check_unitary(u, where)
        modes.append(_sorted_modes(u, base_spec.omega, where))
    eps, vecs, resid = (np.array(arrays) for arrays in zip(*modes))
    pops = period_average(base_spec, a2_values, vecs, steps_per_period)
    return eps, vecs, pops, resid


def track_branches(
    specs,
    steps_per_period: int = DEFAULT_STEPS_PER_PERIOD,
    workers: int = 1,
) -> BranchSet:
    """Follow quasi-energy branches across an ordered list of specs.

    The specs must differ only in a2, along a strictly monotone grid.
    Modes at consecutive grid points are matched by eigenvector overlap, so
    branches stay continuous through exact crossings where ordering by
    quasi-energy would swap labels. Mode computation for distinct grid
    points is independent and is spread over ``workers`` chunks; matching
    itself is sequential and worker-count invariant.
    """
    specs = list(specs)
    if not specs:
        raise ValidationError("need at least one spec")
    first = specs[0]
    if any(s.replace(a2=first.a2) != first for s in specs[1:]):
        raise ValidationError(
            "specs must vary in exactly one field, and it must be a2"
        )
    params = np.array([s.a2 for s in specs], dtype=float)
    if params.size > 1:
        diffs = np.diff(params)
        if not (np.all(diffs > 0) or np.all(diffs < 0)):
            raise ValidationError("a2 grid must be strictly monotone")

    n = first.n_sites
    p = len(specs)
    chunks = np.array_split(params, max(1, min(workers, p)))
    if len(chunks) > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=len(chunks)) as pool:
            parts = list(pool.map(
                lambda a2: _modes_bulk(first, a2, steps_per_period), chunks
            ))
    else:
        parts = [_modes_bulk(first, params, steps_per_period)]
    eps, vecs, pops, resid = (np.concatenate(arrays) for arrays in zip(*parts))

    warnings: list[str] = []
    order = np.arange(n)
    orders = np.empty((p, n), dtype=int)
    orders[0] = order
    omega = first.omega
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
                base_spec=first,
                steps_per_period=steps_per_period,
            )
        )
    return BranchSet(vary="a2", param_values=params, branches=branches,
                     warnings=warnings)


# ---------------------------------------------------------------------------
# Crossing vs avoided-crossing classification


def _circular_gap(e1: float, e2: float, omega: float) -> float:
    """Distance between two quasi-energies on the folding circle."""
    d = abs(e1 - e2) % omega
    return min(d, omega - d)


@dataclass(frozen=True)
class ClosestApproach:
    kind: str       # "crossing" or "avoided"
    location: float  # value of the varied parameter at the minimum gap
    gap: float
    evaluations: int


def _gap_probe(branch_a: Branch, branch_b: Branch, anchor: int, x: float) -> float:
    """Gap between the two tracked branches re-evaluated at parameter x.

    Only eigenvalues and eigenvectors are needed here, so the mode
    populations are skipped.
    """
    spec = branch_a.base_spec.replace(**{branch_a.vary: float(x)})
    op = monodromy(spec, branch_a.steps_per_period)
    eps, vecs, _ = _sorted_modes(op.matrix, spec.omega)
    ov_a = np.abs(vecs.conj() @ branch_a.vectors[anchor])
    ov_b = np.abs(vecs.conj() @ branch_b.vectors[anchor])
    ia = int(np.argmax(ov_a))
    ov_b[ia] = -1.0  # the pair must be two distinct modes
    ib = int(np.argmax(ov_b))
    return _circular_gap(float(eps[ia]), float(eps[ib]), spec.omega)


def classify_closest_approach(
    branch_a: Branch,
    branch_b: Branch,
    refinement_budget: int = 48,
    gap_threshold: float | None = None,
) -> ClosestApproach:
    """Locate and classify the closest approach of two tracked branches.

    Finds the interior local minimum of the circular quasi-energy gap on the
    common grid (smallest gap wins if there are several; leftmost on ties),
    then refines by golden-section probes within the bracketing cell, up to
    ``refinement_budget`` extra operator evaluations. The approach counts as
    a crossing when the refined gap falls below ``gap_threshold``
    (default 1e-4 * omega).
    """
    if not np.array_equal(branch_a.param_values, branch_b.param_values):
        raise ValidationError("branches must share one common parameter grid")
    params = branch_a.param_values
    if params.size < 3:
        raise ValidationError("need at least 3 grid points to bracket a minimum")
    if branch_a.base_spec is None:
        raise ValidationError("branches lack a base spec for refinement")
    omega = branch_a.base_spec.omega
    if gap_threshold is None:
        gap_threshold = DEFAULT_GAP_THRESHOLD_FACTOR * omega

    g = np.array([
        _circular_gap(branch_a.quasienergies[i], branch_b.quasienergies[i], omega)
        for i in range(params.size)
    ])
    interior = [
        i for i in range(1, params.size - 1)
        if g[i] <= g[i - 1] and g[i] <= g[i + 1]
    ]
    if not interior:
        raise ValidationError("no interior local minimum of the gap in range")
    best = min(interior, key=lambda i: (g[i], i))

    if g[best - 1] == g[best] == g[best + 1]:
        # flat plateau: nothing to refine, report the leftmost interior point
        return ClosestApproach(
            kind="crossing" if g[best] < gap_threshold else "avoided",
            location=float(params[best]),
            gap=float(g[best]),
            evaluations=0,
        )

    lo, hi = float(params[best - 1]), float(params[best + 1])
    best_x, best_g = float(params[best]), float(g[best])
    if refinement_budget < 2:
        return ClosestApproach(
            kind="crossing" if best_g < gap_threshold else "avoided",
            location=best_x,
            gap=best_g,
            evaluations=0,
        )
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    c = hi - inv_phi * (hi - lo)
    d = lo + inv_phi * (hi - lo)
    evaluations = 0
    fc = _gap_probe(branch_a, branch_b, best, c)
    fd = _gap_probe(branch_a, branch_b, best, d)
    evaluations += 2
    while evaluations < refinement_budget and (hi - lo) > 1e-12 * max(1.0, abs(hi)):
        for x, fx in ((c, fc), (d, fd)):
            if fx < best_g:
                best_x, best_g = x, fx
        if fc <= fd:
            hi, d, fd = d, c, fc
            c = hi - inv_phi * (hi - lo)
            fc = _gap_probe(branch_a, branch_b, best, c)
        else:
            lo, c, fc = c, d, fd
            d = lo + inv_phi * (hi - lo)
            fd = _gap_probe(branch_a, branch_b, best, d)
        evaluations += 1
    for x, fx in ((c, fc), (d, fd)):
        if fx < best_g:
            best_x, best_g = x, fx

    return ClosestApproach(
        kind="crossing" if best_g < gap_threshold else "avoided",
        location=float(best_x),
        gap=float(best_g),
        evaluations=evaluations,
    )
