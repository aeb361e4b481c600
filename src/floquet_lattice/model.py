"""System description and instantaneous Hamiltonian assembly.

The model is an open chain of N sites with nearest-neighbor coupling
omega0, next-nearest-neighbor coupling nu0, and harmonically driven on-site
energies at the two boundary sites only:

    H_11(t) = a1 cos(omega t),   H_NN(t) = a2 cos(omega t),

all interior on-site energies zero. Couplings whose partner index would
fall outside 1..N are dropped (open boundary).
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import ValidationError

_SPEC_KEYS = ("n_sites", "omega0", "nu0", "a1", "a2", "omega")

# Tolerance on |sum_j |a_j|^2 - 1| of an input state or mode vector.
STATE_NORM_TOL = 1e-9


@dataclass(frozen=True)
class SystemSpec:
    """Lattice geometry, couplings, and boundary-drive parameters.

    Attributes:
        n_sites: number of chain sites N (>= 2).
        omega0: nearest-neighbor coupling strength.
        nu0: next-nearest-neighbor (second-order) coupling strength.
        a1: drive amplitude on site 1.
        a2: drive amplitude on site N.
        omega: drive angular frequency (> 0); the period is 2 pi / omega.
    """

    n_sites: int
    omega0: float
    nu0: float
    a1: float
    a2: float
    omega: float

    def __post_init__(self):
        validate(self)

    @property
    def period(self) -> float:
        return 2.0 * math.pi / self.omega

    def replace(self, **changes) -> "SystemSpec":
        fields = asdict(self)
        fields.update(changes)
        return SystemSpec(**fields)

    def to_json_dict(self) -> dict:
        return {k: getattr(self, k) for k in _SPEC_KEYS}

    @classmethod
    def from_json_dict(cls, raw: dict) -> "SystemSpec":
        """Inverse of ``to_json_dict``; rejects unknown and missing keys."""
        if not isinstance(raw, dict):
            raise ValidationError("spec JSON must be an object")
        unknown = sorted(set(raw) - set(_SPEC_KEYS))
        if unknown:
            raise ValidationError(f"unknown spec keys: {', '.join(unknown)}")
        missing = sorted(set(_SPEC_KEYS) - set(raw))
        if missing:
            raise ValidationError(f"missing spec keys: {', '.join(missing)}")
        n_sites = raw["n_sites"]
        if isinstance(n_sites, float):
            if not n_sites.is_integer():
                raise ValidationError(
                    f"n_sites must be an integer, got {n_sites!r}")
            n_sites = int(n_sites)
        return cls(
            n_sites=n_sites,
            omega0=float(raw["omega0"]),
            nu0=float(raw["nu0"]),
            a1=float(raw["a1"]),
            a2=float(raw["a2"]),
            omega=float(raw["omega"]),
        )


def validate(spec: SystemSpec) -> None:
    """Raise ValidationError unless every field constraint holds."""
    if not isinstance(spec.n_sites, int) or isinstance(spec.n_sites, bool):
        raise ValidationError(f"n_sites must be an integer, got {spec.n_sites!r}")
    if spec.n_sites < 2:
        raise ValidationError(f"n_sites must be >= 2, got {spec.n_sites}")
    for name in ("omega0", "nu0", "a1", "a2", "omega"):
        value = getattr(spec, name)
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ValidationError(f"{name} must be a real number, got {value!r}")
        if not math.isfinite(value):
            raise ValidationError(f"{name} must be finite, got {value!r}")
    if spec.omega <= 0.0:
        raise ValidationError(f"omega must be positive, got {spec.omega!r}")


def require_int(name: str, value, minimum: int) -> None:
    """Raise ValidationError unless ``value`` is an integer >= ``minimum``.

    Floats (even integral ones) and bools are rejected.
    """
    if (isinstance(value, bool)
            or not isinstance(value, (int, np.integer))
            or value < minimum):
        raise ValidationError(
            f"{name} must be an integer >= {minimum}, got {value!r}"
        )


def require_site(name: str, site, n_sites: int) -> int:
    """0-based index of the 1-based ``site``; ValidationError unless it is
    an integer (not a bool) in [1, n_sites]."""
    require_int(name, site, 1)
    if site > n_sites:
        raise ValidationError(f"{name} must be in [1, {n_sites}], got {site}")
    return int(site) - 1


def require_state(name: str, vector, n_sites: int) -> np.ndarray:
    """``vector`` as a complex array; ValidationError unless it holds
    ``n_sites`` amplitudes of unit norm within STATE_NORM_TOL. NaN and Inf
    fail."""
    amps = np.asarray(vector, dtype=complex)
    if amps.shape != (n_sites,):
        raise ValidationError(
            f"{name} has shape {amps.shape}, spec has {n_sites} sites")
    with np.errstate(over="ignore"):
        err = abs(float(np.sum(amps.real**2 + amps.imag**2)) - 1.0)
    if not (err <= STATE_NORM_TOL):
        raise ValidationError(f"{name} norm deviates by {err:.2e} "
                              f"(tolerance {STATE_NORM_TOL:.0e})")
    return amps


def spec_from_json(text: str) -> SystemSpec:
    """Parse a SystemSpec from a JSON object; unknown keys are rejected."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"invalid JSON: {exc}") from exc
    return SystemSpec.from_json_dict(raw)


def apply_spec_overrides(spec: SystemSpec, overrides: dict[str, str]):
    """(spec with the fields named in ``overrides`` set, the other overrides).

    Values are parsed from strings and the new spec is validated.
    """
    changes, rest = {}, {}
    for key, value in overrides.items():
        if key not in _SPEC_KEYS:
            rest[key] = value
            continue
        try:
            changes[key] = int(value) if key == "n_sites" else float(value)
        except ValueError as exc:
            raise ValidationError(f"bad value for {key}: {value!r}") from exc
    return spec.replace(**changes), rest


def spec_to_json(spec: SystemSpec) -> str:
    return json.dumps(spec.to_json_dict(), indent=2, sort_keys=True)


@dataclass(frozen=True)
class HamiltonianMatrix:
    """Dense Hermitian H(t) snapshot; entries are real in this model."""

    entries: np.ndarray
    time_tag: float


def static_hamiltonian(spec: SystemSpec) -> np.ndarray:
    """Time-independent coupling part of H (drive terms excluded)."""
    n = spec.n_sites
    h = np.zeros((n, n))
    for j in range(n - 1):
        h[j, j + 1] = h[j + 1, j] = spec.omega0
    for j in range(n - 2):
        h[j, j + 2] = h[j + 2, j] = spec.nu0
    return h


def hamiltonian_at(spec: SystemSpec, t: float) -> HamiltonianMatrix:
    """Instantaneous Hamiltonian H(t).

    Diagonal: a1 cos(omega t) at site 1 and a2 cos(omega t) at site N, zero
    elsewhere. Off-diagonal: omega0 one step off the diagonal, nu0 two steps
    off, nothing beyond.
    """
    h = static_hamiltonian(spec).astype(complex)
    c = math.cos(spec.omega * t)
    h[0, 0] = spec.a1 * c
    h[-1, -1] = spec.a2 * c
    return HamiltonianMatrix(entries=h, time_tag=t)
