import numpy as np
import pytest

from floquet_lattice import ValidationError, bessel_j, j0_zero

from helpers import bessel_quadrature, bisect_zero


def test_j0_at_zero_argument():
    assert bessel_j(0, 0.0) == 1.0


@pytest.mark.parametrize("k", [1, 2, 5, 10])
def test_jk_at_zero_argument(k):
    assert bessel_j(k, 0.0) == 0.0


def test_j0_matches_quadrature_at_2p2():
    oracle = bessel_quadrature(0, 2.2)
    assert abs(bessel_j(0, 2.2) - oracle) < 1e-10
    assert abs(oracle - 0.110362) < 1e-6


def test_j0_vanishes_at_bisected_zero():
    z = bisect_zero(lambda x: bessel_j(0, x), 2.0, 3.0)
    assert abs(bessel_j(0, z)) < 1e-6
    assert abs(bessel_quadrature(0, z)) < 1e-6


def test_quadrature_agreement_random_points():
    rng = np.random.default_rng(42)
    for _ in range(200):
        k = int(rng.integers(0, 11))
        x = float(rng.uniform(0.0, 60.0))
        assert abs(bessel_j(k, x) - bessel_quadrature(k, x)) < 1e-10


def test_series_asymptotic_boundary():
    for k in range(11):
        for x in np.linspace(13.5, 14.5, 21):
            assert abs(bessel_j(k, float(x)) - bessel_quadrature(k, float(x))) < 1e-10


def test_parity():
    rng = np.random.default_rng(7)
    for _ in range(100):
        x = float(rng.uniform(-60.0, 60.0))
        for k in (0, 1, 2):
            assert bessel_j(k, -x) == (-1.0) ** k * bessel_j(k, x)


def test_three_term_recurrence():
    rng = np.random.default_rng(11)
    for _ in range(100):
        x = float(rng.uniform(0.5, 50.0))
        for k in range(1, 6):
            resid = bessel_j(k - 1, x) + bessel_j(k + 1, x) - (2.0 * k / x) * bessel_j(k, x)
            assert abs(resid) < 1e-8


def test_magnitude_bound():
    rng = np.random.default_rng(3)
    for _ in range(200):
        k = int(rng.integers(0, 11))
        x = float(rng.uniform(-60.0, 60.0))
        assert abs(bessel_j(k, x)) <= 1.0 + 1e-12


def test_zero_values():
    assert abs(j0_zero(1) - 2.40482556) < 1e-8
    assert abs(j0_zero(2) - 5.52007811) < 1e-8
    # independent re-derivation by bisecting the quadrature oracle
    z1 = bisect_zero(lambda x: bessel_quadrature(0, x), 2.0, 3.0)
    assert abs(j0_zero(1) - z1) < 1e-8


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_zero_bracketing(n):
    z = j0_zero(n)
    assert bessel_j(0, z - 1e-4) * bessel_j(0, z + 1e-4) < 0.0


@pytest.mark.parametrize(
    "k,x",
    [(11, 1.0), (-1, 1.0), (0, 60.5), (0, -61.0), (0, float("nan")),
     (True, 1.0), (1.0, 1.0)],
)
def test_domain_errors(k, x):
    with pytest.raises(ValidationError):
        bessel_j(k, x)


@pytest.mark.parametrize("n", [0, 6, -1, True, False, 2.0])
def test_zero_index_errors(n):
    with pytest.raises(ValidationError):
        j0_zero(n)


def test_numpy_integers_are_accepted():
    assert j0_zero(np.int64(2)) == j0_zero(2)
    assert bessel_j(np.int64(0), 1.0) == bessel_j(0, 1.0)
    assert bessel_j(np.int32(3), -2.5) == bessel_j(3, -2.5)


def test_against_mpmath_on_criterion_9_draws():
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(2024)  # the draws of acceptance criterion 9
    points = [(int(rng.integers(0, 11)), float(rng.uniform(0.0, 60.0)))
              for _ in range(1000)]
    points += [(k, 0.0) for k in range(11)]
    with mpmath.workdps(30):
        worst = max(abs(bessel_j(k, x) - float(mpmath.besselj(k, x)))
                    for k, x in points)
    assert worst < 1e-14


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_zero_is_correctly_rounded(n):
    mpmath = pytest.importorskip("mpmath")
    from scipy.special import jn_zeros

    z = j0_zero(n)
    with mpmath.workdps(30):
        assert z == float(mpmath.besseljzero(0, n))
    assert abs(z - jn_zeros(0, 5)[n - 1]) <= np.spacing(z)
