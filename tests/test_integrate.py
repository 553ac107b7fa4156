import math

import pytest

from reference import adaptive_simpson


def test_polynomial_exact():
    # Simpson is exact for cubics: antiderivative x^4/4 - x^2 + x on [-1, 2]
    expected = (2.0**4 / 4 - 4 + 2) - (1.0 / 4 - 1 - 1)
    assert adaptive_simpson(lambda x: x**3 - 2 * x + 1, -1.0, 2.0) == pytest.approx(
        expected, abs=1e-12
    )


def test_sine():
    assert adaptive_simpson(math.sin, 0.0, math.pi, tol=1e-12) == pytest.approx(2.0, abs=1e-10)


def test_gaussian_against_erf():
    f = lambda x: math.exp(-x * x)
    assert adaptive_simpson(f, 0.0, 1.5, tol=1e-12) == pytest.approx(
        math.sqrt(math.pi) / 2 * math.erf(1.5), abs=1e-10
    )


def test_orientation_and_degenerate():
    assert adaptive_simpson(lambda x: x, 1.0, 0.0) == pytest.approx(-0.5, abs=1e-12)
    assert adaptive_simpson(lambda x: x, 2.0, 2.0) == 0.0
