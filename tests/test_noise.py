import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from goc.environment import make_rng
from goc.noise import HonestNoiseModel, Scenario, truncated_gaussian_scenario, uniform_scenario

from reference import adaptive_simpson, noise_cdf, noise_pdf


def test_uniform_pdf_values():
    m = HonestNoiseModel("uniform", 1.0)
    assert noise_pdf(m, 0.0) == 0.5
    assert noise_pdf(m, 1.5) == 0.0
    assert noise_pdf(m, -1.5) == 0.0


def test_truncated_gaussian_pdf_center():
    # phi(0; 0.5) / (Phi(2) - Phi(-2)), cross-checked against scipy.truncnorm
    m = HonestNoiseModel("truncated_gaussian", 1.0, 0.5)
    expected = 0.8359191004702692
    assert noise_pdf(m, 0.0) == pytest.approx(expected, abs=1e-12)
    assert noise_pdf(m, 0.0) == pytest.approx(stats.truncnorm(-2, 2, scale=0.5).pdf(0.0), abs=1e-12)


@pytest.mark.parametrize(
    "model",
    [HonestNoiseModel("uniform", 1.0), HonestNoiseModel("truncated_gaussian", 1.0, 0.5)],
)
def test_cdf_endpoints_and_monotone(model):
    assert noise_cdf(model, -1.0) == 0.0
    assert noise_cdf(model, 1.0) == 1.0
    x = np.linspace(-1.0, 1.0, 501)
    c = noise_cdf(model, x)
    assert np.all(np.diff(c) >= 0.0)


def test_uniform_cdf_values():
    m = HonestNoiseModel("uniform", 1.0)
    assert noise_cdf(m, 0.0) == 0.5
    assert noise_cdf(m, -0.5) == 0.25


@pytest.mark.parametrize(
    "model",
    [HonestNoiseModel("uniform", 1.0), HonestNoiseModel("truncated_gaussian", 1.0, 0.5)],
)
def test_density_normalizes_and_is_symmetric(model):
    total = adaptive_simpson(lambda x: float(noise_pdf(model, x)), -model.delta, model.delta, tol=1e-12)
    assert total == pytest.approx(1.0, abs=1e-9)
    x = np.linspace(-model.delta, model.delta, 1001)
    assert np.max(np.abs(noise_pdf(model, x) - noise_pdf(model, -x))) <= 1e-12


def test_uniform_sampling_moments():
    m = HonestNoiseModel("uniform", 1.0)
    draws = m.ppf(make_rng(7, 0).random(10**6))
    assert abs(float(np.mean(draws))) < 0.005  # 3 sigma/sqrt(n) with sigma^2 = 1/3
    assert float(np.var(draws)) == pytest.approx(1.0 / 3.0, rel=0.02)
    assert draws.min() >= -1.0 and draws.max() <= 1.0


@pytest.mark.parametrize(
    "model",
    [HonestNoiseModel("uniform", 1.0), HonestNoiseModel("truncated_gaussian", 1.0, 0.5)],
)
def test_sampling_matches_cdf(model):
    draws = model.ppf(make_rng(11, 1).random(10**5))
    assert draws.min() >= -model.delta and draws.max() <= model.delta
    ks = stats.kstest(draws, lambda x: noise_cdf(model, x)).statistic
    assert ks < 0.01


def test_truncated_gaussian_normalization_cached():
    m = HonestNoiseModel("truncated_gaussian", 1.0, 0.5)
    assert m._norm == pytest.approx(math.erf(1.0 / (0.5 * math.sqrt(2.0))), abs=1e-12)


@given(st.floats(min_value=-2.0, max_value=2.0))
@settings(max_examples=100, deadline=None)
def test_pdf_symmetry_property(x):
    m = HonestNoiseModel("truncated_gaussian", 1.0, 0.7)
    assert noise_pdf(m, x) == pytest.approx(noise_pdf(m, -x), abs=1e-12)


def test_partial_moments_match_quadrature():
    m = HonestNoiseModel("truncated_gaussian", 1.0, 0.5)
    for t in (-1.0, -0.4, 0.0, 0.3, 0.9):
        m0, m1, m2 = m.partial_moments(t)
        q0 = adaptive_simpson(lambda x: float(noise_pdf(m, x)), t, 1.0, tol=1e-12)
        q1 = adaptive_simpson(lambda x: x * float(noise_pdf(m, x)), t, 1.0, tol=1e-12)
        q2 = adaptive_simpson(lambda x: x * x * float(noise_pdf(m, x)), t, 1.0, tol=1e-12)
        assert m0 == pytest.approx(q0, abs=1e-10)
        assert m1 == pytest.approx(q1, abs=1e-10)
        assert m2 == pytest.approx(q2, abs=1e-10)


def test_scenario_validation():
    noise = HonestNoiseModel("uniform", 1.0)
    with pytest.raises(ValueError, match="scenario.delta"):
        Scenario(2.0, noise)  # delta / big_m way above the bound
    assert Scenario(1e4, noise).delta == noise.delta
    assert uniform_scenario().delta == 1.0


def test_model_validation():
    with pytest.raises(ValueError, match=r"^noise\.kind: "):
        HonestNoiseModel("unknown", 1.0)
    with pytest.raises(ValueError, match=r"^noise\.sigma: "):
        HonestNoiseModel("truncated_gaussian", 1.0)  # missing sigma
    with pytest.raises(ValueError, match=r"^noise\.sigma: "):
        HonestNoiseModel("uniform", 1.0, 0.5)  # stray sigma
    with pytest.raises(ValueError, match=r"^scenario\.delta: "):
        HonestNoiseModel("uniform", -1.0)


def test_sigma_bound_enforced_by_the_model():
    # library callers get the config's bound: past it the closed-form moments cancel
    with pytest.raises(ValueError, match=r"^noise\.sigma: .*100 \* scenario\.delta"):
        truncated_gaussian_scenario(100.5)
    assert truncated_gaussian_scenario(100.0).noise.sigma == 100.0
