import re

import pytest

from goc.config import ConfigError, load_config, load_config_text, validate_config


def test_minimal_file_fills_defaults():
    cfg = load_config_text("")
    assert cfg["envelope.grid"] == 2001
    assert cfg["envelope.alpha_min"] == 1e-3
    assert cfg["env.mode"] == "bernoulli"
    assert cfg["scenario.delta"] == 1.0
    assert cfg["scenario.big_m"] == 1e4
    cfg.scenario
    cfg.utility_spec


def test_delta_ratio_rejected():
    with pytest.raises(ConfigError, match="scenario.delta"):
        load_config_text("scenario.delta = 1.0\nscenario.big_m = 2.0\n")


def test_unknown_key_named():
    with pytest.raises(ConfigError, match="scenario.unknown_knob"):
        load_config_text("scenario.unknown_knob = 3\n")


def test_type_mismatch_named():
    with pytest.raises(ConfigError, match="experiment.trials"):
        load_config_text("experiment.trials = many\n")


# (key, text): each rule's owner raises a message that starts with its key
INVARIANT_VIOLATIONS = [
    ("noise.kind", "noise.kind = nope\n"),
    ("noise.sigma", "noise.kind = truncated_gaussian\n"),
    ("noise.sigma", "noise.kind = truncated_gaussian\nnoise.sigma = -0.5\n"),
    ("noise.sigma", "noise.kind = uniform\nnoise.sigma = 0.5\n"),
    ("scenario.delta", "scenario.delta = -1.0\n"),
    ("scenario.big_m", "scenario.big_m = 0.0\n"),
    ("learner.a", "learner.a = 1.5\n"),
    ("learner.b", "learner.a = 3.0\nlearner.b = 2.5\n"),
    ("learner.delta", "learner.delta = 1.5\n"),
    ("learner.lambda", "learner.lambda = 0.0\n"),
    ("envelope.grid", "envelope.grid = 50\n"),
    ("envelope.alpha_min", "envelope.alpha_min = 0.0\n"),
    ("envelope.alpha_min", "envelope.alpha_min = 1.0\n"),
    ("experiment.budget_scale", "experiment.budget_scale = 2.0\n"),
    ("experiment.budget_scale", "experiment.budget_scale = 0.0\n"),
    ("estimator.resolution", "estimator.resolution = 50\n"),
    ("env.mode", "env.mode = nope\n"),
    ("experiment.trials", "experiment.trials = 0\n"),
    ("experiment.base_seed", "experiment.base_seed = -1\n"),
]


def test_invariant_violations_name_keys():
    for key, text in INVARIANT_VIOLATIONS:
        with pytest.raises(ConfigError, match=rf"^{re.escape(key)}: "):
            load_config_text(text)


@pytest.mark.parametrize("sigma, delta", [(100.5, 1.0), (1e3, 1.0), (1e5, 1.0), (1e8, 1.0),
                                          (0.2, 1e-3), (3.8e3, 37.0)])
def test_sigma_far_above_delta_rejected(sigma, delta):
    # past MAX_SIGMA_RATIO the closed-form truncated-Gaussian moments cancel
    # catastrophically: at eta = 3, sigma = 1e5 reads c_max = 21.35 for a law
    # whose uniform limit is 6.2425, and sigma = 1e8 builds an all-zero table
    text = f"noise.kind = truncated_gaussian\nnoise.sigma = {sigma!r}\nscenario.delta = {delta!r}\n"
    with pytest.raises(ConfigError, match=r"^noise\.sigma: .*100 \* scenario\.delta"):
        load_config_text(text)


@pytest.mark.parametrize("sigma, delta", [(100.0, 1.0), (0.1, 1e-3), (3.7e3, 37.0)])
def test_sigma_at_the_bound_accepted(sigma, delta):
    cfg = load_config_text(
        f"noise.kind = truncated_gaussian\nnoise.sigma = {sigma!r}\nscenario.delta = {delta!r}\n")
    assert cfg.scenario.noise.sigma == sigma


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="duplicate"):
        load_config_text("learner.a = 2\nlearner.a = 3\n")


def test_comments_and_blanks_ignored():
    cfg = load_config_text("# full-line comment\n\nlearner.a = 2.5  # trailing\n")
    assert cfg["learner.a"] == 2.5


def test_lipschitz_override_requires_all_three():
    with pytest.raises(ConfigError, match="lipschitz"):
        load_config_text("lipschitz.ell = 2.0\n")
    cfg = load_config_text("lipschitz.ell = 2.0\nlipschitz.L = 0.5\nlipschitz.d = 4.0\n")
    prof = cfg.lipschitz_override
    assert (prof.ell, prof.big_l, prof.d) == (2.0, 0.5, 4.0)


def test_hash_stable_and_sensitive():
    a = load_config(None)
    b = validate_config({})
    assert a.hash() == b.hash()
    c = a.with_overrides(**{"experiment.base_seed": 7})
    assert c.hash() != a.hash()


def test_with_overrides_validates():
    with pytest.raises(ConfigError, match="nonsense"):
        load_config(None).with_overrides(nonsense=1)


@pytest.mark.parametrize("key,raw", [
    ("learner.lambda", "nan"),
    ("learner.b", "inf"),
    ("utility.ad.theta", "inf"),
    ("scenario.big_m", "-inf"),
])
def test_non_finite_float_named(key, raw):
    with pytest.raises(ConfigError, match=rf"^{key}: must be finite"):
        load_config_text(f"{key} = {raw}\n")


def test_non_finite_override_named():
    with pytest.raises(ConfigError, match=r"^learner.a: must be finite"):
        load_config(None).with_overrides(**{"learner.a": float("nan")})


@pytest.mark.parametrize("key,raw", [
    ("utility.dc.kind", "nope"),
    ("utility.dc.gamma", "-0.5"),
    ("utility.dc.gamma", "nan"),
    ("utility.ad.kind", "nope"),
    ("utility.ad.theta", "0"),
    ("utility.ad.w_mse", "0"),
    ("utility.ad.w_pa", "-1"),
    ("lipschitz.ell", "-1"),
    ("lipschitz.L", "0"),
    ("lipschitz.d", "-2"),
])
def test_utility_errors_name_their_key(key, raw):
    pairs = {key: raw}
    if key.startswith("utility.ad.w_"):
        pairs["utility.ad.kind"] = "weighted_sum"
    if key.startswith("lipschitz."):
        pairs = {"lipschitz.ell": "2.0", "lipschitz.L": "0.5", "lipschitz.d": "4.0", key: raw}
    text = "".join(f"{k} = {v}\n" for k, v in pairs.items())
    with pytest.raises(ConfigError, match=rf"^{key}: "):
        load_config_text(text)


def test_removed_key_rejected():
    with pytest.raises(ConfigError, match="env.samples_per_round: unknown"):
        load_config_text("env.samples_per_round = 1\n")


@pytest.mark.parametrize("grid", [101, 2001])
def test_alpha_min_leaves_two_grid_points(grid):
    from goc.envelope import build_envelope_table

    # the largest accepted value keeps the last two grid points
    largest = (grid - 2) / (grid - 1)
    cfg = load_config_text(f"envelope.grid = {grid}\nenvelope.alpha_min = {largest!r}\n")
    table = build_envelope_table(cfg.scenario, 2.5, grid, cfg["envelope.alpha_min"])
    assert table.alpha_grid.size == 2
    # one point more leaves a single grid point, with or without a Lipschitz override
    above = (largest + 1.0) / 2.0
    override = "lipschitz.ell = 2.0\nlipschitz.L = 0.5\nlipschitz.d = 4.0\n"
    for extra in ("", override):
        with pytest.raises(ConfigError, match=rf"^envelope.alpha_min: .*envelope.grid = {grid} "):
            load_config_text(f"envelope.grid = {grid}\nenvelope.alpha_min = {above!r}\n{extra}")
