import pytest

from goc.config import ConfigError, default_config, load_config_text, validate_config


def test_minimal_file_fills_defaults():
    cfg = load_config_text("")
    assert cfg["envelope.grid"] == 2001
    assert cfg["envelope.alpha_min"] == 1e-3
    assert cfg["env.mode"] == "bernoulli"
    assert cfg["scenario.delta"] == 1.0
    assert cfg["scenario.big_m"] == 1e4
    cfg.scenario()
    cfg.utility_spec()


def test_delta_ratio_rejected():
    with pytest.raises(ConfigError, match="scenario.delta"):
        load_config_text("scenario.delta = 1.0\nscenario.big_m = 2.0\n")


def test_unknown_key_named():
    with pytest.raises(ConfigError, match="scenario.unknown_knob"):
        load_config_text("scenario.unknown_knob = 3\n")


def test_type_mismatch_named():
    with pytest.raises(ConfigError, match="experiment.trials"):
        load_config_text("experiment.trials = many\n")


def test_invariant_violations_name_keys():
    with pytest.raises(ConfigError, match="learner.b"):
        load_config_text("learner.a = 3.0\nlearner.b = 2.5\n")
    with pytest.raises(ConfigError, match="learner.delta"):
        load_config_text("learner.delta = 1.5\n")
    with pytest.raises(ConfigError, match="noise.sigma"):
        load_config_text("noise.kind = truncated_gaussian\n")
    with pytest.raises(ConfigError, match="noise.sigma"):
        load_config_text("noise.kind = uniform\nnoise.sigma = 0.5\n")
    with pytest.raises(ConfigError, match="experiment.budget_scale"):
        load_config_text("experiment.budget_scale = 2.0\n")


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
    prof = cfg.lipschitz_override()
    assert (prof.ell, prof.big_l, prof.d) == (2.0, 0.5, 4.0)


def test_hash_stable_and_sensitive():
    a = default_config()
    b = validate_config({})
    assert a.hash() == b.hash()
    c = a.with_overrides(**{"experiment.base_seed": 7})
    assert c.hash() != a.hash()


def test_with_overrides_validates():
    with pytest.raises(ConfigError, match="nonsense"):
        default_config().with_overrides(nonsense=1)


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
        default_config().with_overrides(**{"learner.a": float("nan")})


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
