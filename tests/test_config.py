"""Config parsing: typed keys, line-numbered errors, round trip."""

import pytest

from railbridge.config import (
    Config,
    ConfigError,
    default_config,
    load_config,
    parse_config,
    to_rate_model,
    to_source_params,
)

from oracles import format_config

MINIMAL = """\
# bench defaults
gamma1 = 0.20
gamma23 = 0.054
eta_d = 0.03
eta = 0.5
order = exact
cutoff = 2
seed = 7
"""


def test_parse_minimal_and_defaults():
    cfg = parse_config(MINIMAL)
    assert cfg.gamma1 == 0.20
    assert cfg.seed == 7
    assert cfg.alpha is None
    assert cfg.tomo_cutoff == 4
    assert cfg.samples == 2000
    assert cfg.R_L == 76e6


def test_comments_and_inline_comments():
    cfg = parse_config(MINIMAL + "alpha = 0.25  # balanced-ish\n")
    assert cfg.alpha == 0.25


def test_missing_required_keys_named():
    text = "\n".join(
        line for line in MINIMAL.splitlines() if not line.startswith("gamma1")
    )
    with pytest.raises(ConfigError, match="missing required keys: gamma1"):
        parse_config(text)
    with pytest.raises(ConfigError, match="gamma1, gamma23"):
        parse_config("eta_d = 0.03\neta=0.5\norder=exact\ncutoff=2\nseed=1\n")


def test_unknown_key_with_line_number():
    with pytest.raises(ConfigError, match=r"line 9: unknown key 'gamma12'"):
        parse_config(MINIMAL + "gamma12 = 0.1\n")


def test_bad_value_types_with_line_numbers():
    with pytest.raises(ConfigError, match="line 7: .*cutoff.*integer.*'2.5'"):
        parse_config(MINIMAL.replace("cutoff = 2", "cutoff = 2.5"))
    with pytest.raises(ConfigError, match="line 2: .*gamma1.*number"):
        parse_config(MINIMAL.replace("gamma1 = 0.20", "gamma1 = big"))
    with pytest.raises(ConfigError, match="line 3: expected 'key = value'"):
        parse_config("# header\n\ngamma1 0.2\n")


@pytest.mark.parametrize("raw", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("key", ["gamma1", "alpha_phase", "R_alpha"])
def test_non_finite_numbers_rejected_with_line_number(key, raw):
    # float() parses all three; a run would fail late or write NaN into JSON
    lines = [line for line in MINIMAL.splitlines() if not line.startswith(key)]
    lines.append(f"{key} = {raw}")
    match = rf"line {len(lines)}: value for '{key}' must be finite, got '{raw}'"
    with pytest.raises(ConfigError, match=match):
        parse_config("\n".join(lines) + "\n")


def test_duplicate_key_flagged():
    with pytest.raises(ConfigError, match=r"line 9: duplicate key 'eta'.*line 5"):
        parse_config(MINIMAL + "eta = 0.4\n")


def test_value_validation():
    with pytest.raises(ConfigError, match="order"):
        parse_config(MINIMAL.replace("order = exact", "order = fast"))
    with pytest.raises(ConfigError, match="eta"):
        parse_config(MINIMAL.replace("eta = 0.5", "eta = 0.0"))
    with pytest.raises(ConfigError, match="cutoff"):
        Config(cutoff=0)


def test_seed_tri_state():
    cfg = parse_config(MINIMAL.replace("seed = 7", "seed = none"))
    assert cfg.seed is None
    assert default_config().seed is None


def test_config_rejects_a_negative_seed_naming_it():
    with pytest.raises(ConfigError) as err:
        Config(seed=-1)
    assert str(err.value) == "seed must be >= 0, got -1"
    assert Config(seed=0).seed == 0
    # a file's seed line keeps its line number in the message
    with pytest.raises(ConfigError, match=r"line 8: value for 'seed' must be >= 0"):
        parse_config(MINIMAL.replace("seed = 7", "seed = -2"))


def test_format_parse_round_trip():
    cfg = Config(seed=3, alpha=0.21, order="pert")
    assert parse_config(format_config(cfg)) == cfg
    blank = default_config()
    assert parse_config(format_config(blank)) == blank


def test_load_config_from_file(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text(MINIMAL)
    assert load_config(str(p)).seed == 7
    with pytest.raises(ConfigError, match="cannot read config"):
        load_config(str(tmp_path / "absent.cfg"))
    bad = tmp_path / "bad.cfg"
    bad.write_text(MINIMAL + "gamma12 = 1\n")
    with pytest.raises(ConfigError, match=r"bad\.cfg: line 9"):
        load_config(str(bad))


def test_bridges_to_params_and_rates():
    cfg = parse_config(MINIMAL + "alpha = 0.18\nalpha_phase = 0.3\n")
    params = to_source_params(cfg)
    assert params.gamma1 == 0.20
    assert params.alpha_value == 0.18
    assert params.phi_alpha == 0.3
    assert params.order == "exact"
    model = to_rate_model(cfg)
    assert model.eta_d == 0.03
    assert model.projector_loss_factor == 4.0
