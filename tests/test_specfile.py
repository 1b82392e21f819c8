"""JSON game-spec parsing: strict fields, helpful errors."""

import json

import pytest

from npdshare import load_game_spec, parse_game_spec
from npdshare.errors import DomainError


def _base(**overrides):
    obj = {
        "n_firms": 2,
        "gain": {"kind": "linear", "G": 3.0},
        "L": 1.0,
        "alpha": 0.9,
        "epsilon": 0.1,
        "delta": 0.9,
    }
    obj.update(overrides)
    return obj


def test_parse_minimal_spec():
    loaded = parse_game_spec(json.dumps(_base()), "inline")
    assert loaded.spec.n_firms == 2
    assert loaded.spec.gain.gain(2) == 6.0
    assert loaded.seed is None
    assert loaded.source == "inline"


def test_parse_concave_gain_and_seed():
    obj = _base(gain={"kind": "concave", "G": 2.0, "f": [0.0, 1.0, 1.8]},
                n_firms=3, seed=42)
    loaded = parse_game_spec(json.dumps(obj), "x")
    assert loaded.spec.gain.kind == "concave"
    assert abs(loaded.spec.gain.gain(2) - 3.6) < 1e-15
    assert loaded.seed == 42


def test_monitor_overrides_accepted():
    obj = _base(monitor_alpha=0.8, monitor_epsilon=0.2)
    spec = parse_game_spec(json.dumps(obj), "x").spec
    assert spec.m_alpha == 0.8 and spec.m_epsilon == 0.2


def test_syntax_error_reports_location():
    with pytest.raises(DomainError, match=r"line 1, column"):
        parse_game_spec('{"n_firms": 2,', "bad.json")


def test_unknown_field_rejected():
    with pytest.raises(DomainError, match="bogus"):
        parse_game_spec(json.dumps(_base(bogus=1)), "x")


def test_non_object_top_level_rejected():
    with pytest.raises(DomainError, match="top level"):
        parse_game_spec("[1, 2]", "x")


def test_nan_and_infinity_rejected():
    bad = '{"n_firms": 2, "gain": {"kind": "linear", "G": NaN}, ' \
          '"L": 1, "alpha": 0.9, "epsilon": 0.1, "delta": 0.9}'
    with pytest.raises(DomainError, match="non-finite"):
        parse_game_spec(bad, "x")
    with pytest.raises(DomainError, match="non-finite"):
        parse_game_spec(bad.replace("NaN", "Infinity"), "x")


def test_missing_field_names_it():
    obj = _base()
    del obj["delta"]
    with pytest.raises(DomainError, match="delta"):
        parse_game_spec(json.dumps(obj), "x")


def test_linear_gain_forbids_f():
    obj = _base(gain={"kind": "linear", "G": 3.0, "f": [0.0, 1.0]})
    with pytest.raises(DomainError, match="gain.f"):
        parse_game_spec(json.dumps(obj), "x")


def test_concave_gain_requires_f():
    obj = _base(gain={"kind": "concave", "G": 3.0})
    with pytest.raises(DomainError, match="f"):
        parse_game_spec(json.dumps(obj), "x")


def test_boolean_is_not_a_number():
    with pytest.raises(DomainError):
        parse_game_spec(json.dumps(_base(L=True)), "x")


def test_seed_bounds():
    assert parse_game_spec(json.dumps(_base(seed=0)), "x").seed == 0
    # Every seed of the package lies in [0, 2**64), as the draws take them.
    assert parse_game_spec(json.dumps(_base(seed=2**64 - 1)), "x").seed == 2**64 - 1
    with pytest.raises(DomainError):
        parse_game_spec(json.dumps(_base(seed=-1)), "x")
    with pytest.raises(DomainError):
        parse_game_spec(json.dumps(_base(seed=2**64)), "x")
    with pytest.raises(DomainError):
        parse_game_spec(json.dumps(_base(seed=1.5)), "x")


def test_domain_errors_carry_source_prefix():
    with pytest.raises(DomainError, match=r"^myfile\.json:"):
        parse_game_spec(json.dumps(_base(alpha=0.3)), "myfile.json")


def test_load_from_file(tmp_path):
    path = tmp_path / "game.json"
    path.write_text(json.dumps(_base(seed=5)))
    loaded = load_game_spec(str(path))
    assert loaded.seed == 5
    assert loaded.source == str(path)


def test_load_missing_file():
    with pytest.raises(DomainError, match="cannot read"):
        load_game_spec("/nonexistent/game.json")
