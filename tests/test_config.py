"""Config key table, defaults, strictness, and canonical hashing."""

import json

import pytest

from cfarmismatch.cli import main
from cfarmismatch.config import (
    DEFAULTS,
    ConfigError,
    canonical_json,
    config_hash,
    from_dict,
    load_user_dict,
)
from cfarmismatch.mismatch import MismatchSpec


def test_empty_config_gets_defaults():
    norm = from_dict({}).normalized
    assert norm == DEFAULTS
    assert norm is not DEFAULTS


def test_normalize_merges_nested_sections():
    norm = from_dict({"scenario": {"n": 8}, "trials": {"pfa": 5000}}).normalized
    assert norm["scenario"]["n"] == 8
    assert norm["scenario"]["k"] == 32
    assert norm["trials"]["pfa"] == 5000
    assert norm["trials"]["pd"] == 100_000


def test_normalize_does_not_mutate_input_or_defaults():
    user = {"scenario": {"n": 8}}
    from_dict(user)
    assert user == {"scenario": {"n": 8}}
    assert DEFAULTS["scenario"]["n"] == 16


@pytest.mark.parametrize(
    "bad",
    [
        {"unknown_key": 1},
        {"scenario": {"n": 16, "extra": 2}},
        {"mismatch": {"variant": "identity", "bogus": 1}},
        {"trials": {"warmup": 10}},
        {"detectors": [{"kind": "kelly", "threshold": 0.5}]},
    ],
)
def test_unknown_keys_rejected(bad):
    with pytest.raises(ConfigError, match="config invalid at "):
        from_dict(bad)


@pytest.mark.parametrize(
    "bad",
    [
        {"mismatch": {"variant": "wishart"}},
        {"detectors": []},
        {"detectors": [{"kappa": 2.0}]},
        {"detectors": [{"kind": "glrt"}]},
        {"scenario": {"rho1": 1.0}},
        {"scenario": {"n": 1}},
        {"pfa_target": 0.0},
        {"pfa_target": 1.5},
        {"seed": -1},
        {"clairvoyant_c": [1.0, 0.0]},
        {"out_dir": ""},
        {"trials": {"calibration": 10}},
        {"scenario": {"n": 16.5}},
        {"n_draws": True},
        {"scenario": []},
        {"detectors": [{"kind": "kelly", "kappa": "2"}]},
        {"scenario": {"cnr_db": 10**400}},
    ],
)
def test_schema_rejects_bad_values(bad):
    with pytest.raises(ConfigError, match="config invalid at "):
        from_dict(bad)


def test_error_message_names_the_location():
    with pytest.raises(ConfigError, match="scenario"):
        from_dict({"scenario": {"n": 1}})
    with pytest.raises(ConfigError, match=r"\(top level\)"):
        from_dict({"unknown_key": 1})


def test_from_dict_builds_typed_config():
    cfg = from_dict(
        {
            "mismatch": {"variant": "inv_wishart", "delta_db": 3.0, "nu": 48},
            "detectors": [{"kind": "kelly"}, {"kind": "kalson", "kappa": 2.0}],
            "clairvoyant_c": [1, 2.5],
            "seed": 7,
        }
    )
    assert cfg.scenario.n == 16 and cfg.scenario.k == 32
    assert cfg.mismatch.variant == "inv_wishart"
    assert cfg.mismatch.nu == 48
    assert [d.kind for d in cfg.detectors] == ["kelly", "kalson"]
    assert cfg.detectors[1].kappa == 2.0
    assert cfg.clairvoyant_c == (1.0, 2.5)
    assert isinstance(cfg.clairvoyant_c[0], float)
    assert cfg.seed == 7
    assert cfg.normalized["seed"] == 7


@pytest.mark.parametrize("n,mismatch,ok", [
    (16, {"variant": "inv_wishart", "nu": 16}, False),
    (16, {"variant": "inv_wishart", "nu": 17}, True),
    (8, {"variant": "inv_wishart", "nu": 10}, True),
    (16, {"variant": "ger_chol", "nu1": 15}, False),
    (16, {"variant": "ger_chol", "nu1": 16}, True),
    (2, {"variant": "ger_chol"}, True),
])
def test_wishart_dof_bound_follows_the_scenario_size(n, mismatch, ok):
    user = {"scenario": {"n": n, "k": 2 * n}, "mismatch": mismatch}
    if ok:
        assert from_dict(user).mismatch == MismatchSpec(**mismatch)
    else:
        with pytest.raises(ConfigError, match=f"{mismatch['variant']} needs"):
            from_dict(user)


def test_numbers_are_stored_as_their_field_type(tmp_path):
    # 16.0 in an integer field is 16, and 20 in a float field is 20.0, so one
    # experiment has one hash however its numbers are spelled.
    cfg = from_dict({"scenario": {"n": 16.0, "cnr_db": 20}})
    assert type(cfg.scenario.n) is int and cfg.scenario.n == 16
    assert type(cfg.scenario.cnr_db) is float
    seven = from_dict({"seed": 7}).normalized
    assert config_hash(from_dict({"seed": 7.0}).normalized) == config_hash(seven)
    assert config_hash(from_dict({"scenario": {"n": 16.0, "cnr_db": 20}}).normalized) == config_hash(DEFAULTS)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"scenario": {"n": 16.0}, "detectors": [{"kind": "kelly"}],
                                "pfa_target": 1e-2, "trials": {"calibration": 10_000}}))
    assert main(["calibrate", "--config", str(path), "--out", str(tmp_path / "res"),
                 "--workers", "1"]) == 0


@pytest.mark.parametrize("bad", [{"scenario": {"n": 16.5}}, {"n_draws": True}, {"seed": 7.5}])
def test_mistyped_integer_is_config_error_before_any_output(tmp_path, capsys, bad):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(bad))
    out = tmp_path / "res"
    assert main(["calibrate", "--config", str(path), "--out", str(out), "--workers", "1"]) == 1
    assert "expected an integer" in capsys.readouterr().err
    assert not out.exists()


def test_kalson_without_kappa_is_config_error():
    with pytest.raises(ConfigError, match="kappa"):
        from_dict({"detectors": [{"kind": "kalson"}]})


def test_kelly_with_kappa_is_config_error():
    with pytest.raises(ConfigError, match="kappa"):
        from_dict({"detectors": [{"kind": "kelly", "kappa": 2.0}]})


def test_semantic_scenario_error_becomes_config_error():
    # Every value has its JSON type, but ScenarioCfg needs k >= n.
    with pytest.raises(ConfigError):
        from_dict({"scenario": {"n": 16, "k": 12}})


def test_canonical_json_is_sorted_and_compact():
    text = canonical_json({"b": 1, "a": {"d": 2, "c": [1, 2]}})
    assert text == '{"a":{"c":[1,2],"d":2},"b":1}'


def test_config_hash_ignores_key_order():
    n1 = from_dict({"seed": 3, "scenario": {"n": 8, "k": 24}}).normalized
    n2 = from_dict({"scenario": {"k": 24, "n": 8}, "seed": 3}).normalized
    assert config_hash(n1) == config_hash(n2)
    assert len(config_hash(n1)) == 64
    int(config_hash(n1), 16)


def test_config_hash_sensitive_to_values():
    n1 = from_dict({"seed": 3}).normalized
    n2 = from_dict({"seed": 4}).normalized
    assert config_hash(n1) != config_hash(n2)


def test_seed_must_fit_in_64_bits(tmp_path):
    # Stream keys mask the seed to 64 bits, so a larger seed would silently
    # replay another seed's streams under a different config hash.
    assert from_dict({"seed": 2**64 - 1}).normalized["seed"] == 2**64 - 1
    with pytest.raises(ConfigError, match="seed"):
        from_dict({"seed": 2**64})
    assert main(["calibrate", "--out", str(tmp_path), "--seed", str(2**64)]) == 1


def test_load_config_round_trip(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"seed": 99, "mismatch": {"variant": "eig_jitter"}}))
    cfg = from_dict(load_user_dict(str(path)))
    assert cfg.seed == 99
    assert cfg.mismatch.variant == "eig_jitter"


def test_load_user_dict_missing_file():
    with pytest.raises(ConfigError, match="cannot read"):
        load_user_dict("/nonexistent/cfg.json")


def test_load_user_dict_bad_json(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_user_dict(str(path))


def test_load_user_dict_non_object(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text("[1, 2, 3]")
    with pytest.raises(ConfigError, match="JSON object"):
        load_user_dict(str(path))


def test_config_error_is_value_error():
    assert issubclass(ConfigError, ValueError)
