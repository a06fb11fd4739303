"""Experiment configuration: JSON schema, defaults, loading, canonical hashing.

Configs are strict: unknown keys are rejected before any computation, and
every output file embeds the normalized config plus its hash so a result can
be regenerated bitwise from its own header.
"""

from __future__ import annotations

import copy
import hashlib
import json
from dataclasses import dataclass

import jsonschema

from .detect import DetectorKind
from .mismatch import VARIANTS, MismatchSpec, wishart_dof
from .scenario import ScenarioCfg


class ConfigError(ValueError):
    """Invalid experiment configuration (schema or semantic)."""


SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "scenario": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "n": {"type": "integer", "minimum": 2},
                "k": {"type": "integer", "minimum": 2},
                "cnr_db": {"type": "number"},
                "rho1": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1},
                "fd": {"type": "number"},
            },
        },
        "mismatch": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "variant": {"enum": list(VARIANTS)},
                "delta_db": {"type": "number", "minimum": 0},
                "nu": {"type": "integer", "minimum": 2},
                "nu1": {"type": "integer", "minimum": 2},
                "m2": {"type": "integer", "minimum": 2},
                "pin_psi22": {"type": "number", "exclusiveMinimum": 0},
            },
        },
        "detectors": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "object",
                "additionalProperties": False,
                "properties": {
                    "kind": {"enum": ["kelly", "amf", "kalson"]},
                    "kappa": {"type": "number", "exclusiveMinimum": 0},
                },
                "required": ["kind"],
            },
        },
        "clairvoyant_c": {
            "type": "array",
            "items": {"type": "number", "exclusiveMinimum": 0},
        },
        "seed": {"type": "integer", "minimum": 0, "maximum": 2**64 - 1},
        "n_draws": {"type": "integer", "minimum": 1},
        "n_cdf_draws": {"type": "integer", "minimum": 1},
        "trials": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "calibration": {"type": "integer", "minimum": 1000},
                "pfa": {"type": "integer", "minimum": 100},
                "pd": {"type": "integer", "minimum": 100},
                "cdf_samples": {"type": "integer", "minimum": 100},
            },
        },
        "pfa_target": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1},
        "pd_target": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1},
        "out_dir": {"type": "string", "minLength": 1},
    },
}

DEFAULTS = {
    "scenario": {"n": 16, "k": 32, "cnr_db": 20.0, "rho1": 0.95, "fd": 0.08},
    "mismatch": {"variant": "identity", "delta_db": 6.0},
    "detectors": [{"kind": "kelly"}, {"kind": "amf"}],
    "clairvoyant_c": [],
    "seed": 12345,
    "n_draws": 50,
    "n_cdf_draws": 10,
    "trials": {"calibration": 10_000_000, "pfa": 1_000_000, "pd": 100_000, "cdf_samples": 20_000},
    "pfa_target": 1e-3,
    "pd_target": 0.7,
    "out_dir": "results",
}


@dataclass(frozen=True)
class Trials:
    calibration: int
    pfa: int
    pd: int
    cdf_samples: int


@dataclass(frozen=True)
class RunConfig:
    scenario: ScenarioCfg
    mismatch: MismatchSpec
    detectors: tuple[DetectorKind, ...]
    clairvoyant_c: tuple[float, ...]
    seed: int
    n_draws: int
    n_cdf_draws: int
    trials: Trials
    pfa_target: float
    pd_target: float
    out_dir: str
    normalized: dict


def normalize(user: dict) -> dict:
    """Schema-validate a raw config dict and fill defaults (one level deep)."""
    try:
        jsonschema.validate(user, SCHEMA)
    except jsonschema.ValidationError as exc:
        where = "/".join(str(p) for p in exc.absolute_path) or "(top level)"
        raise ConfigError(f"config invalid at {where}: {exc.message}") from exc
    merged = copy.deepcopy(DEFAULTS)
    for key, val in user.items():
        if isinstance(val, dict):
            merged[key].update(val)
        else:
            merged[key] = copy.deepcopy(val)
    return merged


def from_dict(user: dict) -> RunConfig:
    """Build a validated RunConfig from a raw dict."""
    norm = normalize(user)
    try:
        scenario = ScenarioCfg(**norm["scenario"])
        mismatch = MismatchSpec(**norm["mismatch"])
        wishart_dof(mismatch, scenario.n)  # raises here, not on every draw, when too small
        detectors = tuple(DetectorKind(d["kind"], d.get("kappa")) for d in norm["detectors"])
        trials = Trials(**norm["trials"])
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    return RunConfig(
        scenario=scenario,
        mismatch=mismatch,
        detectors=detectors,
        clairvoyant_c=tuple(float(c) for c in norm["clairvoyant_c"]),
        seed=norm["seed"],
        n_draws=norm["n_draws"],
        n_cdf_draws=norm["n_cdf_draws"],
        trials=trials,
        pfa_target=norm["pfa_target"],
        pd_target=norm["pd_target"],
        out_dir=norm["out_dir"],
        normalized=norm,
    )


def load_user_dict(path: str) -> dict:
    """Read a JSON config file into a raw dict (not yet validated)."""
    try:
        with open(path, encoding="utf-8") as fh:
            user = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(user, dict):
        raise ConfigError(f"config {path} must hold a JSON object")
    return user


def canonical_json(norm: dict) -> str:
    """Key-sorted, whitespace-free rendering used for hashing and embedding."""
    return json.dumps(norm, sort_keys=True, separators=(",", ":"))


def config_hash(norm: dict) -> str:
    return hashlib.sha256(canonical_json(norm).encode("utf-8")).hexdigest()
