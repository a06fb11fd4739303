"""Experiment configuration: key table, defaults, loading, canonical hashing.

Configs are checked before any computation. One table gives every key its
type, and each number is stored as its field's type (16.0 in an integer field
is 16), so one experiment has one hash. Ranges and enums are checked by the
typed objects the config builds, run-level rules by ``from_dict``. Every
output file embeds the normalized config plus its hash so a result can be
regenerated bitwise from its own header.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
from dataclasses import dataclass

from .detect import DetectorKind
from .mcengine import calibration_trials
from .mismatch import MismatchSpec, wishart_dof
from .scenario import ScenarioCfg


class ConfigError(ValueError):
    """Invalid experiment configuration; the message names where in the config
    (``scenario``, ``detectors/0``, ``(top level)``)."""


# Every key and its type: a dict is a section, a one-item list an array of that item.
_KEYS = {
    "scenario": {"n": int, "k": int, "cnr_db": float, "rho1": float, "fd": float},
    "mismatch": {"variant": str, "delta_db": float, "nu": int, "nu1": int, "m2": int,
                 "pin_psi22": float},
    "detectors": [{"kind": str, "kappa": float}],
    "clairvoyant_c": [float],
    "seed": int, "n_draws": int, "n_cdf_draws": int,
    "trials": {"calibration": int, "pfa": int, "pd": int, "cdf_samples": int},
    "pfa_target": float, "pd_target": float, "out_dir": str,
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

    def __post_init__(self):
        for name, floor in (("calibration", 1000), ("pfa", 100), ("pd", 100), ("cdf_samples", 100)):
            if getattr(self, name) < floor:
                raise ValueError(f"{name} must be >= {floor}, got {getattr(self, name)}")


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


def _invalid(path: tuple, message) -> ConfigError:
    where = "/".join(str(p) for p in path) or "(top level)"
    return ConfigError(f"config invalid at {where}: {message}")


def _typed(val, spec, path: tuple = ()):
    """``val`` checked against its ``_KEYS`` entry, each number as its field's type."""
    if isinstance(spec, dict):
        if not isinstance(val, dict):
            raise _invalid(path, f"expected an object, got {val!r}")
        unknown = sorted(set(val) - set(spec))
        if unknown:
            raise _invalid(path, f"unknown keys {unknown}")
        return {key: _typed(item, spec[key], (*path, key)) for key, item in val.items()}
    if isinstance(spec, list):
        if not isinstance(val, list):
            raise _invalid(path, f"expected an array, got {val!r}")
        return [_typed(item, spec[0], (*path, i)) for i, item in enumerate(val)]
    number = isinstance(val, (int, float)) and not isinstance(val, bool)
    ok = (isinstance(val, str) if spec is str
          else number and (spec is float or isinstance(val, int) or val.is_integer()))
    if not ok:
        name = {str: "a string", int: "an integer", float: "a number"}[spec]
        raise _invalid(path, f"expected {name}, got {val!r}")
    try:
        val = spec(val)
    except OverflowError:
        raise _invalid(path, f"{val!r} is out of range") from None
    if spec is float and not math.isfinite(val):
        raise _invalid(path, f"must be finite, got {val!r}")
    return val


def _build(path: tuple, make, *args, **kwargs):
    """``make(*args, **kwargs)``, whose TypeError or ValueError names ``path``."""
    try:
        return make(*args, **kwargs)
    except (TypeError, ValueError) as exc:
        raise _invalid(path, exc) from exc


def _require(path: tuple, ok: bool, rule: str) -> None:
    if not ok:
        raise _invalid(path, rule)


def from_dict(user: dict) -> RunConfig:
    """Build a validated RunConfig from a raw dict; defaults fill the keys it omits."""
    norm = copy.deepcopy(DEFAULTS)
    for key, val in _typed(user, _KEYS).items():
        norm[key] = {**norm[key], **val} if isinstance(val, dict) else val
    scenario = _build(("scenario",), ScenarioCfg, **norm["scenario"])
    mismatch = _build(("mismatch",), MismatchSpec, **norm["mismatch"])
    _build(("mismatch",), wishart_dof, mismatch, scenario.n)  # here, not on every draw
    detectors = tuple(_build(("detectors", i), DetectorKind, **d)
                      for i, d in enumerate(norm["detectors"]))
    trials = _build(("trials",), Trials, **norm["trials"])
    _require(("detectors",), len(detectors) > 0, "need at least one detector")
    for i, c in enumerate(norm["clairvoyant_c"]):
        _require(("clairvoyant_c", i), c > 0, f"must be positive, got {c}")
    _require(("seed",), 0 <= norm["seed"] < 2**64, f"must be in [0, 2^64), got {norm['seed']}")
    for key in ("n_draws", "n_cdf_draws"):
        _require((key,), norm[key] >= 1, f"must be >= 1, got {norm[key]}")
    for key in ("pfa_target", "pd_target"):
        _require((key,), 0 < norm[key] < 1, f"must be in (0, 1), got {norm[key]}")
    _require(("pd_target",), norm["pd_target"] > norm["pfa_target"],
             f"must exceed pfa_target={norm['pfa_target']}, got {norm['pd_target']}")
    need = calibration_trials(norm["pfa_target"])
    _require(("trials", "calibration"), trials.calibration >= need,
             f"trials.calibration={trials.calibration} is too small for "
             f"pfa_target={norm['pfa_target']}; need >= {need}")
    _require(("out_dir",), norm["out_dir"] != "", "must not be empty")
    return RunConfig(
        scenario=scenario, mismatch=mismatch, detectors=detectors, trials=trials,
        clairvoyant_c=tuple(norm["clairvoyant_c"]), normalized=norm,
        **{key: norm[key] for key in ("seed", "n_draws", "n_cdf_draws", "pfa_target",
                                      "pd_target", "out_dir")},
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
