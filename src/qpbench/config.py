"""Run configuration: strict JSON schema, defaults and content hashing.

Configs are single JSON documents.  Parsing is strict: unknown keys are
rejected with their full field path, and every numeric field is checked to be
finite and in range before any computation starts.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path


class ConfigError(ValueError):
    """Invalid run configuration; the message carries the offending field path."""


def _number(lo=None, hi=None, lo_open=False, integer=False):
    def check(value, path):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{path}: expected a number, got {value!r}")
        if isinstance(value, float) and not math.isfinite(value):  # json reads NaN, Infinity
            raise ConfigError(f"{path}: expected a finite number, got {value!r}")
        if integer and not isinstance(value, int):
            raise ConfigError(f"{path}: expected an integer, got {value!r}")
        if lo is not None and (value <= lo if lo_open else value < lo):
            op = ">" if lo_open else ">="
            raise ConfigError(f"{path}: must be {op} {lo}, got {value!r}")
        if hi is not None and value > hi:
            raise ConfigError(f"{path}: must be <= {hi}, got {value!r}")
        return int(value) if integer else float(value)

    return check


def _choice(*options):
    def check(value, path):
        if value not in options:
            raise ConfigError(f"{path}: expected one of {options}, got {value!r}")
        return value

    return check


def _boolean(value, path):
    if not isinstance(value, bool):
        raise ConfigError(f"{path}: expected true/false, got {value!r}")
    return value


def _int_list(lo=None, forbid_zero=False):
    def check(value, path):
        if not isinstance(value, list) or not value:
            raise ConfigError(f"{path}: expected a nonempty list of integers")
        out = []
        for i, item in enumerate(value):
            if isinstance(item, bool) or not isinstance(item, int):
                raise ConfigError(f"{path}[{i}]: expected an integer, got {item!r}")
            if lo is not None and item < lo:
                raise ConfigError(f"{path}[{i}]: must be >= {lo}, got {item}")
            if forbid_zero and item == 0:
                raise ConfigError(f"{path}[{i}]: zero is not allowed")
            out.append(item)
        return out

    return check


# (validator, default) per field; nested dicts nest the schema
_SCHEMA = {
    "seed": (_number(lo=0, integer=True), 0),
    "system": {
        "kind": (_choice("soft_coulomb"), "soft_coulomb"),
        "points": (_number(lo=8, integer=True), 16),
        "spacing": (_number(lo=0, lo_open=True), 0.5),
        "well_depth": (_number(), 2.0),
        "softening": (_number(lo=0, lo_open=True), 1.0),
        "electrons": (_number(lo=1, integer=True), 2),
        "boundary": (_choice("box", "periodic"), "box"),
        "kpoints": (_number(lo=1, integer=True), 8),
        "wells": (_number(lo=1, integer=True), 1),
    },
    "scf": {
        "tol": (_number(lo=0, lo_open=True), 1e-10),
        "max_iter": (_number(lo=1, integer=True), 500),
    },
    "oracle": {
        "enabled": (_boolean, True),
        "orbital_cutoff": (_number(lo=1, integer=True), 8),
    },
    "quasiparticle": {
        "enabled": (_boolean, True),
        "band": (_number(lo=0, integer=True), 0),
        "extremum": (_choice("min", "max"), "min"),
        "offset_constant": (_number(), 0.0),
    },
    "self_energy": {
        "kind": (_choice("zero", "constant", "cosine"), "zero"),
        "scale": (_number(), 0.0),
    },
    "dyson": {
        "enabled": (_boolean, True),
        "count": (_number(lo=2, integer=True), 2000),
        "pad": (_number(lo=0), 1.0),
        "eta": (_number(lo=0, lo_open=True), 1e-3),
    },
    "spectrum": {
        "enabled": (_boolean, True),
        "mass": (_number(lo=0, lo_open=True), 1.0),
        "gamma": (_number(lo=0, hi=0.999999), 0.1),
        "n_values": (_int_list(lo=1), [1, 2, 3, 5, 10, 100]),
        "k_values": (_int_list(forbid_zero=True), [1, 2]),
    },
}


def _validate_level(raw: dict, schema: dict, path: str) -> dict:
    out = {}
    for key in raw:
        if key not in schema:
            raise ConfigError(f"unknown key {path}{key!r}")
    for key, spec in schema.items():
        here = f"{path}{key}"
        if isinstance(spec, dict):
            sub = raw.get(key, {})
            if not isinstance(sub, dict):
                raise ConfigError(f"{here}: expected a mapping, got {sub!r}")
            out[key] = _validate_level(sub, spec, here + ".")
        else:
            validator, default = spec
            if key in raw:
                out[key] = validator(raw[key], here)
            else:
                out[key] = default
    return out


def validate_config(raw: dict) -> dict:
    if not isinstance(raw, dict):
        raise ConfigError("top level of the config must be a mapping")
    data = _validate_level(raw, _SCHEMA, "")
    sysconf = data["system"]
    if sysconf["electrons"] != 1 and sysconf["electrons"] % 2 != 0:
        raise ConfigError("system.electrons: closed shell requires 1 or an even count")
    if data["oracle"]["enabled"]:
        if sysconf["electrons"] > 4:
            raise ConfigError("oracle.enabled: the exact oracle supports at most 4 electrons")
        if data["oracle"]["orbital_cutoff"] > sysconf["points"]:
            raise ConfigError("oracle.orbital_cutoff: cannot exceed system.points")
    return data


@dataclass(frozen=True)
class RunConfig:
    """Validated run configuration with all defaults filled in."""

    data: dict

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        return cls(data=validate_config(raw))

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        text = Path(path).read_text()
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        return cls.from_dict(raw)

    def __getitem__(self, key: str):
        return self.data[key]

    def canonical(self) -> str:
        return json.dumps(self.data, sort_keys=True, separators=(",", ":"))

    def hash(self) -> str:
        return hashlib.sha256(self.canonical().encode()).hexdigest()[:16]


def system_hash(snapshot: dict) -> str:
    """Content hash of a system snapshot, for keying oracle records."""
    canon = json.dumps(snapshot, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]
