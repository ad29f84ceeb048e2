"""Scenario config files: JSON with params / network / distribution blocks.

Example::

    {
      "params": {"a": 0.5, "b": 6, "s": 1, "t": 1, "p": 0.1},
      "network": {"kind": "complete", "n": 5},
      "distribution": {"family": "uniform", "lower": 0.4, "upper": 0.8},
      "seed": 0
    }

Network kinds: complete | star | hub (alias hub_plus_edge) | random_k
(needs "seed") | edges (needs "n" and an "edges" list of [i, j] or
[i, j, weight] entries, stored symmetrically). An optional "weight" scales
all edges.

Distribution families, each on ["lower", "upper"]: uniform |
truncated_normal (params "mu", default 0, and "sigma", default 1) |
truncated_exponential (params "rate", default 1), the params given in an
optional "params" object. A missing key or a value that does not convert is
a ConfigError naming the block and the key; no number converts from a bool,
and an integer key ("n", "seed", an edge's endpoints) not from a fraction.
Keys starting with an underscore are ignored (comments).
"""

from __future__ import annotations

import json
from dataclasses import fields
from pathlib import Path

from .distributions import TruncatedExponential, TruncatedNormal, TypeDistribution, Uniform
from .market import MarketParams, Network, Scenario, make_network

_FAMILIES = {
    "uniform": Uniform,
    "truncated_normal": TruncatedNormal,
    "truncated_exponential": TruncatedExponential,
}


class ConfigError(ValueError):
    """The scenario config file is malformed."""


def load_config(path) -> dict:
    try:
        cfg = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:  # JSON text is UTF-8
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"config {path} must be a JSON object")
    return cfg


def as_int(value) -> int:
    """int(value), refusing what int() would truncate: a ValueError for a bool or a non-integral number."""
    if isinstance(value, bool) or isinstance(value, float) and not value.is_integer():
        raise ValueError(f"{value!r} is not an integer")
    return int(value)


def as_float(value) -> float:
    """float(value), refusing a bool: JSON's true and false are not numbers."""
    if isinstance(value, bool):
        raise ValueError(f"{value!r} is not a number")
    return float(value)


def _value(name: str, block: dict, key: str, convert=as_float, what: str = "a number"):
    """convert(block[key]), or a ConfigError naming the block and the key."""
    if key not in block:
        raise ConfigError(f"{name} missing key {key!r}")
    try:
        return convert(block[key])
    except (LookupError, TypeError, ValueError):
        raise ConfigError(f"{name}: key {key!r} must be {what}, got {block[key]!r}") from None


def _checked(build, name: str, *args, **kwargs):
    """build(*args, **kwargs), with its ValueError raised as a ConfigError naming the block."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"bad {name}: {exc}") from exc


def _block(cfg: dict, key: str) -> dict:
    if key not in cfg:
        raise ConfigError(f"config missing required block {key!r}")
    if not isinstance(cfg[key], dict):
        raise ConfigError(f"config block {key!r} must be a JSON object, got {cfg[key]!r}")
    return cfg[key]


def network_from_config(cfg: dict) -> Network:
    kind = _value("network block", cfg, "kind", str, "a string").lower()
    if kind == "hub":
        kind = "hub_plus_edge"
    weight = _value("network block", cfg, "weight") if "weight" in cfg else 1.0
    n = _value("network block", cfg, "n", as_int, "an integer")
    edges = []
    if kind == "edges":
        if not isinstance(cfg.get("edges"), list):
            raise ConfigError("network kind 'edges' needs an 'edges' list")
        for entry in cfg["edges"]:
            try:
                i, j, val = (*entry, 1.0) if len(entry) == 2 else entry
                edges.append((as_int(i), as_int(j), as_float(val)))
            except (TypeError, ValueError):
                raise ConfigError(f"edge entry {entry!r} must be [i, j] or [i, j, weight]") from None
    seed = _value("network block", cfg, "seed", as_int, "an integer") if "seed" in cfg else None
    # market refuses an n under 1 or over the dense budget, then builds, scales and checks the one
    # weight array
    return _checked(make_network, "network block", kind, n, seed, edges=edges, weight=weight)


def distribution_from_config(cfg: dict) -> TypeDistribution:
    """Build a type law from a distribution block ``{family, lower, upper, params}``."""
    cls = _value("distribution block", cfg, "family",
                 lambda family: _FAMILIES[str(family).lower()], f"one of {sorted(_FAMILIES)}")
    bounds = {key: _value("distribution block", cfg, key) for key in ("lower", "upper")}
    params = cfg.get("params", {})
    known = sorted(f.name for f in fields(cls) if f.name not in bounds)
    if not isinstance(params, dict):
        raise ConfigError(f"distribution params must be an object with keys from {known}")
    for key in params:
        if key not in known:
            raise ConfigError(f"unknown parameter {key!r} of family {cfg['family']!r}; "
                              f"expected one of {known}")
    values = {key: _value("distribution params", params, key) for key in params}
    return _checked(cls, "distribution block", **bounds, **values)


def params_from_config(cfg: dict) -> tuple[MarketParams, TypeDistribution]:
    """The market scalars and the type law: the blocks a run reads besides the network."""
    block = _block(cfg, "params")
    values = {key: _value("params block", block, key) for key in "abstp"}
    params = _checked(MarketParams, "params block", **values)
    return params, distribution_from_config(_block(cfg, "distribution"))


def scenario_from_config(cfg: dict) -> Scenario:
    params, dist = params_from_config(cfg)
    return Scenario(network_from_config(_block(cfg, "network")), params, dist)
