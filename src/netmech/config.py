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
all edges. Keys starting with an underscore are ignored (comments).
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .distributions import distribution_from_config
from .market import MarketParams, Network, Scenario, check_dense_size, make_network


class ConfigError(ValueError):
    """The scenario config file is malformed."""


def load_config(path) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"config {path} must be a JSON object")
    return cfg


def _value(block: dict, key: str, convert, what: str):
    """convert(block[key]); ConfigError naming the key when the value does not convert."""
    try:
        return convert(block[key])
    except (TypeError, ValueError):
        raise ConfigError(f"key {key!r} must be {what}, got {block[key]!r}") from None


def network_from_config(cfg: dict) -> Network:
    kind = str(cfg.get("kind", "")).lower()
    if not kind:
        raise ConfigError("network config needs a 'kind'")
    if kind == "hub":
        kind = "hub_plus_edge"
    weight = _value(cfg, "weight", float, "a number") if "weight" in cfg else 1.0
    if "n" not in cfg:
        raise ConfigError(f"network kind {kind!r} needs 'n'")
    n = _value(cfg, "n", int, "an integer")
    if n < 1:
        raise ConfigError(f"key 'n' must be at least 1, got {n}")
    try:
        check_dense_size(n)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    if kind == "edges":
        if not isinstance(cfg.get("edges"), list):
            raise ConfigError("network kind 'edges' needs an 'edges' list")
        w = np.zeros((n, n))
        for entry in cfg["edges"]:
            try:
                i, j, val = (*entry, 1.0) if len(entry) == 2 else entry
                i, j, val = int(i), int(j), float(val)
            except (TypeError, ValueError):
                raise ConfigError(f"edge entry {entry!r} must be [i, j] or [i, j, weight]") from None
            if not (0 <= i < n and 0 <= j < n) or i == j:
                raise ConfigError(f"edge ({i}, {j}) invalid for n={n}")
            w[i, j] = w[j, i] = val
    else:
        if kind == "random_k" and "seed" not in cfg:
            raise ConfigError("network kind 'random_k' needs 'seed'")
        try:
            seed = _value(cfg, "seed", int, "an integer") if "seed" in cfg else None
            w = make_network(kind, n, seed=seed).weights
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    w = w * weight  # the unscaled array is dropped before Network copies this one
    try:
        return Network(w)
    except ValueError as exc:
        raise ConfigError(f"bad network block: {exc}") from exc


def scenario_from_config(cfg: dict) -> Scenario:
    for key in ("params", "network", "distribution"):
        if key not in cfg:
            raise ConfigError(f"config missing required block {key!r}")
        if not isinstance(cfg[key], dict):
            raise ConfigError(f"config block {key!r} must be a JSON object, got {cfg[key]!r}")
    pcfg = cfg["params"]
    try:
        params = MarketParams(**{k: _value(pcfg, k, float, "a number") for k in "abstp"})
    except KeyError as exc:
        raise ConfigError(f"params block missing key {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"bad params block: {exc}") from exc
    network = network_from_config(cfg["network"])
    try:
        dist = distribution_from_config(cfg["distribution"])
    except ValueError as exc:
        raise ConfigError(f"bad distribution block: {exc}") from exc
    return Scenario(network, params, dist)
