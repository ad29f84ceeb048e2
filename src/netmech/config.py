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
from .market import MarketParams, Network, Scenario, make_network


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


def network_from_config(cfg: dict) -> Network:
    kind = str(cfg.get("kind", "")).lower()
    if not kind:
        raise ConfigError("network config needs a 'kind'")
    if kind == "hub":
        kind = "hub_plus_edge"
    weight = float(cfg.get("weight", 1.0))
    if kind == "edges":
        if "n" not in cfg or "edges" not in cfg:
            raise ConfigError("network kind 'edges' needs 'n' and an 'edges' list")
        n = int(cfg["n"])
        w = np.zeros((n, n))
        for entry in cfg["edges"]:
            if len(entry) == 2:
                i, j = entry
                val = 1.0
            elif len(entry) == 3:
                i, j, val = entry
            else:
                raise ConfigError(f"edge entry {entry!r} must be [i, j] or [i, j, weight]")
            i, j = int(i), int(j)
            if not (0 <= i < n and 0 <= j < n) or i == j:
                raise ConfigError(f"edge ({i}, {j}) invalid for n={n}")
            w[i, j] = w[j, i] = float(val)
    else:
        try:
            w = make_network(kind, int(cfg["n"]), seed=cfg.get("seed")).weights
        except KeyError:
            raise ConfigError(f"network kind {kind!r} needs 'n'") from None
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    try:
        return Network(w * weight)
    except ValueError as exc:
        raise ConfigError(f"bad network block: {exc}") from exc


def scenario_from_config(cfg: dict) -> Scenario:
    for key in ("params", "network", "distribution"):
        if key not in cfg:
            raise ConfigError(f"config missing required block {key!r}")
    pcfg = cfg["params"]
    try:
        params = MarketParams(
            a=float(pcfg["a"]),
            b=float(pcfg["b"]),
            s=float(pcfg["s"]),
            t=float(pcfg["t"]),
            p=float(pcfg["p"]),
        )
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


def load_scenario(path) -> Scenario:
    return scenario_from_config(load_config(path))
