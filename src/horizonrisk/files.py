"""JSON file formats: trees, markets, policies, policy spaces, operators.

A market file extends a tree file:

    {"T": 3, "nodes": [{"id": "r", "time": 0, "parent": null, "p": null}, ...],
     "d": 1, "v0": 0.0, "prices": {"r": [20.0], ...}}

A policy is {"label": ..., "alloc": {node-id: [floats]}} on the times
0..T-1 nodes. A space file is either {"policies": [policy, ...]} or
{"stopping_space_of": policy}. An operator config is {"kind": "linear"}
or {"kind": "entropic", "gamma": g, "kappa": k} where "kappa" may be the
string "paper10" for the base-10 preset, or be omitted to default to
gamma.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Mapping

from .errors import DimensionError, HorizonRiskError
from .expectations import PAPER10_KAPPA, ExpectationOperator
from .market import AdaptedProcess, MarketModel, Policy, PolicySpace, stopping_time_space
from .tree import ScenarioTree, Slice, _integer, build_tree


def _as_mapping(source) -> Mapping:
    if isinstance(source, Mapping):
        return source
    path = Path(source)
    try:
        with path.open() as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(data, Mapping):
        raise ValueError(f"{path} must contain a JSON object")
    return data


def _number(raw, what: str) -> float:
    try:
        return float(raw)
    except (TypeError, ValueError):
        raise ValueError(f"{what} must be a number, got {raw!r}") from None


def _numbers(raw, what: str) -> tuple[float, ...]:
    """The numbers of a list entry; `what` names the entry in the error."""
    try:
        return tuple(float(x) for x in raw)
    except (TypeError, ValueError):
        raise ValueError(f"{what} must be a list of numbers, got {raw!r}") from None


def load_tree(source) -> ScenarioTree:
    return build_tree(_as_mapping(source))


def load_market(source) -> MarketModel:
    data = _as_mapping(source)
    tree = build_tree(data)
    try:
        d = _integer(data["d"], "key 'd'")
        raw_prices = data["prices"]
    except KeyError as exc:
        raise ValueError(f"market file is missing {exc}") from exc
    except (TypeError, ValueError):
        raise ValueError(f"market file key 'd' must be an integer, got {data['d']!r}") from None
    v0 = _number(data.get("v0", 0.0), "market file key 'v0'")
    if not isinstance(raw_prices, Mapping):
        raise ValueError("market file key 'prices' must be an object {node: [numbers]}")
    slices = {}
    for t in range(tree.horizon + 1):
        vals = {}
        for nid in tree.nodes_at(t):
            if nid not in raw_prices:
                raise ValueError(f"market file has no price for node {nid!r}")
            vec = _numbers(raw_prices[nid], f"price at node {nid!r}")
            if len(vec) != d:
                raise DimensionError(
                    f"price at node {nid!r} has {len(vec)} components, expected {d}"
                )
            vals[nid] = vec
        slices[t] = Slice.from_map(t, vals)
    return MarketModel(tree, d, AdaptedProcess(slices), v0)


def load_policy(data: Mapping, tree: ScenarioTree, num_assets: int) -> Policy:
    if not isinstance(data, Mapping):
        raise ValueError(f"a policy entry must be an object, got {data!r}")
    try:
        alloc = data["alloc"]
    except KeyError as exc:
        raise ValueError("policy entry is missing 'alloc'") from exc
    label = str(data.get("label", "policy"))
    if not isinstance(alloc, Mapping):
        raise ValueError(f"policy {label!r} key 'alloc' must be an object {{node: [numbers]}}")
    maps = {}
    for t in range(tree.horizon):
        vals = {}
        for nid in tree.nodes_at(t):
            if nid not in alloc:
                raise ValueError(f"policy {label!r} has no allocation at node {nid!r}")
            vec = _numbers(alloc[nid], f"policy {label!r} at node {nid!r}")
            if len(vec) != num_assets:
                raise ValueError(
                    f"policy {label!r} at node {nid!r} has {len(vec)} components, expected {num_assets}"
                )
            vals[nid] = vec
        maps[t] = vals
    return Policy.from_maps(label, maps)


def load_space(source, tree: ScenarioTree, num_assets: int) -> PolicySpace:
    data = _as_mapping(source)
    if "stopping_space_of" in data:
        if not isinstance(data["stopping_space_of"], Mapping):
            raise ValueError("space file key 'stopping_space_of' must be a policy object")
        base = load_policy(data["stopping_space_of"], tree, num_assets)
        return stopping_time_space(tree, base)
    if "policies" in data:
        if not isinstance(data["policies"], list):
            raise ValueError("space file key 'policies' must be a list of policy objects")
        members = tuple(load_policy(p, tree, num_assets) for p in data["policies"])
        if not members:
            raise ValueError("space file lists no policies")
        return PolicySpace.from_policies(members, label=str(data.get("label", "space")))
    raise ValueError("space file needs either 'policies' or 'stopping_space_of'")


def load_operator(source) -> ExpectationOperator:
    data = _as_mapping(source)
    kind = data.get("kind")
    if kind == "linear":
        return ExpectationOperator.linear()
    if kind == "entropic":
        gamma = _number(data.get("gamma", 10.0), "operator key 'gamma'")
        kappa = data.get("kappa")
        if kappa is None:
            return ExpectationOperator.entropic(gamma)
        if kappa == "paper10":
            return ExpectationOperator.entropic(gamma, PAPER10_KAPPA)
        return ExpectationOperator.entropic(gamma, _number(kappa, "operator key 'kappa'"))
    raise ValueError(f"unknown operator kind {kind!r}")


__all__ = [
    "load_tree",
    "load_market",
    "load_policy",
    "load_space",
    "load_operator",
    "HorizonRiskError",
]
