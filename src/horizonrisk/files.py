"""JSON file formats: trees, markets, policies and policy spaces.

A market file extends a tree file:

    {"T": 3, "nodes": [{"id": "r", "time": 0, "parent": null, "p": null}, ...],
     "d": 1, "v0": 0.0, "prices": {"r": [20.0], ...}}

A policy is {"label": ..., "alloc": {node-id: [floats]}} on the times
0..T-1 nodes. A space file holds exactly one of {"policies": [policy, ...]}
and {"stopping_space_of": policy}. `load_payoff` reads a Bellman payoff
file, {"coefficients": {node-id: [floats]}} or the bare map.

A number is anything float() reads except a boolean: `tree._number` reads
every one, and `tree._integer` every integer. A vector is a JSON array of
exactly d finite numbers; `_node_vectors` reads every {node: [numbers]}
section (prices, allocations, payoff coefficients), and refuses in each a
key that is not a node of the tree. Allocations and payoffs ignore time-T
keys. Each error is a ValueError that names its key or node.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Mapping

from .market import AdaptedProcess, MarketModel, Policy, PolicySpace, stopping_time_space
from .tree import ScenarioTree, Slice, _integer, _number, build_tree


def _as_mapping(source) -> Mapping:
    if isinstance(source, Mapping):
        return source
    path = Path(source)
    try:
        with path.open(encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # syntax, bytes, digit limit, nesting depth
        raise ValueError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(data, Mapping):
        raise ValueError(f"{path} must contain a JSON object")
    return data


def _node_vectors(raw, tree: ScenarioTree, times: int, d: int, what: str) -> list[dict]:
    """Per time 0..times-1, {node: vector} for each of its nodes from a
    {node: [numbers]} section; `what` names the section in the errors. A key
    that is not a node of the tree is refused, one of a later time ignored.
    Each entry must be a JSON array (a string is not a list of digits) of
    exactly d finite numbers."""
    if not isinstance(raw, Mapping):
        raise ValueError(f"{what} must be an object {{node: [numbers]}}, got {raw!r}")
    if unknown := set(raw).difference(tree.node_ids):
        first = min(unknown, key=str)  # a library mapping may mix key types
        raise ValueError(f"{what} names {first!r}, which is not a node of the tree")
    levels = [dict.fromkeys(tree.nodes_at(t)) for t in range(times)]
    for level in levels:
        for nid in level:
            if nid not in raw:
                raise ValueError(f"{what} has no entry at node {nid!r}")
            entry, where = raw[nid], f"{what} at node {nid!r}"
            if not isinstance(entry, (list, tuple)):
                raise ValueError(f"{where} must be a list of numbers, got {entry!r}")
            vec = tuple(_number(x, f"each item of {where}") for x in entry)
            if len(vec) != d or not all(map(math.isfinite, vec)):
                raise ValueError(f"{where} needs {d} finite numbers, got {entry!r}")
            level[nid] = vec
    return levels


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
    prices = _node_vectors(raw_prices, tree, tree.horizon + 1, d, "market file key 'prices'")
    slices = {t: Slice.from_map(t, level) for t, level in enumerate(prices)}
    return MarketModel(tree, d, AdaptedProcess(slices), v0)


def load_policy(data: Mapping, tree: ScenarioTree, num_assets: int) -> Policy:
    if not isinstance(data, Mapping):
        raise ValueError(f"a policy entry must be an object, got {data!r}")
    label = str(data.get("label", "policy"))
    try:
        alloc = data["alloc"]
    except KeyError as exc:
        raise ValueError(f"policy {label!r} is missing 'alloc'") from exc
    levels = _node_vectors(alloc, tree, tree.horizon, num_assets, f"policy {label!r} key 'alloc'")
    return Policy.from_maps(label, dict(enumerate(levels)))


def load_space(source, tree: ScenarioTree, num_assets: int) -> PolicySpace:
    data = _as_mapping(source)
    if "stopping_space_of" in data:
        if "policies" in data:
            raise ValueError("space file takes 'policies' or 'stopping_space_of', not both")
        if not isinstance(data["stopping_space_of"], Mapping):
            raise ValueError("space file key 'stopping_space_of' must be a policy object")
        base = load_policy(data["stopping_space_of"], tree, num_assets)
        return stopping_time_space(tree, base)
    if "policies" in data:
        if not isinstance(data["policies"], list):
            raise ValueError("space file key 'policies' must be a list of policy objects")
        members = []
        for i, entry in enumerate(data["policies"]):
            try:
                members.append(load_policy(entry, tree, num_assets))
            except ValueError as exc:
                raise ValueError(f"space file key 'policies' entry {i}: {exc}") from None
        if not members:
            raise ValueError("space file lists no policies")
        return PolicySpace.from_policies(members, label=str(data.get("label", "space")))
    raise ValueError("space file needs either 'policies' or 'stopping_space_of'")


def load_payoff(source, market: MarketModel) -> dict[str, tuple[float, ...]]:
    """Bellman payoff coefficients {node: [d floats]}: every decision node
    needs d finite numbers; time-T entries are ignored, unknown nodes refused."""
    raw = _as_mapping(source)
    raw = raw.get("coefficients", raw)
    levels = _node_vectors(raw, market.tree, market.tree.horizon, market.num_assets, "payoff")
    return {n: vec for level in levels for n, vec in level.items()}


__all__ = [
    "load_tree",
    "load_market",
    "load_policy",
    "load_space",
    "load_payoff",
]
