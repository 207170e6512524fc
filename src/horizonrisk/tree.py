"""Finite scenario trees: filtration, measurable slices, conditional expectation.

A non-recombining event tree over times 0..T carries the whole filtered
probability space: the time-t nodes are the atoms of F_t, so a map from
time-t nodes to values is exactly an F_t-measurable random variable.
All "almost sure" statements become exact nodewise checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .errors import ProbabilityError, StructureError, TimeOrderError, UnknownNode

#: sibling branch probabilities must sum to one within this bound
PROB_TOL = 1e-12


@dataclass(frozen=True)
class TreeNode:
    id: str
    time: int
    parent: str | None
    children: tuple[str, ...]
    branch_prob: float  # probability of this node given its parent; 1.0 at the root


class ScenarioTree:
    """Validated non-recombining event tree over times 0..horizon.

    Immutable after construction; build instances through `build_tree`.
    """

    def __init__(self, horizon: int, nodes: list[TreeNode]):
        self.horizon = horizon
        self._nodes: dict[str, TreeNode] = {n.id: n for n in nodes}
        self._levels: tuple[tuple[str, ...], ...] = tuple(
            tuple(n.id for n in nodes if n.time == t) for t in range(horizon + 1)
        )
        self.root = self._levels[0][0]
        # array layout: each level's rows follow its sorted node ids
        self._sorted = tuple(tuple(sorted(level)) for level in self._levels)
        self._rows = {nid: i for level in self._sorted for i, nid in enumerate(level)}
        self._parent_rows = tuple(
            np.array([self._rows[self._nodes[n].parent] for n in level], dtype=np.intp)
            for level in self._sorted[1:]
        )

    def node(self, node_id: str) -> TreeNode:
        try:
            return self._nodes[node_id]
        except KeyError:
            raise UnknownNode(f"no node with id {node_id!r}") from None

    def nodes_at(self, t: int) -> tuple[str, ...]:
        if not 0 <= t <= self.horizon:
            raise TimeOrderError(f"time {t} outside 0..{self.horizon}")
        return self._levels[t]

    def sorted_nodes_at(self, t: int) -> tuple[str, ...]:
        """The time-t node ids in sorted order: the row order of policy arrays."""
        if not 0 <= t <= self.horizon:
            raise TimeOrderError(f"time {t} outside 0..{self.horizon}")
        return self._sorted[t]

    def row(self, node_id: str) -> int:
        """The row of a node within its sorted level."""
        try:
            return self._rows[node_id]
        except KeyError:
            raise UnknownNode(f"no node with id {node_id!r}") from None

    def parent_rows(self, t: int) -> np.ndarray:
        """For each sorted time-t node (t >= 1), its parent's row at t-1."""
        if not 1 <= t <= self.horizon:
            raise TimeOrderError(f"time {t} outside 1..{self.horizon}")
        return self._parent_rows[t - 1]

    @property
    def node_ids(self) -> tuple[str, ...]:
        return tuple(self._nodes)

    def __len__(self) -> int:
        return len(self._nodes)

    def children(self, node_id: str) -> tuple[str, ...]:
        return self.node(node_id).children

    def parent(self, node_id: str) -> str | None:
        return self.node(node_id).parent

    def ancestor_at(self, node_id: str, t: int) -> str:
        """The unique time-t node on the path from the root to `node_id`."""
        node = self.node(node_id)
        if t > node.time:
            raise TimeOrderError(f"node {node_id!r} is at time {node.time} < {t}")
        while node.time > t:
            node = self._nodes[node.parent]  # type: ignore[index]
        return node.id

    def leaves(self) -> tuple[str, ...]:
        return self._levels[self.horizon]


@dataclass(frozen=True)
class Slice:
    """An F_t-measurable variable: one value per time-t node.

    Values are scalars for most uses; price and allocation slices hold
    fixed-length tuples instead. Arithmetic is defined for scalar slices.
    """

    time: int
    values: dict[str, float]

    def __getitem__(self, node_id: str) -> float:
        return self.values[node_id]

    def __iter__(self):
        return iter(self.values)

    def map(self, fn: Callable[[float], float]) -> "Slice":
        return Slice(self.time, {n: fn(v) for n, v in self.values.items()})

    def _combine(self, other, fn) -> "Slice":
        if isinstance(other, Slice):
            if other.time != self.time or other.values.keys() != self.values.keys():
                raise ValueError("slice arithmetic requires matching times and nodes")
            return Slice(self.time, {n: fn(v, other.values[n]) for n, v in self.values.items()})
        return Slice(self.time, {n: fn(v, other) for n, v in self.values.items()})

    def __add__(self, other) -> "Slice":
        return self._combine(other, lambda a, b: a + b)

    def __sub__(self, other) -> "Slice":
        return self._combine(other, lambda a, b: a - b)

    def __mul__(self, scalar: float) -> "Slice":
        return Slice(self.time, {n: v * scalar for n, v in self.values.items()})

    __rmul__ = __mul__

    @staticmethod
    def constant(tree: ScenarioTree, t: int, value: float) -> "Slice":
        return Slice(t, {n: value for n in tree.nodes_at(t)})


@dataclass(frozen=True)
class AdaptedProcess:
    """Per-time slices; the time-u slice is F_u-measurable by construction."""

    slices: dict[int, Slice]

    def __post_init__(self):
        for t, sl in self.slices.items():
            if sl.time != t:
                raise ValueError(f"slice at key {t} carries time {sl.time}")

    def at(self, t: int) -> Slice:
        try:
            return self.slices[t]
        except KeyError:
            raise TimeOrderError(f"process has no slice at time {t}") from None

    @property
    def times(self) -> tuple[int, ...]:
        return tuple(sorted(self.slices))


def build_tree(spec: Mapping) -> ScenarioTree:
    """Build and validate a ScenarioTree from its file-shaped description.

    `spec` is {"T": int, "nodes": [{"id", "time", "parent", "p"}, ...]} with
    unique string ids, `parent` null exactly at the root, and `p` the branch
    probability of reaching the node from its parent (omitted or 1 at the
    root). Probabilities are rejected, never renormalised.
    """
    try:
        horizon = int(spec["T"])
        raw_nodes = list(spec["nodes"])
    except (KeyError, TypeError, ValueError) as exc:
        raise StructureError(f"malformed tree description: {exc}") from exc
    if horizon < 0:
        raise StructureError(f"horizon must be >= 0, got {horizon}")

    by_id: dict[str, dict] = {}
    for raw in raw_nodes:
        nid = str(raw["id"])
        if nid in by_id:
            raise StructureError(f"duplicate node id {nid!r} (recombining trees are not supported)")
        by_id[nid] = {
            "time": int(raw["time"]),
            "parent": None if raw.get("parent") is None else str(raw["parent"]),
            "p": raw.get("p"),
            "children": [],
        }

    roots = [nid for nid, n in by_id.items() if n["parent"] is None]
    if len(roots) != 1:
        raise StructureError(f"expected exactly one root, found {len(roots)}")
    root = roots[0]
    if by_id[root]["time"] != 0:
        raise StructureError(f"root {root!r} must be at time 0, is at {by_id[root]['time']}")

    for nid, n in by_id.items():
        if not 0 <= n["time"] <= horizon:
            raise StructureError(f"node {nid!r} at time {n['time']} outside 0..{horizon}")
        if n["parent"] is None:
            continue
        parent = by_id.get(n["parent"])
        if parent is None:
            raise StructureError(f"node {nid!r} references unknown parent {n['parent']!r}")
        if n["time"] != parent["time"] + 1:
            raise StructureError(
                f"node {nid!r} at time {n['time']} but parent at time {parent['time']}"
            )
        parent["children"].append(nid)

    for nid, n in by_id.items():
        if not n["children"] and n["time"] != horizon:
            raise StructureError(f"leaf {nid!r} at time {n['time']}, expected {horizon}")

    root_p = by_id[root]["p"]
    if root_p is not None and not abs(float(root_p) - 1.0) <= PROB_TOL:
        raise ProbabilityError(f"root probability must be 1, got {root_p}")
    for nid, n in by_id.items():
        if not n["children"]:
            continue
        probs = []
        for cid in n["children"]:
            p = by_id[cid]["p"]
            if p is None:
                raise ProbabilityError(f"node {cid!r} is missing its branch probability")
            p = float(p)
            if not (math.isfinite(p) and p > 0.0):
                raise ProbabilityError(
                    f"branch probability of {cid!r} must be finite and > 0, got {p}"
                )
            probs.append(p)
        total = math.fsum(probs)
        if abs(total - 1.0) > PROB_TOL:
            raise ProbabilityError(
                f"children of {nid!r} have probabilities summing to {total!r}, not 1"
            )

    nodes = [
        TreeNode(
            id=nid,
            time=n["time"],
            parent=n["parent"],
            children=tuple(n["children"]),
            branch_prob=1.0 if n["parent"] is None else float(n["p"]),
        )
        for nid, n in by_id.items()
    ]
    return ScenarioTree(horizon, nodes)


def path_probability(tree: ScenarioTree, node_id: str) -> float:
    """Unconditional probability of the atom: product of branch probabilities
    along the path from the root (the root itself has probability 1)."""
    node = tree.node(node_id)
    prob = 1.0
    while node.parent is not None:
        prob *= node.branch_prob
        node = tree.node(node.parent)
    return prob


def _require_scalar_slice(tree: ScenarioTree, q: Slice) -> None:
    expected = set(tree.nodes_at(q.time))
    if q.values.keys() != expected:
        raise ValueError(f"slice at time {q.time} does not cover exactly the time-{q.time} nodes")
    for v in q.values.values():
        if isinstance(v, tuple):
            raise ValueError("conditional expectation is defined for scalar slices only")


def conditional_expectation(tree: ScenarioTree, q: Slice, t: int) -> Slice:
    """Classical E[q | F_t] for a scalar slice q at time s >= t.

    Folds one step at a time with the branch probabilities, which is the
    probability-weighted average over time-s descendants and makes the tower
    property hold up to float round-off.
    """
    s = q.time
    if t > s:
        raise TimeOrderError(f"cannot condition a time-{s} slice on the later time {t}")
    if t < 0 or s > tree.horizon:
        raise TimeOrderError(f"times ({t}, {s}) outside 0..{tree.horizon}")
    _require_scalar_slice(tree, q)
    vals = dict(q.values)
    for u in range(s, t, -1):
        vals = {
            nid: math.fsum(tree.node(c).branch_prob * vals[c] for c in tree.children(nid))
            for nid in tree.nodes_at(u - 1)
        }
    return Slice(t, vals)
