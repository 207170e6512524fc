"""Finite scenario trees: filtration, measurable slices, conditional expectation.

A non-recombining event tree over times 0..T carries the whole filtered
probability space: the time-t nodes are the atoms of F_t, so a map from
time-t nodes to values is exactly an F_t-measurable random variable.
All "almost sure" statements become exact nodewise checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

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
        self._branch_probs = tuple(
            np.array([self._nodes[n].branch_prob for n in level]) for level in self._sorted[1:]
        )
        # {t: leaf_ancestor_rows(t)}, built up from the horizon on demand
        self._leaf_rows = {horizon: np.arange(len(self._sorted[-1]))}

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

    def ancestor_rows(self, t: int) -> list[np.ndarray]:
        """For each level u = t..horizon, at index u - t, the row of the
        time-t node above each sorted time-u node."""
        rows = [np.arange(len(self.sorted_nodes_at(t)))]
        for parents in self._parent_rows[t:]:
            rows.append(rows[-1][parents])
        return rows

    def leaf_ancestor_rows(self, t: int) -> np.ndarray:
        """For each sorted time-horizon node, the row of its time-t ancestor:
        `ancestor_rows(t)[-1]`, kept once built, each from the one below."""
        if not 0 <= t <= self.horizon:
            raise TimeOrderError(f"time {t} outside 0..{self.horizon}")
        rows, u = self._leaf_rows, t
        while u not in rows:
            u += 1
        for x in range(u - 1, t - 1, -1):
            rows[x] = self._parent_rows[x][rows[x + 1]]
        return rows[t]

    def fold(self, t: int, vals: np.ndarray) -> np.ndarray:
        """E[vals | F_{t-1}] for time-t values (t >= 1), (N_t,) or (P, N_t):
        each (member, parent) sum starts from 0.0 and adds branch
        probability times child value in row order."""
        rows, n = self._parent_rows[t - 1], len(self._sorted[t - 1])
        weights = self._branch_probs[t - 1] * vals
        if vals.ndim == 1:
            return np.bincount(rows, weights, n)
        bins = rows + n * np.arange(len(vals))[:, None]
        return np.bincount(bins.ravel(), weights.ravel(), len(vals) * n).reshape(-1, n)

    @property
    def node_ids(self) -> tuple[str, ...]:
        return tuple(self._nodes)

    def __len__(self) -> int:
        return len(self._nodes)

    def children(self, node_id: str) -> tuple[str, ...]:
        return self.node(node_id).children

    def ancestor_at(self, node_id: str, t: int) -> str:
        """The unique time-t node on the path from the root to `node_id`."""
        node = self.node(node_id)
        if t > node.time:
            raise TimeOrderError(f"node {node_id!r} is at time {node.time} < {t}")
        while node.time > t:
            node = self._nodes[node.parent]  # type: ignore[index]
        return node.id


class Slice:
    """An F_t-measurable variable: one entry per time-t node.

    `nodes` is the tree's sorted tuple of time-t node ids and `array` holds
    the entries in that row order: 1-d for scalars, (N_t, d) for price and
    allocation vectors, (P, N_t) for a space's values (row i is member i, no
    `values`). The array is shared, not copied. Build a slice from a node
    map with `from_map`; `values` is a node map derived on first read, with
    tuples for vector rows. `values` refuses an array whose row count is not
    the node count, but a (P, N_t) matrix with P == N_t cannot be told from
    an (N_t, d) vector slice and reads as one.
    """

    __slots__ = ("time", "nodes", "array", "_values")

    def __init__(self, time: int, nodes: tuple[str, ...], array: np.ndarray):
        self.time = time
        self.nodes = nodes
        self.array = array
        self._values = None

    @staticmethod
    def from_map(t: int, mapping: Mapping[str, float | tuple[float, ...]]) -> "Slice":
        """A slice from {node id: value or vector}; rows follow the sorted ids."""
        nodes = tuple(sorted(mapping))
        return Slice(t, nodes, np.array([mapping[n] for n in nodes], dtype=float))

    @property
    def values(self) -> dict[str, float | tuple[float, ...]]:
        if self._values is None:
            if self.array.shape[:1] != (len(self.nodes),):
                raise ValueError(
                    f"a slice array of shape {self.array.shape} has no node map over "
                    f"{len(self.nodes)} nodes: its rows are not the nodes"
                )
            rows = self.array.tolist()
            self._values = dict(zip(self.nodes, map(tuple, rows) if self.array.ndim > 1 else rows))
        return self._values

    def __getitem__(self, node_id: str) -> float | tuple[float, ...]:
        return self.values[node_id]

    def __iter__(self):
        return iter(self.nodes)


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


def build_tree(spec: Mapping) -> ScenarioTree:
    """Build and validate a ScenarioTree from its file-shaped description.

    `spec` is {"T": int, "nodes": [{"id", "time", "parent", "p"}, ...]} with
    unique string ids, `parent` null exactly at the root, and `p` the branch
    probability of reaching the node from its parent (omitted or 1 at the
    root). Probabilities are rejected, never renormalised.
    """
    try:
        horizon = _integer(spec["T"], "key 'T'")
        raw_nodes = spec["nodes"]
    except (KeyError, TypeError, ValueError) as exc:
        raise StructureError(f"malformed tree description: {exc}") from exc
    if not isinstance(raw_nodes, (list, tuple)):
        raise StructureError(f"'nodes' must be a list of node objects, got {raw_nodes!r}")
    if horizon < 0:
        raise StructureError(f"horizon must be >= 0, got {horizon}")

    by_id: dict[str, dict] = {}
    for raw in raw_nodes:
        try:
            nid, time = str(raw["id"]), _integer(raw["time"], "key 'time'")
        except (KeyError, TypeError, ValueError):
            raise StructureError(f"node {raw!r} needs an 'id' and an integer 'time'") from None
        if nid in by_id:
            raise StructureError(f"duplicate node id {nid!r} (recombining trees are not supported)")
        by_id[nid] = {
            "time": time,
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
    if root_p is not None:
        root_p = _number(root_p, f"branch probability of {root!r}")
        if not abs(root_p - 1.0) <= PROB_TOL:
            raise ProbabilityError(f"root probability must be 1, got {root_p}")
    for nid, n in by_id.items():
        if not n["children"]:
            continue
        probs = []
        for cid in n["children"]:
            p = by_id[cid]["p"]
            if p is None:
                raise ProbabilityError(f"node {cid!r} is missing its branch probability")
            p = by_id[cid]["p"] = _number(p, f"branch probability of {cid!r}")
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
            branch_prob=1.0 if n["parent"] is None else n["p"],
        )
        for nid, n in by_id.items()
    ]
    return ScenarioTree(horizon, nodes)


def _integer(raw, what: str) -> int:
    """int(raw), refusing a boolean and a fractional or non-finite float
    that int() would cut or overflow on."""
    if isinstance(raw, bool) or isinstance(raw, float) and not raw.is_integer():
        raise ValueError(f"{what} must be an integer, got {raw!r}")
    return int(raw)


def _number(raw, what: str) -> float:
    """float(raw), refusing a boolean and whatever float() cannot read."""
    if not isinstance(raw, bool):
        try:
            return float(raw)
        except (TypeError, ValueError, OverflowError):
            pass
    raise ValueError(f"{what} must be a number, got {raw!r}")


def conditional_expectation(tree: ScenarioTree, q: Slice, t: int) -> Slice:
    """Classical E[q | F_t] for a slice q at time s >= t, (N_s,) or (P, N_s).

    Folds one step at a time with the branch probabilities, which is the
    probability-weighted average over time-s descendants and makes the tower
    property hold up to float round-off.
    """
    s = q.time
    if t > s:
        raise TimeOrderError(f"cannot condition a time-{s} slice on the later time {t}")
    if t < 0 or s > tree.horizon:
        raise TimeOrderError(f"times ({t}, {s}) outside 0..{tree.horizon}")
    if q.nodes != tree.sorted_nodes_at(s):
        raise ValueError(f"slice at time {s} does not cover exactly the time-{s} nodes")
    if q.array.ndim > 2 or q.array.shape[-1] != len(q.nodes):
        raise ValueError(f"time-{s} slice of shape {q.array.shape} does not end in its node axis")
    vals = q.array
    for u in range(s, t, -1):
        vals = tree.fold(u, vals)
    return Slice(t, tree.sorted_nodes_at(t), vals)
