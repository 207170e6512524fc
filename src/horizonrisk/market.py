"""Investment model: prices on the tree, policies, wealth, and policy spaces.

A policy holds a d-vector of asset quantities at every node of times
0..T-1. Wealth follows the self-financing recursion
V_{t+1} = <X_t, S_{t+1} - S_t> + V_t with the risk-free rate at zero.
Policy spaces are explicit finite lists supporting conditional restriction,
pasting across events, truncation, and stopping-time generation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping

import numpy as np

from .errors import (
    DimensionError,
    EmptyConditionalSpace,
    EnumerationLimit,
    PrefixMismatch,
    TimeOrderError,
    UnknownNode,
)
from .tree import AdaptedProcess, ScenarioTree, Slice

Vector = tuple[float, ...]


@dataclass(frozen=True)
class MarketModel:
    tree: ScenarioTree
    num_assets: int
    prices: AdaptedProcess  # d-vector slice per time 0..T
    initial_wealth: float = 0.0

    def __post_init__(self):
        if self.num_assets < 1:
            raise DimensionError(f"need at least one asset, got {self.num_assets}")
        if not math.isfinite(self.initial_wealth):
            raise ValueError(f"initial wealth must be finite, got {self.initial_wealth}")
        for t in range(self.tree.horizon + 1):
            sl = self.prices.at(t)
            if sl.values.keys() != set(self.tree.nodes_at(t)):
                raise ValueError(f"price slice at time {t} does not cover the time-{t} nodes")
            for nid, vec in sl.values.items():
                if len(vec) != self.num_assets:
                    raise DimensionError(
                        f"price at node {nid!r} has {len(vec)} components, expected {self.num_assets}"
                    )
                if not all(map(math.isfinite, vec)):
                    raise ValueError(f"price at node {nid!r} is not finite: {vec}")

    @cached_property
    def increments(self) -> tuple[np.ndarray, ...]:
        """Per time t = 1..T at index t-1, the (N_t, d) price moves
        S_t(n) - S_{t-1}(parent of n), rows in sorted node order."""
        tree = self.tree
        levels = [
            np.array([self.prices.at(t)[n] for n in tree.sorted_nodes_at(t)], dtype=float)
            for t in range(tree.horizon + 1)
        ]
        return tuple(levels[t] - levels[t - 1][tree.parent_rows(t)] for t in range(1, len(levels)))


@dataclass(frozen=True, eq=False)
class Policy:
    """Allocation vectors on times 0..T-1, one read-only (N_t, d) array per
    time whose rows follow that level's sorted node ids. Identity is
    nodewise: two policies with the same allocations everywhere are the
    same policy. Build one from per-time node maps with `from_maps`."""

    nodes: tuple[tuple[str, ...], ...]  # sorted node ids per time
    levels: tuple[np.ndarray, ...]
    label: str = ""

    def __post_init__(self):
        for a in self.levels:
            a.flags.writeable = False

    @staticmethod
    def from_maps(label: str, maps: Mapping[int, Mapping[str, Vector]]) -> "Policy":
        """A policy from {time: {node id: allocation vector}} on times 0..n-1.

        Rejects ragged or non-finite vectors and stores -0.0 as 0.0, so that
        equal allocations have equal keys.
        """
        if sorted(maps) != list(range(len(maps))):
            raise TimeOrderError(f"policy {label!r} needs times 0..n-1, got {sorted(maps)}")
        nodes, levels = [], []
        for t in range(len(maps)):
            ids = tuple(sorted(maps[t]))
            rows = [tuple(maps[t][n]) for n in ids]
            if len({len(row) for row in rows}) > 1:
                raise DimensionError(f"policy {label!r} mixes vector lengths at time {t}")
            a = np.array(rows, dtype=float).reshape(len(ids), -1) + 0.0
            finite = np.isfinite(a).all(axis=1)
            if not finite.all():
                bad = ids[int(np.argmin(finite))]
                raise ValueError(f"policy {label!r} has a non-finite allocation at node {bad!r}")
            nodes.append(ids)
            levels.append(a)
        return Policy(tuple(nodes), tuple(levels), label)

    @cached_property
    def _prefixes(self) -> tuple[bytes, ...]:
        out = [b""]
        for a in self.levels:
            out.append(out[-1] + a.tobytes())
        return tuple(out)

    def prefix(self, t: int) -> bytes:
        """Row bytes of the allocations at times before t."""
        return self._prefixes[max(0, min(t, len(self.levels)))]

    @property
    def key(self) -> bytes:
        """Canonical nodewise-exact identity, independent of the label."""
        return self._prefixes[-1]

    @property
    def times(self) -> tuple[int, ...]:
        return tuple(range(len(self.levels)))

    @cached_property
    def allocations(self) -> AdaptedProcess:
        """Per-time slices of allocation tuples, derived from the arrays;
        editing them does not change the policy."""
        return AdaptedProcess(
            {
                t: Slice(t, dict(zip(ids, map(tuple, a.tolist()))))
                for t, (ids, a) in enumerate(zip(self.nodes, self.levels))
            }
        )

    def agrees_before(self, other: "Policy", t: int) -> bool:
        """True iff allocations match at every node of every time u < t."""
        return self.prefix(t) == other.prefix(t)


@dataclass(frozen=True)
class Event:
    """An F_t-measurable event: a subset of the time-t nodes."""

    time: int
    nodes: frozenset[str]


@dataclass(frozen=True, eq=False)
class PolicySpace:
    """Finite family of policies on a common tree, deduplicated nodewise."""

    policies: tuple[Policy, ...]
    label: str = ""

    def __post_init__(self):
        if not self.policies:
            raise ValueError("policy space must be non-empty")
        kept, seen = [], set()
        for p in self.policies:
            if p.key not in seen:
                seen.add(p.key)
                kept.append(p)
        object.__setattr__(self, "policies", tuple(kept))
        first = kept[0]
        for p in kept[1:]:
            if p.nodes != first.nodes or any(
                a.shape != b.shape for a, b in zip(p.levels, first.levels)
            ):
                raise ValueError("all policies in a space must share tree nodes and asset count")

    def __len__(self) -> int:
        return len(self.policies)

    def __iter__(self):
        return iter(self.policies)

    @cached_property
    def _keys(self) -> dict[bytes, int]:
        return {p.key: i for i, p in enumerate(self.policies)}

    def contains(self, policy: Policy) -> bool:
        return policy.key in self._keys

    def index_of(self, policy: Policy) -> int:
        try:
            return self._keys[policy.key]
        except KeyError:
            raise ValueError(f"policy {policy.label!r} is not a member") from None


def constant_policy(tree: ScenarioTree, num_assets: int, value: float, label: str) -> Policy:
    vec = (float(value),) * num_assets
    return Policy.from_maps(
        label, {t: {n: vec for n in tree.nodes_at(t)} for t in range(tree.horizon)}
    )


def zero_policy(tree: ScenarioTree, num_assets: int) -> Policy:
    return constant_policy(tree, num_assets, 0.0, "zero")


def wealth_process(market: MarketModel, policy: Policy) -> AdaptedProcess:
    """Wealth slices on times 0..T under the self-financing recursion,
    starting from the market's initial wealth at the root. Wealth is frozen
    after T; queries beyond T should clamp to the final slice.

    Each level is two gathers by parent row; the assets of a gain are
    summed in index order, as a scalar loop would."""
    tree = market.tree
    d = market.num_assets
    increments = market.increments
    if policy.nodes[: tree.horizon] != tuple(map(tree.sorted_nodes_at, range(tree.horizon))):
        raise UnknownNode(f"policy {policy.label!r} does not cover this tree's decision nodes")
    wealth = [np.array([float(market.initial_wealth)])]
    for t in range(tree.horizon):
        x = policy.levels[t]
        if x.shape[1] != d:
            raise DimensionError(
                f"allocation at node {policy.nodes[t][0]!r} has {x.shape[1]} components, "
                f"expected {d}"
            )
        up = tree.parent_rows(t + 1)
        step = x[up] * increments[t]
        gain = 0.0 + step[:, 0]  # 0.0 + -0.0 is 0.0, as in sum()
        for i in range(1, d):
            gain += step[:, i]
        wealth.append(wealth[t][up] + gain)
    return AdaptedProcess(
        {
            t: Slice(t, dict(zip(tree.sorted_nodes_at(t), w.tolist())))
            for t, w in enumerate(wealth)
        }
    )


def truncate(policy: Policy, cutoff: int) -> Policy:
    """Zero the allocations from time `cutoff` onward, keeping earlier times.

    A cutoff at or beyond the last decision time returns the policy itself.
    """
    if cutoff < 0:
        raise ValueError(f"cutoff must be >= 0, got {cutoff}")
    if cutoff >= len(policy.levels):
        return policy
    levels = policy.levels[:cutoff] + tuple(np.zeros_like(a) for a in policy.levels[cutoff:])
    return Policy(policy.nodes, levels, f"{policy.label}|cut{cutoff}")


def conditional_space(space: PolicySpace, t: int, past: Policy | None = None) -> PolicySpace:
    """Members agreeing with `past` at every node of every time before t.

    Agreement is required in all states of the world, not just along one
    path, so that switching between members at time t stays adapted.
    At t = 0 the space itself is returned.
    """
    if t <= 0:
        return space
    if past is None:
        raise ValueError("a past policy is required for t > 0")
    prefix = past.prefix(t)
    members = [p for p in space.policies if p.prefix(t) == prefix]
    if not members:
        raise EmptyConditionalSpace(
            f"no member of {space.label!r} agrees with {past.label!r} before t={t}"
        )
    return PolicySpace(tuple(members), label=f"{space.label}|t{t}")


def paste(tree: ScenarioTree, event: Event, x: Policy, y: Policy) -> Policy:
    """Combine two policies across an event: follow x on subtrees rooted in
    the event, y elsewhere, with their common values before the event time.
    """
    t = event.time
    level = tree.sorted_nodes_at(t)
    unknown = event.nodes - set(level)
    if unknown:
        raise UnknownNode(f"event nodes {sorted(unknown)} are not time-{t} nodes")
    if not x.agrees_before(y, t):
        raise PrefixMismatch(
            f"policies {x.label!r} and {y.label!r} disagree before t={t}"
        )
    inside = np.zeros(len(level), dtype=bool)
    inside[[tree.row(n) for n in event.nodes]] = True
    levels = list(x.levels[:t])
    for u in range(t, len(x.levels)):
        if u > t:
            inside = inside[tree.parent_rows(u)]
        levels.append(np.where(inside[:, None], x.levels[u], y.levels[u]))
    return Policy(x.nodes, tuple(levels), f"paste(t{t};{x.label};{y.label})")


def is_pasting_closed(
    tree: ScenarioTree, space: PolicySpace, t: int, past: Policy | None = None
) -> tuple[bool, tuple[Event, Policy, Policy] | None]:
    """Check that every paste of members of the conditional space, over
    every F_t event, lands nodewise in the space.

    Single-node events suffice: a paste over {n1, ..., nk} is a paste over
    {n1} into the paste over {n2, ..., nk}, which lies in the space by
    induction. Returns (True, None) or (False, witness); linear in the
    number of time-t nodes, quadratic in the conditional space's size.
    """
    cond = conditional_space(space, t, past)
    keys = cond._keys
    for n in tree.nodes_at(t):
        event = Event(t, frozenset((n,)))
        for x in cond.policies:
            for y in cond.policies:
                if x is y:
                    continue
                if paste(tree, event, x, y).key not in keys:
                    return False, (event, x, y)
    return True, None


def is_truncation_closed(
    space: PolicySpace, m: int
) -> tuple[bool, tuple[int, Policy, Policy] | None]:
    """Check that truncating any member of any conditional space at t+m
    stays nodewise inside that conditional space.

    Returns (True, None) or (False, (t, past, member)).
    """
    if m < 1:
        raise ValueError(f"horizon must be >= 1, got {m}")
    times = space.policies[0].times
    for t in range(len(times)):
        seen_prefixes = set()
        for past in space.policies:
            prefix = past.prefix(t)
            if prefix in seen_prefixes:
                continue
            seen_prefixes.add(prefix)
            cond = conditional_space(space, t, past)
            keys = cond._keys
            for member in cond.policies:
                if truncate(member, t + m).key not in keys:
                    return False, (t, past, member)
    return True, None


def count_stopping_times(tree: ScenarioTree) -> int:
    """Number of stopping times valued in 0..T: f(leaf) = 1 and
    f(n) = 1 + prod f(children)."""

    def f(node_id: str) -> int:
        children = tree.children(node_id)
        if not children:
            return 1
        prod = 1
        for c in children:
            prod *= f(c)
        return 1 + prod

    return f(tree.root)


def enumerate_stopping_times(tree: ScenarioTree, cap: int = 10**6) -> list[frozenset[str]]:
    """All adapted absorbing stop rules, each as its antichain of first-stop
    nodes: every path stops exactly once by time T.

    Raises EnumerationLimit before enumerating if the count exceeds `cap`.
    """
    total = count_stopping_times(tree)
    if total > cap:
        raise EnumerationLimit(f"{total} stopping times exceed the cap of {cap}")

    def antichains(node_id: str) -> list[frozenset[str]]:
        children = tree.children(node_id)
        if not children:
            return [frozenset((node_id,))]
        combos = [frozenset()]
        for c in children:
            combos = [a | b for a in combos for b in antichains(c)]
        return [frozenset((node_id,))] + combos

    return antichains(tree.root)


def stopping_time_space(tree: ScenarioTree, base: Policy, cap: int = 10**6) -> PolicySpace:
    """The family of policies "follow `base` until a stopping time, then hold
    nothing", over all stopping times valued in 0..T, deduplicated.

    The stopped masks of all rules are pushed down the levels at once."""
    rules = enumerate_stopping_times(tree, cap)
    # first[t][r, i]: rule r first stops at row i of time t
    first = [np.zeros((len(rules), len(a)), dtype=bool) for a in base.levels]
    for r, first_stops in enumerate(rules):
        for n in first_stops:
            t = tree.node(n).time
            if t < len(first):
                first[t][r, tree.row(n)] = True
    stacks = []
    for t, a in enumerate(base.levels):
        stopped = first[t] if t == 0 else stopped[:, tree.parent_rows(t)] | first[t]
        stacks.append(np.where(stopped[:, :, None], 0.0, a))
    members = tuple(
        Policy(
            base.nodes,
            tuple(stack[r] for stack in stacks),
            f"{base.label}|stop@{','.join(sorted(rule))}",
        )
        for r, rule in enumerate(rules)
    )
    return PolicySpace(members, label=f"stopping({base.label})")
