"""Investment model: prices on the tree, policies, wealth, and policy spaces.

A policy holds one float64 d-vector of asset quantities, one d for all, at every node of
times 0..T-1 (`_layout`, the one layout rule), and its identity is their bits. Wealth
follows V_{t+1} = <X_t, S_{t+1} - S_t> + V_t at a zero rate, for what fits the market
(`check_fits`). A policy space is one bit matrix; only this module reads it and its width
table: conditional restriction, pasting, truncation flags, stopping-time generation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache, cached_property
from itertools import accumulate
from typing import Iterable, Mapping

import numpy as np

from .errors import (
    DimensionError,
    EmptyConditionalSpace,
    EnumerationLimit,
    PrefixMismatch,
    TimeOrderError,
    UnknownNode,
)
from .tree import AdaptedProcess, ScenarioTree, Slice, check_count, check_time

Vector = tuple[float, ...]

#: stopping-time enumerations over more rules than this raise EnumerationLimit
STOPPING_TIME_CAP = 10**6


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
            if sl.nodes != self.tree.sorted_nodes_at(t):
                raise ValueError(f"price slice at time {t} does not cover the time-{t} nodes")
            if sl.array.shape[1:] != (self.num_assets,):
                raise DimensionError(
                    f"price at node {sl.nodes[0]!r} is not a {self.num_assets}-vector: "
                    f"time-{t} prices have shape {sl.array.shape}"
                )
            finite = np.isfinite(sl.array).all(axis=1)
            if not finite.all():
                bad = sl.nodes[int(np.argmin(finite))]
                raise ValueError(f"price at node {bad!r} is not finite: {sl[bad]}")
        for t, move in enumerate(self.increments, 1):
            if not (finite := np.isfinite(move).all(axis=1)).all():
                bad = self.tree.sorted_nodes_at(t)[int(np.argmin(finite))]
                raise ValueError(f"price move into node {bad!r} overflows float range")

    @cached_property
    def increments(self) -> tuple[np.ndarray, ...]:
        """Per time t = 1..T at index t-1, the (N_t, d) price moves
        S_t(n) - S_{t-1}(parent of n), rows in sorted node order."""
        tree = self.tree
        S = [self.prices.at(t).array for t in range(tree.horizon + 1)]
        with np.errstate(over="ignore"):  # __post_init__ refuses a move past float range
            return tuple(S[t] - S[t - 1][tree.parent_rows(t)] for t in range(1, len(S)))


@dataclass(frozen=True, eq=False)
class Policy:
    """Allocation vectors on times 0..T-1, one read-only float64 (N_t, d) array
    per time, one d for all, rows in sorted node order; a level that a writeable
    array shares is copied. Identity is nodewise: two policies with the same
    allocations everywhere are the same. Build one from node maps with `from_maps`."""

    nodes: tuple[tuple[str, ...], ...]  # sorted node ids per time
    levels: tuple[np.ndarray, ...]
    label: str = ""

    def __post_init__(self):
        object.__setattr__(self, "_ends", _layout(self.label, self.nodes, self.levels, ()))
        levels = []
        for a in self.levels:
            base = a if a.base is None else a.base
            if a.flags.writeable or not isinstance(base, np.ndarray) or base.flags.writeable:
                a = a.copy()
                a.flags.writeable = False
            levels.append(a)
        object.__setattr__(self, "levels", tuple(levels))

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

    def prefix(self, t: int) -> bytes:
        """Row bytes of the allocations at times before t: leading bytes of `key`."""
        check_time(t, 0, len(self.levels))
        return self.key[: 8 * _start(self, t)]

    @cached_property
    def key(self) -> bytes:
        """Canonical nodewise-exact identity, independent of the label: the levels' row bytes."""
        return b"".join(a.tobytes() for a in self.levels)

    @cached_property
    def allocations(self) -> AdaptedProcess:
        """Per-time slices over the read-only allocation arrays."""
        return AdaptedProcess(
            {t: Slice(t, ids, a) for t, (ids, a) in enumerate(zip(self.nodes, self.levels))}
        )

    def agrees_before(self, other: "Policy", t: int) -> bool:
        """True iff allocations match at every node of every time u < t."""
        check_meets(self, other)
        return self.prefix(t) == other.prefix(t)


@dataclass(frozen=True)
class Event:
    """An F_t-measurable event: a subset of the time-t nodes."""

    time: int
    nodes: frozenset[str]


@dataclass(frozen=True, eq=False)
class PolicySpace:
    """Finite family of policies on a common tree and asset count, deduplicated nodewise
    and stored once: one read-only (P, W) int64 matrix `_bits` whose float64 views are the
    (P, N_t, d) `levels`. Stacks passed in are copied. Member r is built on its row when read."""

    nodes: tuple[tuple[str, ...], ...]  # sorted node ids per time
    levels: tuple[np.ndarray, ...]
    labels: tuple[str, ...]
    label: str = ""
    _members: dict[int, Policy] = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        if not self.labels:
            raise ValueError("policy space must be non-empty")
        ends = _layout(self.label, self.nodes, self.levels, (len(self),))
        object.__setattr__(self, "_ends", ends)
        rows = [a.reshape(len(self), -1).view(np.int64) for a in self.levels]
        bits = np.concatenate([np.empty((len(self), 0), np.int64), *rows], axis=1)
        object.__setattr__(self, "_bits", bits)
        (kept,) = np.nonzero(prefix_classes(self, len(self.levels)) == np.arange(len(self)))
        if len(kept) < len(self.labels):
            object.__setattr__(self, "_bits", bits[kept])
            object.__setattr__(self, "labels", tuple(self.labels[r] for r in kept))
        self._bits.flags.writeable = False
        blocks = (self._bits[:, a:b].view(float) for a, b in zip(ends, ends[1:]))
        levels = tuple(b.reshape(len(self), *a.shape[1:]) for b, a in zip(blocks, self.levels))
        object.__setattr__(self, "levels", levels)
        self._members.clear()  # a member read before now is on the caller's rows
        self.__dict__.pop("policies", None)

    @staticmethod
    def from_policies(policies: Iterable[Policy], label: str = "") -> "PolicySpace":
        """A space of the given policies, in order, deduplicated nodewise."""
        policies = tuple(policies)
        if not policies:
            raise ValueError("policy space must be non-empty")
        for p in policies[1:]:
            check_meets(policies[0], p)
        levels = tuple(map(np.stack, zip(*(p.levels for p in policies))))
        return PolicySpace(policies[0].nodes, levels, tuple(p.label for p in policies), label)

    def __len__(self) -> int:
        return len(self.labels)

    def member(self, r: int) -> Policy:
        """Member r, built on row r of the matrix on first read: one object per row."""
        if r not in self._members:
            levels = tuple(a[r] for a in self.levels)
            self._members.setdefault(r, Policy(self.nodes, levels, self.labels[r]))
        return self._members[r]

    @cached_property
    def policies(self) -> tuple[Policy, ...]:
        return tuple(map(self.member, range(len(self))))

    @property
    def key(self) -> bytes:
        """The members' keys joined, in order."""
        return self._bits.tobytes()


def _layout(label: str, nodes: tuple, levels: tuple[np.ndarray, ...], lead: tuple) -> tuple:
    """Refuse `levels` unless one float64 (*lead, N_t, d) array per decision
    time t, with time 0's d throughout: identity is float64 bits. Returns the
    width table, the 8-byte entry where each time 0..T starts in a member's row."""
    if len(levels) != len(nodes):
        raise DimensionError(
            f"policy {label!r} has {len(levels)} allocation levels for {len(nodes)} decision times"
        )
    assets = levels[0].shape[-1:] if levels else ()
    for t, (ids, a) in enumerate(zip(nodes, levels)):
        if a.shape != (*lead, len(ids), *assets):
            raise DimensionError(
                f"policy {label!r} has allocations of shape {a.shape} for the {len(ids)} "
                f"time-{t} nodes, not (nodes, assets) of shape {(*lead, len(ids), *assets)}"
            )
        if a.dtype != np.float64:
            raise ValueError(f"{label!r} holds {a.dtype} allocations at time {t}, not float64")
    return tuple(accumulate((len(ids) * assets[0] for ids in nodes), initial=0))


def _start(x: Policy | PolicySpace, t: int) -> int:
    """The 8-byte entry where time t starts in a member's row, clamped at its width."""
    return x._ends[min(t, len(x.nodes))]


def constant_policy(tree: ScenarioTree, num_assets: int, value: float, label: str) -> Policy:
    vec = (float(value),) * num_assets
    return Policy.from_maps(
        label, {t: {n: vec for n in tree.nodes_at(t)} for t in range(tree.horizon)}
    )


def zero_policy(tree: ScenarioTree, num_assets: int) -> Policy:
    return constant_policy(tree, num_assets, 0.0, "zero")


def _member_axis(x: Policy | PolicySpace) -> tuple[int, ...]:
    """The leading shape of x's value arrays: () for a policy, (P,) for a space."""
    return (len(x),) if isinstance(x, PolicySpace) else ()


def check_covers(nodes: tuple[tuple[str, ...], ...], x: Policy | PolicySpace) -> None:
    """Refuse a policy or space whose node ids per time are not exactly
    `nodes`: a tree's decision levels, times 0..T-1, or the node ids of the
    space or policy that x meets. The one membership rule."""
    if x.nodes != nodes:
        raise UnknownNode(f"policy {x.label!r} does not cover this tree's decision nodes")


def check_meets(x: Policy | PolicySpace, y: Policy) -> None:
    """Refuse a past or second policy y that x cannot be compared or pasted
    with: other node ids (`check_covers`) or, on the same nodes, another
    width table, which is another number of assets per node."""
    check_covers(x.nodes, y)
    if x._ends != y._ends:
        raise DimensionError(
            f"policy {y.label!r} does not hold as many assets per node as {x.label!r}"
        )


def check_fits(market: MarketModel, x: Policy | PolicySpace) -> None:
    """Refuse what the market cannot value: off its tree (`check_covers`) or another asset count."""
    check_covers(market.tree.decision_levels, x)
    if x.levels and (d := x.levels[0].shape[-1]) != market.num_assets:
        raise DimensionError(f"policy {x.label!r} holds {d} assets, not {market.num_assets}")


def wealth_process(market: MarketModel, x: Policy | PolicySpace) -> AdaptedProcess:
    """Wealth slices on times 0..T, (N_t,) for a policy and (P, N_t) for a
    space, by the self-financing recursion from the initial wealth at the
    root. Times beyond T have no slice: `at(T + 1)` raises TimeOrderError.
    Wealth past float range is +-inf, and NaN where gains of both signs
    overflow."""
    tree = market.tree
    d = market.num_assets
    check_fits(market, x)
    wealth = [np.full(_member_axis(x) + (1,), float(market.initial_wealth))]
    # past float range wealth is +-inf, and inf - inf is NaN, as in Python
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(tree.horizon):
            # the assets of a gain summed in index order, as a scalar loop would
            up = tree.parent_rows(t + 1)
            step = x.levels[t][..., up, :] * market.increments[t]
            gain = 0.0 + step[..., 0]  # 0.0 + -0.0 is 0.0, as in sum()
            for i in range(1, d):
                gain += step[..., i]
            wealth.append(wealth[t][..., up] + gain)
    return AdaptedProcess(
        {t: Slice(t, tree.sorted_nodes_at(t), w) for t, w in enumerate(wealth)}
    )


def truncate(policy: Policy, cutoff: int) -> Policy:
    """Zero the allocations from time `cutoff` onward, keeping earlier times.

    A cutoff at or beyond the last decision time returns the policy itself.
    """
    check_count(cutoff, "cutoff", 0)
    if cutoff >= len(policy.levels):
        return policy
    levels = policy.levels[:cutoff] + tuple(_zeros(a.shape) for a in policy.levels[cutoff:])
    return Policy(policy.nodes, levels, f"{policy.label}|cut{cutoff}")


@cache
def _zeros(shape: tuple[int, ...]) -> np.ndarray:
    """One read-only zero array per level shape, shared by every truncated
    level of that shape: a run truncates at each decision time."""
    zeros = np.zeros(shape)
    zeros.flags.writeable = False
    return zeros


def prefix_classes(space: PolicySpace, t: int, rows: np.ndarray | None = None) -> np.ndarray:
    """For each member, or each of the increasing `rows`, the first row
    among them with the same prefix(t); only the prefix columns are copied."""
    width = _start(space, t)
    bits = space._bits[slice(None) if rows is None else rows, :width]
    first = np.zeros(len(bits), dtype=np.intp)
    if width:
        bits = np.ascontiguousarray(bits).view(np.dtype((np.void, 8 * width))).ravel()
        _, first, inverse = np.unique(bits, return_index=True, return_inverse=True)
        first = first[inverse]
    return first if rows is None else rows[first]


def equals_truncation(space: PolicySpace, c: int, rows: np.ndarray | None = None) -> np.ndarray:
    """For each member, or each of `rows`, whether its bits from time c on
    are all +0.0: whether it equals its own truncation at c."""
    cols = slice(_start(space, c), None)
    return ~space._bits[slice(None) if rows is None else rows, cols].any(axis=1)


def conditional_space(space: PolicySpace, t: int, past: Policy | None = None) -> np.ndarray:
    """The rows of the members agreeing with `past` at every node of every
    time before t, in increasing order: the conditional space is
    `space.member(r)` for r in them.

    Agreement is required in all states of the world, not just along one
    path, so that switching between members at time t stays adapted.
    At t = 0 every row is returned. A past on other nodes, or with another
    number of assets per node, is refused.
    """
    check_time(t, 0, len(space.levels))
    if past is not None:
        check_meets(space, past)
    if t == 0:
        return np.arange(len(space))
    if past is None:
        raise ValueError("a past policy is required for t > 0")
    agree = space._bits[:, : _start(space, t)] == np.frombuffer(past.prefix(t), np.int64)
    rows = np.flatnonzero(agree.all(axis=1))
    if not rows.size:
        raise EmptyConditionalSpace(
            f"no member of {space.label!r} agrees with {past.label!r} before t={t}"
        )
    return rows


def _column_owners(tree: ScenarioTree, space: PolicySpace, t: int) -> np.ndarray:
    """For each column of space._bits from time t on, the time-t row above
    that column's node."""
    return np.concatenate(
        [np.empty(0, dtype=np.intp)]
        + [np.repeat(o, a.shape[-1]) for o, a in zip(tree.ancestor_rows(t), space.levels[t:])]
    )


def paste(tree: ScenarioTree, event: Event, x: Policy, y: Policy) -> Policy:
    """Combine two policies across an event: follow x on subtrees rooted in
    the event, y elsewhere, with their common values before the event time.
    """
    check_covers(tree.decision_levels, x)  # agrees_before asks check_meets of y
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
    masks = (inside[rows, None] for rows in tree.ancestor_rows(t))
    levels = x.levels[:t] + tuple(map(np.where, masks, x.levels[t:], y.levels[t:]))
    return Policy(x.nodes, levels, f"paste(t{t};{x.label};{y.label})")


def is_pasting_closed(
    tree: ScenarioTree, space: PolicySpace, t: int, past: Policy | None = None
) -> tuple[bool, tuple[Event, Policy, Policy] | None]:
    """Check that every paste of members of the conditional space, over
    every F_t event, lands nodewise in the space.

    Single-node events suffice: a paste over {n1, ..., nk} is a paste over
    {n1} into the paste over {n2, ..., nk}, which lies in the space by
    induction. At a node n, split each member into a, its rows in n's
    subtree, and b, its other rows from t on. The paste over {n} of x into
    y is (a_x, b_y), and distinct members are distinct (a, b) pairs, so the
    space is closed at n iff its pairs number |A|·|B|. Returns (True, None)
    or (False, witness), the first failing (event, x, y) in (node, x, y)
    order, searched for only at a node where the count fails.
    """
    check_covers(tree.decision_levels, space)
    rows = conditional_space(space, t, past)
    tail = space._bits[rows, _start(space, t) :]
    owners = _column_owners(tree, space, t)
    for n in tree.nodes_at(t):
        inside = owners == tree.row(n)
        a = [row.tobytes() for row in tail[:, inside]]
        b = [row.tobytes() for row in tail[:, ~inside]]
        pairs = set(zip(a, b))
        if len(set(a)) * len(set(b)) == len(pairs):
            continue
        for i, x in enumerate(rows):
            for j, y in enumerate(rows):
                if i != j and (a[i], b[j]) not in pairs:
                    return False, (Event(t, frozenset((n,))), space.member(x), space.member(y))
    return True, None


def pasted_row(
    tree: ScenarioTree,
    space: PolicySpace,
    rows: np.ndarray,
    t: int,
    chosen: np.ndarray,
    cut: int | None = None,
) -> int | None:
    """The position in `rows`, increasing rows of `space` truncated at `cut`
    when one is given, of the paste that follows, below each time-t node,
    the member at that node's position in `chosen`, or None if the members
    chosen disagree before t or the paste is none of them."""
    # a truncation and its paste are +0.0 from `cut` on: compare the columns before it
    width = None if cut is None else _start(space, cut)
    bits = space._bits[rows, :width]
    start, first = _start(space, t), chosen.min()
    if (bits[chosen, :start] != bits[first, :start]).any():
        return None
    # one gather: a column from time t on takes the member chosen at its
    # time-t ancestor, an earlier column the common prefix
    owners = chosen[_column_owners(tree, space, t)]
    source = np.concatenate([np.full(start, first), owners])[:width]
    pasted = bits[source, np.arange(len(source))]
    (match,) = np.nonzero((bits == pasted).all(axis=1))
    return int(match[0]) if match.size else None


def is_truncation_closed(
    space: PolicySpace, m: int
) -> tuple[bool, tuple[int, Policy, Policy] | None]:
    """Check that truncating any member of any conditional space at t+m
    stays nodewise inside that conditional space.

    A truncation keeps the time-t prefix, so it lies in the conditional
    space iff it lies in the space: iff some member has the same prefix
    at t+m and only +0.0 bits from t+m on. Returns (True, None) or
    (False, (t, past, member)), checking members in (prefix class, index)
    order.
    """
    check_count(m, "horizon", 1)
    for t in range(len(space.nodes)):
        at_cut = prefix_classes(space, t + m)
        (bad,) = np.nonzero(~np.isin(at_cut, at_cut[equals_truncation(space, t + m)]))
        if bad.size:
            classes = prefix_classes(space, t)
            i = bad[np.lexsort((bad, classes[bad]))[0]]
            return False, (t, space.member(classes[i]), space.member(i))
    return True, None


def _rule_table(tree: ScenarioTree) -> tuple[dict[str, int], dict[str, int]]:
    """Per node n, f(n), the number of stop rules below n: f(leaf) = 1 and
    f(n) = 1 + prod f(children); and n's radix among its siblings, the
    product of the later siblings' counts. One children() read per node,
    level by level from T up to the root."""
    counts: dict[str, int] = {}
    radix = {tree.root: 1}
    for t in range(tree.horizon, -1, -1):
        for n in tree.nodes_at(t):
            children, below = tree.children(n), 1
            for c in reversed(children):
                radix[c] = below
                below *= counts[c]
            counts[n] = 1 + below if children else 1
    return counts, radix


def count_stopping_times(tree: ScenarioTree) -> int:
    """Number of stopping times valued in 0..T: f(root) of `_rule_table`."""
    return _rule_table(tree)[0][tree.root]


def enumerate_stopping_times(tree: ScenarioTree) -> np.ndarray:
    """All adapted absorbing stop rules as a (rules, len(tree)) boolean
    first-stop matrix: row r marks the nodes where rule r first stops, and
    every path stops exactly once by time T. Columns are the sorted node
    ids of times 0..T, level after level. A node's rules are "stop here",
    then the children's rules with the first child varying slowest.

    So rule i >= 1 of a node is a mixed-radix number over its children's
    counts, and each child's digit is (i - 1) // radix % f(child), -1
    below an earlier stop. One digit array is pushed down the levels from
    the root's digits 0..rules-1; a rule first stops where its digit is 0.

    Raises EnumerationLimit before building any array if the count exceeds
    STOPPING_TIME_CAP.
    """
    counts, radix = _rule_table(tree)
    total = counts[tree.root]
    if total > STOPPING_TIME_CAP:
        raise EnumerationLimit(f"{total} stopping times exceed the cap of {STOPPING_TIME_CAP}")
    ids = [n for t in range(tree.horizon + 1) for n in tree.sorted_nodes_at(t)]
    f = np.array([counts[n] for n in ids], dtype=np.int32)  # the cap keeps counts in int32
    r = np.array([radix[n] for n in ids], dtype=np.int32)
    first = np.empty((total, len(ids)), dtype=bool)
    digits = np.arange(total, dtype=np.int32)[:, None]
    first[:, 0] = digits[:, 0] == 0
    start = 1
    for t in range(1, tree.horizon + 1):
        end = start + len(tree.sorted_nodes_at(t))
        digits = digits[:, tree.parent_rows(t)]
        stopped = digits <= 0
        digits -= 1
        digits //= r[start:end]
        digits %= f[start:end]
        digits[stopped] = -1
        np.equal(digits, 0, out=first[:, start:end])
        start = end
    return first


def _stop_labels(tree: ScenarioTree, label: str, first: np.ndarray) -> tuple[str, ...]:
    """Per row of an `enumerate_stopping_times` matrix, `label` then the
    rule's first-stop nodes in sorted-id order: the columns are read in
    that order, then one join per rule."""
    ids = [n for t in range(tree.horizon + 1) for n in tree.sorted_nodes_at(t)]
    order = sorted(range(len(ids)), key=ids.__getitem__)
    rules, cols = np.nonzero(first[:, order])
    names = np.array(ids, dtype=object)[order][cols].tolist()
    ends = np.cumsum(np.bincount(rules, minlength=len(first))).tolist()
    stop = f"{label}|stop@"
    return tuple([stop + ",".join(names[a:b]) for a, b in zip([0] + ends, ends)])


def stopping_time_space(tree: ScenarioTree, base: Policy) -> PolicySpace:
    """The family of policies "follow `base` until a stopping time, then hold
    nothing", over all stopping times valued in 0..T, deduplicated.

    The stopped masks of all rules are pushed down the levels at once."""
    check_covers(tree.decision_levels, base)
    first = enumerate_stopping_times(tree)
    stacks, start = [], 0
    for t, a in enumerate(base.levels):
        here = first[:, start : start + len(a)]
        stopped = here if t == 0 else stopped[:, tree.parent_rows(t)] | here
        stacks.append(np.where(stopped[:, :, None], 0.0, a))
        start += len(a)
    labels = _stop_labels(tree, base.label, first)
    return PolicySpace(base.nodes, tuple(stacks), labels, label=f"stopping({base.label})")
