"""Value functions and the naive sequential policy-choice engine.

Four value-function variants are provided:

* SimpleHorizon: operator value of wealth m steps ahead, clamped at T.
* ModifiedHorizon: operator value of terminal wealth, with the feasible
  set truncated m steps ahead at each decision time.
* Terminal: operator value of terminal wealth over the full feasible set.
* BellmanAdditive: backward recursion of stagewise payoffs under
  classical conditional expectation.

`value_process` gives a policy's or a space's values at many times from
one backward pass.

The engine chooses, at each time t, a policy whose time-t value slice
dominates every feasible member's slice at every time-t node. Such a
policy is assembled by per-node argmax followed by pasting, which is a
valid maximiser because all four variants satisfy the zero-one law on
prefix-agreeing policies.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    EmptyConditionalSpace,
    NoUniformMaximizer,
    TimeOrderError,
)
from .expectations import ExpectationOperator, check_tol, evaluate, evaluate_levels
from .market import (
    MarketModel,
    Policy,
    PolicySpace,
    _column_owners,
    _first_of_class,
    _member_axis,
    _start,
    conditional_space,
    truncate,
    wealth_process,
)
from .tree import AdaptedProcess, ScenarioTree, Slice


@dataclass(frozen=True)
class _Horizon:
    """The fields and the m >= 1 check of the two horizon variants."""

    m: int
    op: ExpectationOperator

    def __post_init__(self):
        if self.m < 1:
            raise ValueError(f"horizon length must be >= 1, got {self.m}")


@dataclass(frozen=True)
class SimpleHorizon(_Horizon):
    """Operator value of wealth m steps ahead, clamped at T."""


@dataclass(frozen=True)
class ModifiedHorizon(_Horizon):
    """Operator value of terminal wealth, the feasible set truncated m steps ahead."""


@dataclass(frozen=True)
class Terminal:
    op: ExpectationOperator


@dataclass(frozen=True)
class BellmanAdditive:
    """payoff(node_id, allocation) is the stage reward earned at that node.

    It must be a pure function of (node, allocation): a space's payoffs are
    one table, with one call per node and distinct allocation row, not one
    per member."""

    payoff: Callable[[str, tuple[float, ...]], float]


ValueFunction = SimpleHorizon | ModifiedHorizon | Terminal | BellmanAdditive


def _stage_payoffs(vf: BellmanAdditive, level: tuple[str, ...], a: np.ndarray) -> np.ndarray:
    """The stage payoffs of one level's allocations: (N_u,) for a policy's
    (N_u, d) rows, (P, N_u) for a space's (P, N_u, d) stack.

    A space's payoffs are one table, with one payoff call per (node,
    distinct allocation row); rows are compared by their bytes, so -0.0 and
    0.0 rows are called apart. A policy has one row per node and calls
    them in row order."""
    if a.ndim == 2:
        payoffs = [vf.payoff(n, tuple(row)) for n, row in zip(level, a.tolist())]
        return np.array(payoffs, dtype=float)
    members, width, d = a.shape
    rows = np.ascontiguousarray(a).reshape(-1, d)
    bits = rows.view(np.int64)
    nodes = np.tile(np.arange(width), members)
    # sort by node, then row bits; a group starts where either changes
    order = np.lexsort((*bits.T, nodes))
    sorted_bits, sorted_nodes = bits[order], nodes[order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = (sorted_nodes[1:] != sorted_nodes[:-1]) | (
        sorted_bits[1:] != sorted_bits[:-1]
    ).any(axis=1)
    picks = order[first]
    payoffs = [
        vf.payoff(level[k], tuple(row))
        for k, row in zip(nodes[picks].tolist(), rows[picks].tolist())
    ]
    entry = np.empty(len(order), dtype=np.intp)
    entry[order] = np.cumsum(first) - 1
    return np.array(payoffs, dtype=float)[entry].reshape(members, width)


def _wealth(market: MarketModel, x: Policy | PolicySpace, wealth_cache: dict) -> AdaptedProcess:
    # a one-member space has its member's key but a member axis in its wealth
    key = (_member_axis(x), x.key)
    wealth = wealth_cache.get(key)
    if wealth is None:
        wealth = wealth_cache[key] = wealth_process(market, x)
    return wealth


def value_process(
    vf: ValueFunction,
    market: MarketModel,
    x: Policy | PolicySpace,
    times: Iterable[int],
    wealth_cache: dict | None = None,
) -> dict[int, np.ndarray]:
    """{t: time-t values} for every t in `times`, (N_t,) for a policy and
    (P, N_t) for a space's members, from one backward pass.

    Each array equals the time-t value slice's bit for bit. Bellman values
    keep every level of one recursion; the other variants exponentiate the
    wealth they value once (Simple: once per distinct min(t+m, T)) and
    fold down, keeping the levels asked for. Wealth is read through the
    memo `wealth_cache` when one is given, as the member values read it."""
    T = market.tree.horizon
    times = sorted(set(times))
    if times and not 0 <= times[0] <= times[-1] <= T:
        raise TimeOrderError(f"times {times} outside 0..{T}")
    if isinstance(vf, BellmanAdditive):
        return _bellman_process(vf, market, x, times)
    if not times:
        return {}
    wealth = _wealth(market, x, {} if wealth_cache is None else wealth_cache)
    if not isinstance(vf, SimpleHorizon):  # wealth is frozen after T
        return evaluate_levels(vf.op, market.tree, wealth.at(T), times)
    targets: dict[int, list[int]] = {}
    for t in times:
        targets.setdefault(min(t + vf.m, T), []).append(t)
    out = {}
    for s, at_s in targets.items():
        out.update(evaluate_levels(vf.op, market.tree, wealth.at(s), at_s))
    return out


def _bellman_process(
    vf: BellmanAdditive, market: MarketModel, x: Policy | PolicySpace, times: list[int]
) -> dict[int, np.ndarray]:
    tree = market.tree
    T = tree.horizon
    vals = np.zeros(_member_axis(x) + (len(tree.sorted_nodes_at(T)),))
    out = {T: vals} if T in times else {}
    for u in range(T - 1, times[0] - 1 if times else T, -1):
        vals = _stage_payoffs(vf, tree.sorted_nodes_at(u), x.levels[u]) + tree.fold(u + 1, vals)
        if u in times:
            out[u] = vals
    return out


def _member_value(
    vf: ValueFunction,
    market: MarketModel,
    x: Policy | PolicySpace,
    t: int,
    wealth_cache: dict,
) -> Slice:
    """Time-t values of a policy, (N_t,), or of a space's members, (P, N_t)."""
    values = value_process(vf, market, x, [t], wealth_cache)[t]
    return Slice(t, market.tree.sorted_nodes_at(t), values)


def value(vf: ValueFunction, market: MarketModel, policy: Policy, t: int) -> Slice:
    """The time-t value slice the variant assigns to the policy."""
    return _member_value(vf, market, policy, t, {})


def feasible_set(
    vf: ValueFunction, space: PolicySpace, t: int, past: Policy | None = None
) -> np.ndarray:
    """The rows of `space` optimised over at time t, in increasing order:
    the conditional space given the past, and for the modified variant
    only the first row of each prefix class at t+m, whose member is
    optimised truncated at t+m, as `truncate(space.member(r), t + m)`."""
    rows = conditional_space(space, t, past)
    if isinstance(vf, ModifiedHorizon):
        # the rows agree before t, so their classes at t+m follow from times t..t+m-1
        cols = slice(_start(space.levels, t), _start(space.levels, t + vf.m))
        classes = _first_of_class(space._bits[rows, cols])
        return rows[classes == np.arange(len(rows))]
    return rows


def _selection_keys(vf: ValueFunction, space: PolicySpace, rows: np.ndarray, t: int) -> np.ndarray:
    """Deterministic tie-break order of the members `rows` (increasing rows
    of `space`), best first, as positions in `rows`.

    Base rule: smallest row. For SimpleHorizon, members are first ranked by
    the earliest row sharing their truncation at t+m, preferring a member
    that equals its own truncation (only +0.0 bits from t+m on). This
    mirrors the modified variant's feasible set, the first row of each
    class truncated, so that on truncation-closed spaces both variants
    select identical policies, not merely equal-valued ones.
    """
    if not isinstance(vf, SimpleHorizon):
        return np.arange(len(rows))
    cut = _start(space.levels, t + vf.m)
    bits = space._bits[rows]
    return np.lexsort((rows, bits[:, cut:].any(axis=1), _first_of_class(bits[:, :cut])))


def uniform_maximizer(
    vf: ValueFunction,
    market: MarketModel,
    feasible: PolicySpace,
    t: int,
    tol: float = 1e-9,
) -> Policy:
    """A member whose time-t value slice dominates every member's slice at
    every time-t node, within `tol`.

    Built by per-node argmax and pasting along time-t subtrees; the paste
    must land nodewise in the space (pasting closure), otherwise a single
    dominating member is accepted, and failing that NoUniformMaximizer is
    raised.
    """
    check_tol(tol)
    values = _member_value(vf, market, feasible, t, {}).array
    policy, _ = _maximize(vf, market, np.arange(len(feasible)), t, tol, feasible, values)
    return policy


def _maximize(
    vf: ValueFunction,
    market: MarketModel,
    feasible: np.ndarray,
    t: int,
    tol: float,
    space: PolicySpace,
    values: np.ndarray,
    cut: int | None = None,
) -> tuple[Policy, Slice]:
    """The uniform maximiser among the members `feasible`, increasing rows
    of `space` truncated at `cut` when one is given, whose time-t values
    are `values`, (members, N_t).

    Per node, the best-ranked member within tol of the top value wins.
    The result is the single winner; else the paste of the winners along
    their time-t subtrees if it is a member; else the first member that
    dominates at every node within tol."""
    tree = market.tree
    level = tree.sorted_nodes_at(t)
    near = values >= values.max(axis=0) - tol
    ranks = np.argsort(_selection_keys(vf, space, feasible, t))
    # per node, the position of the best-ranked member within tol of the top value
    chosen = np.where(near, ranks[:, None], len(feasible)).argmin(axis=0)

    single = (chosen == chosen[0]).all()
    i = int(chosen[0]) if single else _pasted(tree, space, feasible, t, cut, chosen)
    if i is None:
        (dominating,) = np.nonzero(near.all(axis=1))
        if not dominating.size:
            raise NoUniformMaximizer(
                "per-node argmax pastes to a policy outside the space and no member dominates"
            )
        i = int(dominating[0])
    policy = space.member(feasible[i])
    return policy if cut is None else truncate(policy, cut), Slice(t, level, values[i])


def _pasted(
    tree: ScenarioTree,
    space: PolicySpace,
    feasible: np.ndarray,
    t: int,
    cut: int | None,
    chosen: np.ndarray,
) -> int | None:
    """The position in `feasible` of the paste that follows, below each
    time-t node, the member at that node's position in `chosen`, or None
    if the members chosen disagree before t or the paste is no member."""
    bits = space._bits[feasible]
    if cut is not None:
        bits = np.where(np.arange(bits.shape[1]) < _start(space.levels, cut), bits, 0)
    start, first = _start(space.levels, t), chosen.min()
    if (bits[chosen, :start] != bits[first, :start]).any():
        return None
    # one gather: a column from time t on takes the member chosen at its
    # time-t ancestor, an earlier column the common prefix
    source = np.concatenate([np.full(start, first), chosen[_column_owners(tree, space, t)]])
    pasted = bits[source, np.arange(len(source))]
    (match,) = np.nonzero((bits == pasted).all(axis=1))
    return int(match[0]) if match.size else None


def _row_values(
    vf: _Horizon,
    market: MarketModel,
    wealth: AdaptedProcess,
    rows: np.ndarray,
    t: int,
) -> np.ndarray:
    """Time-t values, (members, N_t), of the members `rows` of the space
    whose wealth is `wealth`: Simple values their wealth at min(t+m, T);
    Modified values them truncated at t+m, whose wealth at each time-T
    node is theirs at its time-(t+m) ancestor."""
    tree = market.tree
    T = tree.horizon
    s = min(t + vf.m, T)
    w = wealth.at(s).array[rows]
    if isinstance(vf, ModifiedHorizon):
        w, s = w[:, tree.leaf_ancestor_rows(s)], T
    return evaluate(vf.op, tree, Slice(s, tree.sorted_nodes_at(s), w), t).array


@dataclass(frozen=True, eq=False)
class PolicyChoice:
    """Output of a sequential run: the per-time chosen policies, the policy
    actually realised (time-t allocation of the time-t choice), the recorded
    per-time value slices, and the value function the run optimised."""

    chosen: tuple[Policy, ...]
    realized: Policy
    values: tuple[Slice, ...]
    vf: ValueFunction

    def is_viable(self) -> bool:
        """Later choices never rewrite earlier decisions: each agrees with
        the one before it at every time before its own, and so, as prefixes
        nest, with every earlier choice x_s at the times up to s."""
        chosen = self.chosen
        return all(chosen[t].agrees_before(chosen[t - 1], t) for t in range(1, len(chosen)))


def run_policy_choice(
    vf: ValueFunction,
    market: MarketModel,
    space: PolicySpace,
    tol: float = 1e-9,
) -> PolicyChoice:
    """Sequentially optimise: at each t, restrict the space to the realised
    prefix, maximise the time-t value, and commit the time-t allocation.
    """
    check_tol(tol)
    tree = market.tree
    chosen: list[Policy] = []
    values: list[Slice] = []
    past: Policy | None = None
    # Terminal and Bellman optimise over conditional spaces, whose members are
    # the space's own, so one pass over the space gives every time's values.
    # Simple and Modified value only the feasible rows, from the space's
    # wealth, for speed: feasible sets shrink as the prefix is fixed, and on
    # the stop-d4 benchmark markets a pass over the whole space made Simple
    # runs take 9-16% and Modified runs about 50% longer.
    whole = isinstance(vf, (Terminal, BellmanAdditive))
    if whole:
        process = value_process(vf, market, space, range(tree.horizon))
    else:
        wealth = wealth_process(market, space)
    for t in range(tree.horizon):
        try:
            rows = feasible_set(vf, space, t, past)
            row_values = process[t][rows] if whole else _row_values(vf, market, wealth, rows, t)
            cut = t + vf.m if isinstance(vf, ModifiedHorizon) else None
            x_t, v_t = _maximize(vf, market, rows, t, tol, space, row_values, cut)
        except (EmptyConditionalSpace, NoUniformMaximizer) as exc:
            raise type(exc)(f"{exc} (decision time {t})") from exc
        chosen.append(x_t)
        values.append(v_t)
        past = x_t
    realized = Policy(
        chosen[0].nodes if chosen else (),
        tuple(x_t.levels[t] for t, x_t in enumerate(chosen)),
        label="realized",
    )
    return PolicyChoice(tuple(chosen), realized, tuple(values), vf)
