"""Value functions and the naive sequential policy-choice engine.

Four value-function variants are provided:

* SimpleHorizon: operator value of wealth m steps ahead, clamped at T.
* ModifiedHorizon: operator value of terminal wealth, with the feasible
  set truncated m steps ahead at each decision time.
* Terminal: operator value of terminal wealth over the full feasible set.
* BellmanAdditive: backward recursion of stagewise payoffs under
  classical conditional expectation.

`value_process` gives a policy's or a space's values at many times from
one backward pass. Runs, the consistency checks, `value` and
`uniform_maximizer` all read it; only a modified run values its members
anew at each decision time t, truncated at t+m.

The engine chooses, at each time t, a policy whose time-t value slice
dominates every feasible member's slice at every time-t node. Such a
policy is assembled by per-node argmax followed by pasting, which is a
valid maximiser because all four variants satisfy the zero-one law on
prefix-agreeing policies. The prefix classes, the truncation flag and the
lookup of the paste among the members come from market.py.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import EmptyConditionalSpace, NoUniformMaximizer
from .expectations import ExpectationOperator, evaluate, evaluate_levels
from .market import (
    MarketModel,
    Policy,
    PolicySpace,
    _member_axis,
    check_fits,
    conditional_space,
    equals_truncation,
    pasted_row,
    prefix_classes,
    truncate,
    wealth_process,
)
from .tree import AdaptedProcess, Slice, check_count, check_time, check_tol


@dataclass(frozen=True)
class _Horizon:
    """The fields and the integer m >= 1 check of the two horizon variants."""

    m: int
    op: ExpectationOperator

    def __post_init__(self):
        check_count(self.m, "horizon length", 1)


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
    check_fits(market, x)
    T = market.tree.horizon
    times = list(times)
    for t in times:
        check_time(t, 0, T)
    times = sorted(set(times))
    if isinstance(vf, BellmanAdditive):
        return _bellman_process(vf, market, x, times)
    if not times:
        return {}
    wealth = wealth_process(market, x) if wealth_cache is None else _wealth(market, x, wealth_cache)
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
    wealth_cache: dict | None,
) -> Slice:
    """Time-t values of a policy, (N_t,), or of a space's members, (P, N_t)."""
    values = value_process(vf, market, x, [t], wealth_cache)[t]
    return Slice(t, market.tree.sorted_nodes_at(t), values)


def value(vf: ValueFunction, market: MarketModel, policy: Policy, t: int) -> Slice:
    """The time-t value slice the variant assigns to the policy."""
    return _member_value(vf, market, policy, t, None)


def feasible_set(
    vf: ValueFunction, space: PolicySpace, t: int, past: Policy | None = None
) -> np.ndarray:
    """The rows of `space` optimised over at time t, in increasing order:
    the conditional space given the past, and for the modified variant
    only the first row of each prefix class at t+m, whose member is
    optimised truncated at t+m, as `truncate(space.member(r), t + m)`."""
    rows = conditional_space(space, t, past)
    if isinstance(vf, ModifiedHorizon):
        return rows[prefix_classes(space, t + vf.m, rows) == rows]
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
    cut = t + vf.m
    zero_tail = equals_truncation(space, cut, rows)
    return np.lexsort((rows, ~zero_tail, prefix_classes(space, cut, rows)))


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
    values = _member_value(vf, market, feasible, t, None).array
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
    level = market.tree.sorted_nodes_at(t)
    near = values >= values.max(axis=0) - tol
    ranks = np.argsort(_selection_keys(vf, space, feasible, t))
    # per node, the position of the best-ranked member within tol of the top value
    chosen = np.where(near, ranks[:, None], len(feasible)).argmin(axis=0)

    single = (chosen == chosen[0]).all()
    i = int(chosen[0]) if single else pasted_row(market.tree, space, feasible, t, chosen, cut)
    if i is None:
        (dominating,) = np.nonzero(near.all(axis=1))
        if not dominating.size:
            raise NoUniformMaximizer(
                "per-node argmax pastes to a policy outside the space and no member dominates"
            )
        i = int(dominating[0])
    policy = space.member(feasible[i])
    return policy if cut is None else truncate(policy, cut), Slice(t, level, values[i])


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

    A modified run values its feasible members truncated at t+m, anew at
    each t; every other run reads one value_process pass over the space.
    """
    check_tol(tol)
    tree = market.tree
    chosen: list[Policy] = []
    values: list[Slice] = []
    past: Policy | None = None
    T = tree.horizon
    modified = isinstance(vf, ModifiedHorizon)
    if modified:
        wealth = wealth_process(market, space)
    else:
        process = value_process(vf, market, space, range(T))
    for t in range(T):
        try:
            rows = feasible_set(vf, space, t, past)
            cut = t + vf.m if modified else None
            if modified:
                # a member truncated at t+m holds at each time-T node its
                # wealth at that node's time-(t+m) ancestor
                s = min(cut, T)
                w = wealth.at(s).array[rows][:, tree.ancestor_rows(s)[-1]]
                row_values = evaluate(vf.op, tree, Slice(T, tree.sorted_nodes_at(T), w), t).array
            else:
                row_values = process[t][rows]
            x_t, v_t = _maximize(vf, market, rows, t, tol, space, row_values, cut)
        except (EmptyConditionalSpace, NoUniformMaximizer) as exc:
            raise type(exc)(f"{exc} (decision time {t})") from exc
        chosen.append(x_t)
        values.append(v_t)
        past = x_t
    levels = tuple(x_t.levels[t] for t, x_t in enumerate(chosen))
    realized = Policy(tree.decision_levels, levels, label="realized")
    return PolicyChoice(tuple(chosen), realized, tuple(values), vf)
