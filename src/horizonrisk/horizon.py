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
from .expectations import ExpectationOperator, evaluate, evaluate_levels
from .market import (
    Event,
    MarketModel,
    Policy,
    PolicySpace,
    _member_axis,
    conditional_space,
    paste,
    prefix_classes,
    truncate,
    truncated_key,
    wealth_process,
)
from .tree import AdaptedProcess, Slice

SIMPLE = "simple"
MODIFIED = "modified"


@dataclass(frozen=True)
class SimpleHorizon:
    m: int
    op: ExpectationOperator

    def __post_init__(self):
        if self.m < 1:
            raise ValueError(f"horizon length must be >= 1, got {self.m}")


@dataclass(frozen=True)
class ModifiedHorizon:
    m: int
    op: ExpectationOperator

    def __post_init__(self):
        if self.m < 1:
            raise ValueError(f"horizon length must be >= 1, got {self.m}")


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


def run_mode(vf: ValueFunction) -> str:
    return MODIFIED if isinstance(vf, ModifiedHorizon) else SIMPLE


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
    tree = market.tree
    if isinstance(vf, BellmanAdditive):
        return Slice(t, tree.sorted_nodes_at(t), _bellman_process(vf, market, x, [t])[t])
    wealth = _wealth(market, x, wealth_cache)
    T = tree.horizon
    s = min(t + vf.m, T) if isinstance(vf, SimpleHorizon) else T  # wealth is frozen after T
    return evaluate(vf.op, tree, wealth.at(s), t)


def value(vf: ValueFunction, market: MarketModel, policy: Policy, t: int) -> Slice:
    """The time-t value slice the variant assigns to the policy."""
    if not 0 <= t <= market.tree.horizon:
        raise TimeOrderError(f"time {t} outside 0..{market.tree.horizon}")
    return _member_value(vf, market, policy, t, {})


def feasible_set(
    vf: ValueFunction, space: PolicySpace, t: int, past: Policy | None = None
) -> PolicySpace:
    """The set optimised over at time t: the conditional space given the
    past, additionally truncated at t+m for the modified variant."""
    cond = conditional_space(space, t, past)
    if isinstance(vf, ModifiedHorizon):
        cut = t + vf.m
        classes = prefix_classes(cond.policies, cut)
        return PolicySpace(
            tuple(truncate(p, cut) for i, p in enumerate(cond.policies) if classes[i] == i),
            label=f"{cond.label}|cut{cut}",
        )
    return cond


def _selection_keys(vf: ValueFunction, members: tuple[Policy, ...], t: int) -> list[tuple]:
    """Deterministic tie-break order per member.

    Base rule: smallest stored index. For SimpleHorizon, members are first
    ranked by the stored index of the earliest member sharing their
    truncation at t+m, preferring a member that equals its own truncation.
    This mirrors the dedup order of the modified variant's feasible set, so
    that on truncation-closed spaces both variants select identical
    policies, not merely equal-valued ones.
    """
    if not isinstance(vf, SimpleHorizon):
        return [(i,) for i in range(len(members))]
    cut = t + vf.m
    classes = prefix_classes(members, cut)
    return [
        (cls, 0 if p.key == truncated_key(p, cut) else 1, i)
        for i, (cls, p) in enumerate(zip(classes, members))
    ]


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
    policy, _ = _maximize(vf, market, feasible, t, tol)
    return policy


def _maximize(
    vf: ValueFunction,
    market: MarketModel,
    feasible: PolicySpace,
    t: int,
    tol: float,
    values: np.ndarray | None = None,
) -> tuple[Policy, Slice]:
    """`values` are the feasible members' time-t values, (members, N_t),
    when the caller already has them."""
    tree = market.tree
    level = tree.sorted_nodes_at(t)
    members = feasible.policies
    if values is None:
        values = _member_value(vf, market, feasible, t, {}).array
    near = values >= values.max(axis=0) - tol
    order = _selection_keys(vf, members, t)
    ranks = np.empty(len(members), dtype=np.intp)
    ranks[sorted(range(len(members)), key=order.__getitem__)] = np.arange(len(members))
    # per node, the best-ranked member within tol of the top value
    chosen = np.where(near, ranks[:, None], len(members)).argmin(axis=0)

    # the single per-node winner, else the paste of the winners along their
    # time-t subtrees if it lies in the space, else the first dominating member
    winners = sorted(set(chosen.tolist()))
    i = winners[0] if len(winners) == 1 else None
    pasted = members[winners[0]]
    if i is None and all(pasted.agrees_before(members[j], t) for j in winners[1:]):
        for j in winners[1:]:
            event = Event(t, frozenset(level[k] for k in np.flatnonzero(chosen == j)))
            pasted = paste(tree, event, members[j], pasted)
        i = feasible._keys.get(pasted.key)
    if i is None:
        dominating = np.flatnonzero(near.all(axis=1))
        if not dominating.size:
            raise NoUniformMaximizer(
                "per-node argmax pastes to a policy outside the space and no member dominates"
            )
        i = int(dominating[0])
    return members[i], Slice(t, level, values[i])


@dataclass(frozen=True, eq=False)
class PolicyChoice:
    """Output of a sequential run: the per-time chosen policies, the policy
    actually realised (time-t allocation of the time-t choice), the recorded
    per-time value slices, and the space optimised over."""

    chosen: tuple[Policy, ...]
    realized: Policy
    values: tuple[Slice, ...]
    mode: str
    space: PolicySpace

    def is_viable(self) -> bool:
        """Later choices never rewrite earlier decisions."""
        for t, x_t in enumerate(self.chosen):
            for s in range(t):
                if not x_t.agrees_before(self.chosen[s], s + 1):
                    return False
        return True

    def realizes_final_choice(self) -> bool:
        """The realised policy coincides nodewise with the last choice."""
        if not self.chosen:
            return True
        return self.realized.key == self.chosen[-1].key


def run_policy_choice(
    vf: ValueFunction,
    market: MarketModel,
    space: PolicySpace,
    tol: float = 1e-9,
) -> PolicyChoice:
    """Sequentially optimise: at each t, restrict the space to the realised
    prefix, maximise the time-t value, and commit the time-t allocation.
    """
    tree = market.tree
    chosen: list[Policy] = []
    values: list[Slice] = []
    past: Policy | None = None
    # Terminal and Bellman optimise over conditional spaces, whose members are
    # the space's own, so one pass over the space gives every time's values.
    # A pass over the whole space for Simple and Modified would value wealth
    # of members no feasible set holds, where the entropic guard may fire.
    process = (
        value_process(vf, market, space, range(tree.horizon))
        if isinstance(vf, (Terminal, BellmanAdditive))
        else None
    )
    for t in range(tree.horizon):
        try:
            feas = feasible_set(vf, space, t, past)
            rows = None if process is None else process[t][
                [space._keys[p.key] for p in feas.policies]
            ]
            x_t, v_t = _maximize(vf, market, feas, t, tol, rows)
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
    return PolicyChoice(tuple(chosen), realized, tuple(values), run_mode(vf), space)
