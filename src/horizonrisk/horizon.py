"""Value functions and the naive sequential policy-choice engine.

Four value-function variants are provided:

* SimpleHorizon: operator value of wealth m steps ahead, clamped at T.
* ModifiedHorizon: operator value of terminal wealth, with the feasible
  set truncated m steps ahead at each decision time.
* Terminal: operator value of terminal wealth over the full feasible set.
* BellmanAdditive: backward recursion of stagewise payoffs under
  classical conditional expectation.

The engine chooses, at each time t, a policy whose time-t value slice
dominates every feasible member's slice at every time-t node. Such a
policy is assembled by per-node argmax followed by pasting, which is a
valid maximiser because all four variants satisfy the zero-one law on
prefix-agreeing policies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    EmptyConditionalSpace,
    NoUniformMaximizer,
    TimeOrderError,
)
from .expectations import ExpectationOperator, evaluate
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
    """payoff(node_id, allocation) is the stage reward earned at that node."""

    payoff: Callable[[str, tuple[float, ...]], float]


ValueFunction = SimpleHorizon | ModifiedHorizon | Terminal | BellmanAdditive


def run_mode(vf: ValueFunction) -> str:
    return MODIFIED if isinstance(vf, ModifiedHorizon) else SIMPLE


def _bellman_value(
    vf: BellmanAdditive, market: MarketModel, x: Policy | PolicySpace, t: int
) -> Slice:
    tree = market.tree
    vals = np.zeros(_member_axis(x) + (len(tree.sorted_nodes_at(tree.horizon)),))
    for u in range(tree.horizon - 1, t - 1, -1):
        level, a = tree.sorted_nodes_at(u), x.levels[u]
        rows = a.reshape(-1, a.shape[-1]).tolist()  # member by member, each in node order
        nodes = level * (len(rows) // len(level))
        payoffs = [vf.payoff(n, tuple(row)) for n, row in zip(nodes, rows)]
        vals = np.array(payoffs, dtype=float).reshape(a.shape[:-1]) + tree.fold(u + 1, vals)
    return Slice(t, tree.sorted_nodes_at(t), vals)


def _member_value(
    vf: ValueFunction,
    market: MarketModel,
    x: Policy | PolicySpace,
    t: int,
    wealth_cache: dict[bytes, AdaptedProcess],
) -> Slice:
    """Time-t values of a policy, (N_t,), or of a space's members, (P, N_t)."""
    if isinstance(vf, BellmanAdditive):
        return _bellman_value(vf, market, x, t)
    wealth = wealth_cache.get(x.key)
    if wealth is None:
        wealth = wealth_cache[x.key] = wealth_process(market, x)
    T = market.tree.horizon
    s = min(t + vf.m, T) if isinstance(vf, SimpleHorizon) else T  # wealth is frozen after T
    return evaluate(vf.op, market.tree, wealth.at(s), t)


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
    vf: ValueFunction, market: MarketModel, feasible: PolicySpace, t: int, tol: float
) -> tuple[Policy, Slice]:
    tree = market.tree
    level = tree.sorted_nodes_at(t)
    members = feasible.policies
    values = _member_value(vf, market, feasible, t, {}).array  # (members, N_t)
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
    for t in range(tree.horizon):
        try:
            feas = feasible_set(vf, space, t, past)
            x_t, v_t = _maximize(vf, market, feas, t, tol)
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
