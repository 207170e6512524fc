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

import math
from dataclasses import dataclass
from typing import Callable

from .errors import (
    EmptyConditionalSpace,
    MismatchedInputs,
    NoUniformMaximizer,
    TimeOrderError,
)
from .expectations import ExpectationOperator, evaluate
from .market import (
    Event,
    MarketModel,
    Policy,
    PolicySpace,
    conditional_space,
    paste,
    truncate,
    wealth_process,
)
from .tree import AdaptedProcess, ScenarioTree, Slice

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


def _bellman_value(vf: BellmanAdditive, market: MarketModel, policy: Policy, t: int) -> Slice:
    tree = market.tree
    vals = {n: 0.0 for n in tree.nodes_at(tree.horizon)}
    for u in range(tree.horizon - 1, t - 1, -1):
        rows = policy.levels[u].tolist()
        vals = {
            n: vf.payoff(n, tuple(rows[tree.row(n)]))
            + math.fsum(tree.node(c).branch_prob * vals[c] for c in tree.children(n))
            for n in tree.nodes_at(u)
        }
    return Slice(t, vals)


def _operator_value(
    vf: SimpleHorizon | ModifiedHorizon | Terminal,
    tree: ScenarioTree,
    wealth: AdaptedProcess,
    t: int,
) -> Slice:
    if isinstance(vf, SimpleHorizon):
        s = min(t + vf.m, tree.horizon)  # wealth is frozen after T
    else:
        s = tree.horizon
    return evaluate(vf.op, tree, wealth.at(s), t)


def _member_value(
    vf: ValueFunction,
    market: MarketModel,
    policy: Policy,
    t: int,
    wealth_cache: dict[bytes, AdaptedProcess],
) -> Slice:
    if isinstance(vf, BellmanAdditive):
        return _bellman_value(vf, market, policy, t)
    wealth = wealth_cache.get(policy.key)
    if wealth is None:
        wealth = wealth_process(market, policy)
        wealth_cache[policy.key] = wealth
    return _operator_value(vf, market.tree, wealth, t)


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
        return PolicySpace(
            tuple(truncate(p, t + vf.m) for p in cond.policies),
            label=f"{cond.label}|cut{t + vf.m}",
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
    first_seen: dict[tuple, int] = {}
    keys = []
    for i, p in enumerate(members):
        trunc_key = truncate(p, t + vf.m).key
        cls = first_seen.setdefault(trunc_key, i)
        keys.append((cls, 0 if p.key == trunc_key else 1, i))
    return keys


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
    policy, _ = _maximize(vf, market, feasible, t, tol, {})
    return policy


def _maximize(
    vf: ValueFunction,
    market: MarketModel,
    feasible: PolicySpace,
    t: int,
    tol: float,
    wealth_cache: dict,
) -> tuple[Policy, Slice]:
    tree = market.tree
    members = feasible.policies
    slices = [_member_value(vf, market, p, t, wealth_cache) for p in members]
    level = tree.nodes_at(t)
    order = _selection_keys(vf, members, t)

    best: dict[str, float] = {}
    chosen: dict[str, int] = {}
    for n in level:
        top = max(sl[n] for sl in slices)
        best[n] = top
        chosen[n] = min(
            (i for i, sl in enumerate(slices) if sl[n] >= top - tol),
            key=order.__getitem__,
        )

    picked = set(chosen.values())
    if len(picked) == 1:
        i = picked.pop()
        return members[i], slices[i]

    # distinct per-node winners: paste them along their time-t subtrees
    winners = sorted(picked)
    pasted = members[winners[0]]
    if all(pasted.agrees_before(members[j], t) for j in winners[1:]):
        for j in winners[1:]:
            event = Event(t, frozenset(n for n in level if chosen[n] == j))
            pasted = paste(tree, event, members[j], pasted)
        idx = feasible._keys.get(pasted.key)
        if idx is not None:
            return members[idx], slices[idx]

    for i, sl in enumerate(slices):
        if all(sl[n] >= best[n] - tol for n in level):
            return members[i], sl
    raise NoUniformMaximizer(
        "per-node argmax pastes to a policy outside the space and no member dominates"
    )


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
    mode: str | None = None,
    tol: float = 1e-9,
) -> PolicyChoice:
    """Sequentially optimise: at each t, restrict the space to the realised
    prefix, maximise the time-t value, and commit the time-t allocation.
    """
    derived = run_mode(vf)
    if mode is not None and mode != derived:
        raise MismatchedInputs(f"mode {mode!r} does not match the {derived!r} value function")
    tree = market.tree
    wealth_cache: dict[bytes, AdaptedProcess] = {}
    chosen: list[Policy] = []
    values: list[Slice] = []
    past: Policy | None = None
    for t in range(tree.horizon):
        try:
            feas = feasible_set(vf, space, t, past)
            x_t, v_t = _maximize(vf, market, feas, t, tol, wealth_cache)
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
    return PolicyChoice(tuple(chosen), realized, tuple(values), derived, space)
