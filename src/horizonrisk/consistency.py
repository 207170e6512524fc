"""Verdicts on sequential choices: time consistency, dependability,
intertemporal monotonicity of a value function, and the acceptability
workflow over stopping-time policy spaces.

Almost-sure statements are evaluated at every node of the relevant slice
with an explicit tolerance; reports carry the extreme signed gaps so that
near-misses stay visible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import MismatchedInputs
from .expectations import ExpectationOperator
from .horizon import (
    MODIFIED,
    ModifiedHorizon,
    PolicyChoice,
    Terminal,
    ValueFunction,
    _member_value,
    run_mode,
    run_policy_choice,
    value,
)
from .market import MarketModel, Policy, PolicySpace, stopping_time_space, truncate, zero_policy
from .tree import Slice


@dataclass(frozen=True)
class TimeRecord:
    time: int
    planned: Slice    # value slice of the time-t choice
    realized: Slice   # value slice of the realised policy at time t
    max_signed_gap: float  # max over nodes of planned - realized
    min_signed_gap: float  # min over nodes of planned - realized
    ok: bool


@dataclass(frozen=True)
class ConsistencyReport:
    """Per-time equality of planned and realised values."""

    records: tuple[TimeRecord, ...]
    ok: bool
    tol: float


@dataclass(frozen=True)
class DependabilityReport:
    """Per-time one-sided comparison: planned never exceeds realised."""

    records: tuple[TimeRecord, ...]
    ok: bool
    tol: float


@dataclass(frozen=True)
class MonotonicityWitness:
    x: Policy
    x_prime: Policy
    t: int
    s: int
    node: str
    upper_x: Slice
    upper_x_prime: Slice
    lower_x: Slice
    lower_x_prime: Slice


@dataclass(frozen=True)
class MonotonicityReport:
    ok: bool
    witness: MonotonicityWitness | None
    tol: float
    pairs_checked: int


@dataclass(frozen=True)
class AcceptabilityReport:
    """Root values of the modified run over the stopping-time space of a
    candidate policy, the comparison chain, and the acceptability verdict."""

    realized_value: float            # terminal value of the realised policy
    chosen_value: float              # terminal value of the time-0 choice
    candidate_horizon_value: float   # value of the candidate truncated at the horizon
    candidate_terminal_value: float  # terminal value of the full candidate
    null_value: float                # terminal value of the all-zero policy (threshold)
    initial_wealth: float
    chain_ok: bool
    acceptable: bool
    tol: float
    m: int
    space_size: int


def _validate_choice(vf: ValueFunction, market: MarketModel, choice: PolicyChoice) -> None:
    if run_mode(vf) != choice.mode:
        raise MismatchedInputs(
            f"choice was produced in {choice.mode!r} mode, value function is {run_mode(vf)!r}"
        )
    if len(choice.chosen) != market.tree.horizon:
        raise MismatchedInputs(
            f"choice has {len(choice.chosen)} decision times, market tree has {market.tree.horizon}"
        )
    for t, nodes in enumerate(choice.realized.nodes):
        if nodes != market.tree.sorted_nodes_at(t):
            raise MismatchedInputs(f"realised policy does not live on this market's tree (t={t})")


def _per_time_records(
    vf: ValueFunction, market: MarketModel, choice: PolicyChoice, tol: float, one_sided: bool
) -> tuple[TimeRecord, ...]:
    _validate_choice(vf, market, choice)
    wealth_cache: dict = {}
    records = []
    for t, x_t in enumerate(choice.chosen):
        planned = _member_value(vf, market, x_t, t, wealth_cache)
        recorded = choice.values[t]
        if max(abs(planned[n] - recorded[n]) for n in planned.values) > max(tol, 1e-12):
            raise MismatchedInputs(
                f"recorded value slice at t={t} does not match this value function and market"
            )
        realized = _member_value(vf, market, choice.realized, t, wealth_cache)
        gaps = [planned[n] - realized[n] for n in planned.values]
        hi, lo = max(gaps), min(gaps)
        ok = hi <= tol if one_sided else (hi <= tol and lo >= -tol)
        records.append(TimeRecord(t, planned, realized, hi, lo, ok))
    return tuple(records)


def check_time_consistency(
    vf: ValueFunction, market: MarketModel, choice: PolicyChoice, tol: float = 1e-9
) -> ConsistencyReport:
    """Is the value of each planned choice equal, at every node, to the value
    of the policy that was eventually realised?"""
    records = _per_time_records(vf, market, choice, tol, one_sided=False)
    return ConsistencyReport(records, all(r.ok for r in records), tol)


def check_dependability(
    vf: ModifiedHorizon, market: MarketModel, choice: PolicyChoice, tol: float = 1e-9
) -> DependabilityReport:
    """Does later re-optimisation never degrade the value assessed at any
    earlier time? Requires a modified-mode choice."""
    if not isinstance(vf, ModifiedHorizon) or choice.mode != MODIFIED:
        raise MismatchedInputs("dependability is defined for modified-mode choices")
    records = _per_time_records(vf, market, choice, tol, one_sided=True)
    return DependabilityReport(records, all(r.ok for r in records), tol)


def intertemporal_monotonicity(
    vf: ValueFunction, market: MarketModel, space: PolicySpace, tol: float = 1e-9
) -> MonotonicityReport:
    """Brute-force search for a monotonicity breach of the value function.

    For every ordered pair (X, X') in the space agreeing nodewise before t,
    and every s < t <= T-1: if the time-t value of X dominates that of X' at
    every node (within tol), the time-s value must as well. The first breach
    in lexicographic (t, s, pair) order is returned as a witness. The pair
    sweep is vectorised but remains an exhaustive enumeration.
    """
    tree = market.tree
    T = tree.horizon
    members = space.policies
    wealth_cache: dict = {}
    value_slices = [
        [_member_value(vf, market, p, t, wealth_cache) for t in range(T)] for p in members
    ]
    arrays = [
        np.array(
            [[value_slices[i][t][n] for n in tree.nodes_at(t)] for i in range(len(members))]
        )
        for t in range(T)
    ]
    pairs_checked = 0
    for t in range(1, T):
        groups: dict[bytes, list[int]] = {}
        for i, p in enumerate(members):
            groups.setdefault(p.prefix(t), []).append(i)
        for s in range(t):
            hit: tuple[int, int] | None = None
            for idx in groups.values():
                if len(idx) < 2:
                    continue
                sub_t = arrays[t][idx]
                sub_s = arrays[s][idx]
                dominates_t = (sub_t[:, None, :] - sub_t[None, :, :]).min(axis=2) >= -tol
                dominates_s = (sub_s[:, None, :] - sub_s[None, :, :]).min(axis=2) >= -tol
                pairs_checked += len(idx) * (len(idx) - 1)
                breach = dominates_t & ~dominates_s
                np.fill_diagonal(breach, False)
                if breach.any():
                    for a, b in np.argwhere(breach):
                        pair = (idx[a], idx[b])
                        if hit is None or pair < hit:
                            hit = pair
            if hit is not None:
                i, j = hit
                node = next(
                    n
                    for n in tree.nodes_at(s)
                    if value_slices[i][s][n] < value_slices[j][s][n] - tol
                )
                witness = MonotonicityWitness(
                    x=members[i],
                    x_prime=members[j],
                    t=t,
                    s=s,
                    node=node,
                    upper_x=value_slices[i][t],
                    upper_x_prime=value_slices[j][t],
                    lower_x=value_slices[i][s],
                    lower_x_prime=value_slices[j][s],
                )
                return MonotonicityReport(False, witness, tol, pairs_checked)
    return MonotonicityReport(True, None, tol, pairs_checked)


def acceptability_check(
    market: MarketModel,
    x: Policy,
    m: int,
    op: ExpectationOperator,
    tol: float = 1e-9,
    cap: int = 10**6,
) -> AcceptabilityReport:
    """Could the candidate policy be abandoned at any stopping time without
    invalidating today's assessment?

    Builds the stopping-time space over `x`, runs the modified problem, and
    reports the chain

        terminal(realised) >= terminal(time-0 choice) >= terminal(x truncated at m)

    at the root, together with whether the candidate is acceptable, meaning
    its full terminal value is at least that of the all-zero policy.
    """
    tree = market.tree
    space = stopping_time_space(tree, x, cap)
    vf = ModifiedHorizon(m, op)
    choice = run_policy_choice(vf, market, space, tol=tol)
    root = tree.root
    terminal = Terminal(op)
    realized_value = value(terminal, market, choice.realized, 0)[root]
    chosen_value = choice.values[0][root] if choice.values else realized_value
    horizon_value = value(terminal, market, truncate(x, m), 0)[root]
    terminal_value = value(terminal, market, x, 0)[root]
    null_value = value(terminal, market, zero_policy(tree, market.num_assets), 0)[root]
    chain_ok = (
        realized_value >= chosen_value - tol and chosen_value >= horizon_value - tol
    )
    acceptable = terminal_value >= null_value - tol
    return AcceptabilityReport(
        realized_value=realized_value,
        chosen_value=chosen_value,
        candidate_horizon_value=horizon_value,
        candidate_terminal_value=terminal_value,
        null_value=null_value,
        initial_wealth=market.initial_wealth,
        chain_ok=chain_ok,
        acceptable=acceptable,
        tol=tol,
        m=m,
        space_size=len(space),
    )
