"""Verdicts on sequential choices: time consistency, dependability,
intertemporal monotonicity of a value function, and the acceptability
workflow over stopping-time policy spaces.

Almost-sure statements are evaluated at every node of the relevant slice
with an explicit tolerance; reports carry the extreme signed gaps so that
near-misses stay visible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import MismatchedInputs
from .expectations import ExpectationOperator, check_tol
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
    value_process,
)
from .market import (
    MarketModel,
    Policy,
    PolicySpace,
    prefix_classes,
    stopping_time_space,
    truncate,
    zero_policy,
)
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
    check_tol(tol)
    _validate_choice(vf, market, choice)
    tree = market.tree
    wealth_cache: dict = {}
    realized_values = value_process(
        vf, market, choice.realized, range(len(choice.chosen)), wealth_cache
    )
    records = []
    for t, x_t in enumerate(choice.chosen):
        planned = _member_value(vf, market, x_t, t, wealth_cache)
        recorded = choice.values[t]
        pairs = zip(planned.array.tolist(), recorded.array.tolist())  # NaN matches only NaN
        if any(abs(p - r) > max(tol, 1e-12) or math.isnan(p) != math.isnan(r) for p, r in pairs):
            raise MismatchedInputs(
                f"recorded value slice at t={t} does not match this value function and market"
            )
        realized = Slice(t, tree.sorted_nodes_at(t), realized_values[t])
        gaps = (planned.array - realized.array).tolist()
        # max and min skip a NaN that is not first: any NaN gap makes both NaN
        hi, lo = (math.nan, math.nan) if any(map(math.isnan, gaps)) else (max(gaps), min(gaps))
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


def _first_meeting(srt: np.ndarray, keys: np.ndarray, c: np.ndarray, tol: float) -> np.ndarray:
    """For each j, the first index q with `srt[q] - c[j] >= -tol`, or
    len(srt) if there is none. The predicate must hold on a suffix of
    `srt`, and `keys` is `srt` with NaN read as -inf, in ascending order.

    `searchsorted` gives a guess that rounding or ties may move by a few
    places; a guess is kept where the predicate holds at it and fails just
    before it, and the rest are found by binary search on the predicate.
    """
    P = len(srt)
    first = np.searchsorted(keys, c - tol)
    holds_at = (first == P) | (srt[np.minimum(first, P - 1)] - c >= -tol)
    fails_before = (first == 0) | ~(srt[first - 1] - c >= -tol)
    (bad,) = np.nonzero(~(holds_at & fails_before))
    if bad.size:
        lo, hi, cj = np.zeros_like(bad), np.full_like(bad, P), c[bad]
        while (active := lo < hi).any():
            mid = (lo + hi) // 2
            holds = srt[np.minimum(mid, P - 1)] - cj >= -tol
            hi = np.where(active & holds, mid, hi)
            lo = np.where(active & ~holds, mid + 1, lo)
        first[bad] = lo
    return first


def _dominance(values: np.ndarray, tol: float) -> np.ndarray:
    """dom[i, j]: `values[i] - values[j] >= -tol` in every column of the
    (P, N) values, evaluated in floating point as written.

    Rounding is monotone, so in a column c, `c[i] - c[j]` never decreases as
    c[i] grows, and the rows i meeting the predicate for a given j are a
    suffix of the column's sort. The sort puts NaN with -inf, below every
    suffix: neither meets the predicate against any j. Row i then meets it
    exactly when its sort position is at least the first position meeting
    it for j. Per column: one sort, one search, and one P x P compare of
    integers on the smallest dtype that holds P.
    """
    P = len(values)
    rank = np.min_scalar_type(P)
    dom = np.ones((P, P), dtype=bool)
    for c in values.T:
        keys = np.where(np.isnan(c), -np.inf, c)
        order = np.argsort(keys)
        pos = np.empty(P, dtype=rank)
        pos[order] = np.arange(P, dtype=rank)
        first = _first_meeting(c[order], keys[order], c, tol).astype(rank)
        dom &= pos[:, None] >= first
    return dom


def intertemporal_monotonicity(
    vf: ValueFunction, market: MarketModel, space: PolicySpace, tol: float = 1e-9
) -> MonotonicityReport:
    """Exact search for a monotonicity breach of the value function.

    For every ordered pair (X, X') in the space agreeing nodewise before t,
    and every s < t <= T-1: if the time-t value of X dominates that of X' at
    every node (within tol), the time-s value must as well. The first breach
    in lexicographic (t, s, pair) order is returned as a witness. Every pair
    is decided, as P x P boolean matrices: the breaches at (t, s) are
    agree_t & dom_t & ~dom_s, and the first True in row-major order is the
    smallest pair. dom_u[i, j] holds where member i's time-u values are at
    least member j's minus tol at every node; per node it is read from sort
    ranks (see `_dominance`), which gives the same booleans as the float
    differences because rounding is monotone: one sort and one P x P integer
    compare per node.
    """
    check_tol(tol)
    tree = market.tree
    T = tree.horizon
    process = value_process(vf, market, space, range(T))
    arrays = [process[t] for t in range(T)]
    dom = [_dominance(a, tol) for a in arrays]
    rank = np.min_scalar_type(len(space))

    pairs_checked = 0
    for t in range(1, T):
        classes = prefix_classes(space, t)
        sizes = np.bincount(classes)
        agreeing = int((sizes * (sizes - 1)).sum())
        classes = classes.astype(rank)
        agree = classes[:, None] == classes
        np.fill_diagonal(agree, False)
        dominating = agree & dom[t]
        for s in range(t):
            pairs_checked += agreeing
            breach = dominating & ~dom[s]
            if breach.any():
                i, j = map(int, np.argwhere(breach)[0])
                below = ~(arrays[s][i] - arrays[s][j] >= -tol)
                node = next(n for n in tree.nodes_at(s) if below[tree.row(n)])
                witness = MonotonicityWitness(
                    x=space.member(i),
                    x_prime=space.member(j),
                    t=t,
                    s=s,
                    node=node,
                    upper_x=Slice(t, tree.sorted_nodes_at(t), arrays[t][i]),
                    upper_x_prime=Slice(t, tree.sorted_nodes_at(t), arrays[t][j]),
                    lower_x=Slice(s, tree.sorted_nodes_at(s), arrays[s][i]),
                    lower_x_prime=Slice(s, tree.sorted_nodes_at(s), arrays[s][j]),
                )
                return MonotonicityReport(False, witness, tol, pairs_checked)
    return MonotonicityReport(True, None, tol, pairs_checked)


def acceptability_check(
    market: MarketModel,
    x: Policy,
    m: int,
    op: ExpectationOperator,
    tol: float = 1e-9,
) -> AcceptabilityReport:
    """Could the candidate policy be abandoned at any stopping time without
    invalidating today's assessment?

    Builds the stopping-time space over `x`, runs the modified problem, and
    reports the chain

        terminal(realised) >= terminal(time-0 choice) >= terminal(x truncated at m)

    at the root, together with whether the candidate is acceptable, meaning
    its full terminal value is at least that of the all-zero policy.
    """
    check_tol(tol)
    tree = market.tree
    space = stopping_time_space(tree, x)
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
