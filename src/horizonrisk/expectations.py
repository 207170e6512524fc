"""F_t-conditional expectation operators on slices, linear and entropic,
plus a randomized verification suite for the four defining axioms
(monotonicity, constant invariance, recursivity, zero-one law).
"""

from __future__ import annotations

import math
import random
from collections.abc import Iterable
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import OverflowGuard, TimeOrderError
from .tree import ScenarioTree, Slice, conditional_expectation

LINEAR = "linear"
ENTROPIC = "entropic"

#: kappa of the base-10 preset, 10/ln 10
PAPER10_KAPPA = 10.0 / math.log(10.0)

#: |q|/gamma beyond this raises OverflowGuard in the entropic operator
MAX_EXPONENT = 700.0

#: trials that axioms_check draws and evaluates together: its memory holds
#: one block's slices, whatever the trial count
AXIOM_BLOCK = 256


@dataclass(frozen=True)
class ExpectationOperator:
    """A conditional operator E(.|F_t) acting on scalar slices.

    "linear" is classical conditional expectation. "entropic" is

        E(Q|F_t) = -kappa * ln E[exp(-Q/gamma) | F_t]

    With kappa == gamma this is the exponential-utility certainty
    equivalent and satisfies all four axioms. With kappa != gamma the
    operator is still monotone and obeys the zero-one law, but constants
    are scaled by kappa/gamma, so constant invariance and recursivity
    fail. The preset `paper10` (kappa = 10/ln 10, gamma = 10) equals
    -10 * log10 E[exp(-Q/10)|F_t] and exists to reproduce quantities
    quoted in base 10; it is not axiom-consistent.
    """

    kind: str
    gamma: float = 1.0
    kappa: float = 1.0

    def __post_init__(self):
        if self.kind not in (LINEAR, ENTROPIC):
            raise ValueError(f"unknown operator kind {self.kind!r}")
        if self.kind == ENTROPIC and not all(
            math.isfinite(v) and v > 0 for v in (self.gamma, self.kappa)
        ):
            raise ValueError(
                "entropic operator needs finite gamma > 0 and kappa > 0, "
                f"got gamma={self.gamma}, kappa={self.kappa}"
            )

    @classmethod
    def linear(cls) -> "ExpectationOperator":
        return cls(LINEAR)

    @classmethod
    def entropic(cls, gamma: float, kappa: float | None = None) -> "ExpectationOperator":
        return cls(ENTROPIC, gamma=gamma, kappa=gamma if kappa is None else kappa)

    @classmethod
    def paper10(cls) -> "ExpectationOperator":
        """Base-10 preset: -10 * log10 E[exp(-Q/10)|F_t]."""
        return cls(ENTROPIC, gamma=10.0, kappa=PAPER10_KAPPA)

    def describe(self) -> str:
        if self.kind == LINEAR:
            return "linear"
        return f"entropic(gamma={self.gamma:g}, kappa={self.kappa:.12g})"


def evaluate(op: ExpectationOperator, tree: ScenarioTree, q: Slice, t: int) -> Slice:
    """E(q | F_t) for a slice q at some time s >= t, (N_s,) or (P, N_s)."""
    if t > q.time:
        raise TimeOrderError(f"cannot condition a time-{q.time} slice on the later time {t}")
    if op.kind == LINEAR:
        return conditional_expectation(tree, q, t)
    exps = _entropic_exps(op, q.array)
    folded = conditional_expectation(tree, Slice(q.time, q.nodes, exps), t).array
    return Slice(t, tree.sorted_nodes_at(t), _entropic_logs(op, folded))


def evaluate_levels(
    op: ExpectationOperator, tree: ScenarioTree, q: Slice, times: Iterable[int]
) -> dict[int, np.ndarray]:
    """{t: E(q | F_t) array} for every t in `times`, all at most q.time, from
    one pass that folds down from q.time and keeps the levels it is asked
    for. Each array equals evaluate(op, tree, q, t).array bit for bit: the
    entropic exponentials are taken once, the logs only at the kept levels."""
    wanted = set(times)
    if not wanted:
        return {}
    if not 0 <= min(wanted) <= max(wanted) <= q.time:
        raise TimeOrderError(f"cannot condition a time-{q.time} slice on times {sorted(wanted)}")
    linear = op.kind == LINEAR
    vals = q.array if linear else _entropic_exps(op, q.array)
    out = {}
    for u in range(q.time, min(wanted) - 1, -1):
        if u < q.time:
            vals = tree.fold(u + 1, vals)
        if u in wanted:
            out[u] = vals if linear else _entropic_logs(op, vals)
    return out


def _entropic_exps(op: ExpectationOperator, a: np.ndarray) -> np.ndarray:
    """exp(-a/gamma) elementwise, after the overflow guard on max|a|/gamma.

    Both entropic steps use scalar math.exp/log (numpy's differ in the last
    bit); only (P, N) arrays pay for the views."""
    flat = a.ndim == 1
    vals = (a if flat else a.ravel()).tolist()
    gamma = op.gamma
    worst = max(map(abs, vals)) if vals else 0.0
    if worst / gamma > MAX_EXPONENT:
        raise OverflowGuard(f"|q|/gamma = {worst / gamma:.3g} exceeds the bound {MAX_EXPONENT:g}")
    exps = np.array([math.exp(-v / gamma) for v in vals])
    return exps if flat else exps.reshape(a.shape)


def _entropic_logs(op: ExpectationOperator, a: np.ndarray) -> np.ndarray:
    """-kappa * ln(a) elementwise."""
    flat = a.ndim == 1
    kappa = op.kappa
    logs = np.array([-kappa * math.log(m) for m in (a if flat else a.ravel()).tolist()])
    return logs if flat else logs.reshape(a.shape)


@dataclass
class AxiomVerdict:
    passed: bool = True
    worst_violation: float = 0.0
    counterexample: dict | None = None
    note: str | None = None

    def record(self, violations: np.ndarray, example: Callable[[int], dict], tol: float) -> None:
        """Fold in a block of trials, in trial order; `example(k)` builds the
        counterexample of the block's k-th trial when it is the first kept."""
        self.worst_violation = max(self.worst_violation, float(violations.max()))
        if self.counterexample is None:
            failing = np.flatnonzero(violations > tol)
            if failing.size:
                self.passed = False
                self.counterexample = example(int(failing[0]))


@dataclass
class AxiomReport:
    monotonicity: AxiomVerdict = field(default_factory=AxiomVerdict)
    constant_invariance: AxiomVerdict = field(default_factory=AxiomVerdict)
    recursivity: AxiomVerdict = field(default_factory=AxiomVerdict)
    zero_one_law: AxiomVerdict = field(default_factory=AxiomVerdict)
    trials: int = 0
    seed: int = 0
    tol: float = 1e-9

    def verdicts(self) -> dict[str, AxiomVerdict]:
        return {
            "monotonicity": self.monotonicity,
            "constant_invariance": self.constant_invariance,
            "recursivity": self.recursivity,
            "zero_one_law": self.zero_one_law,
        }

    @property
    def all_pass(self) -> bool:
        return all(v.passed for v in self.verdicts().values())


def check_tol(tol: float, name: str = "tol") -> None:
    """Refuse a comparison tolerance that is NaN, infinite or negative: each
    would make every nodewise comparison pass or every one fail."""
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"{name} must be finite and >= 0, got {tol}")


def axioms_check(
    op: ExpectationOperator,
    tree: ScenarioTree,
    trials: int,
    seed: int,
    tol: float = 1e-9,
) -> AxiomReport:
    """Test the four axioms on `trials` seeded random slices of the tree.

    Failures are report content with reproducible counterexamples, not
    exceptions. Monotonicity is checked in the non-strict direction only;
    exact ties between distinct slices are noted informationally.

    Trials are drawn AXIOM_BLOCK at a time, each in the order of a
    one-trial loop (s, t, q, the q' offsets, c, u, the event coins), so a
    seed gives the same slices and report whatever the block size. Each
    block is then evaluated level by level (see `_check_block`), which
    gives every value bit for bit as `evaluate` on one slice would.
    """
    check_tol(tol)
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    scale = 3.0 * op.gamma if op.kind == ENTROPIC else 10.0
    if not math.isfinite(2.0 * scale):
        # uniform(-scale, scale) would draw inf or NaN slices, and NaN
        # comparisons pass every axiom
        raise ValueError(
            f"gamma={op.gamma:g} is too large for the axiom suite: its draws from "
            "±3·gamma overflow"
        )
    rng = random.Random(seed)
    report = AxiomReport(trials=trials, seed=seed, tol=tol)
    # per level, the draw position (tree.nodes_at order) of each sorted row
    order = [np.argsort([tree.row(n) for n in tree.nodes_at(x)]) for x in range(tree.horizon + 1)]
    ties = 0
    for first in range(0, trials, AXIOM_BLOCK):
        count = min(AXIOM_BLOCK, trials - first)
        ties += _check_block(op, tree, order, _draw_block(rng, tree, scale, count), first, report)
    if ties:
        report.monotonicity.note = (
            f"strictness not enforced: {ties} trial(s) produced equal values for distinct slices"
        )
    return report


def _draw_block(rng: random.Random, tree: ScenarioTree, scale: float, count: int) -> list[tuple]:
    """`count` trials as drawn: (s, t, u, q, q', c, event coins), with the
    rows in tree.nodes_at order."""
    drawn = []
    for _ in range(count):
        s = rng.randint(0, tree.horizon)
        t = rng.randint(0, s)
        q = [rng.uniform(-scale, scale) for _ in tree.nodes_at(s)]
        q2 = [v - rng.uniform(0.0, scale / 2) for v in q]
        c = [rng.uniform(-scale, scale) for _ in tree.nodes_at(t)]
        u = rng.randint(t, s)
        event = [rng.random() < 0.5 for _ in tree.nodes_at(t)]
        drawn.append((s, t, u, q, q2, c, event))
    return drawn


def _groups(levels: tuple[int, ...], horizon: int) -> tuple[list[np.ndarray], np.ndarray]:
    """The trials at each level 0..horizon in trial order, and each trial's
    row within its level's group."""
    levels = np.array(levels)
    groups = [np.flatnonzero(levels == x) for x in range(horizon + 1)]
    rows = np.empty(len(levels), dtype=np.intp)
    for g in groups:
        rows[g] = np.arange(len(g))
    return groups, rows


def _check_block(
    op: ExpectationOperator,
    tree: ScenarioTree,
    order: list[np.ndarray],
    drawn: list[tuple],
    first: int,
    report: AxiomReport,
) -> int:
    """Evaluate one block of drawn trials and fold it into the report;
    returns its count of monotonicity ties.

    E(q|F_t) is taken once per trial. Per start level s, the rows of q, q'
    and the event-masked q are stacked, exponentiated once and folded down
    the tree; at each level x the logs are taken of just the rows whose t
    (or, for q, u) is x. The E(q|F_u) rows are then folded on to their t
    per level u. A 2-D `fold` sums each (row, parent) bin in the same child
    order as a 1-D one, and the entropic steps are elementwise, so every
    value equals its one-slice `evaluate` bit for bit.
    """
    T, tol = tree.horizon, report.tol
    linear = op.kind == LINEAR
    exps = (lambda a: a) if linear else (lambda a: _entropic_exps(op, a))
    logs = (lambda a: a) if linear else (lambda a: _entropic_logs(op, a))
    width = [len(tree.nodes_at(x)) for x in range(T + 1)]
    s_of, t_of, u_of, q_rows, q2_rows, c_rows, event_rows = zip(*drawn)
    by_s, at_s = _groups(s_of, T)
    by_t, at_t = _groups(t_of, T)
    by_u, at_u = _groups(u_of, T)
    t_arr, u_arr = np.array(t_of), np.array(u_of)

    def stack(rows, members, x, dtype=float):
        """(len(members), N_x) array of the members' rows, in sorted node order."""
        return np.array([rows[i] for i in members], dtype=dtype).reshape(-1, width[x])[:, order[x]]

    qs = [stack(q_rows, by_s[x], x) for x in range(T + 1)]
    q2s = [stack(q2_rows, by_s[x], x) for x in range(T + 1)]
    cs = [stack(c_rows, by_t[x], x) for x in range(T + 1)]
    events = [stack(event_rows, by_t[x], x, bool) for x in range(T + 1)]
    eq, eq2, lhs, nested = (
        [np.empty((len(by_t[x]), width[x])) for x in range(T + 1)] for _ in range(4)
    )
    eu = [np.empty((len(by_u[x]), width[x])) for x in range(T + 1)]

    for s, members in enumerate(by_s):
        if not members.size:
            continue
        k, tm, um = len(members), t_arr[members], u_arr[members]
        inside = np.empty((k, width[s]), dtype=bool)
        for t in np.unique(tm).tolist():
            sub = tm == t
            mask = events[t][at_t[members[sub]]]
            for x in range(t + 1, s + 1):
                mask = mask[:, tree.parent_rows(x)]
            inside[sub] = mask
        vals = exps(np.concatenate([qs[s], q2s[s], np.where(inside, qs[s], 0.0)]))
        for x in range(s, int(tm.min()) - 1, -1):
            if x < s:
                vals = tree.fold(x + 1, vals)
            here, via = np.flatnonzero(tm == x), np.flatnonzero(um == x)
            n = len(here)
            out = logs(vals[np.concatenate([here, here + k, here + 2 * k, via])])
            rows = at_t[members[here]]
            eq[x][rows], eq2[x][rows], lhs[x][rows] = out[:n], out[n : 2 * n], out[2 * n : 3 * n]
            eu[x][at_u[members[via]]] = out[3 * n :]

    if not linear:
        # the one-trial loop stops at the first trial whose E(q|F_u) trips
        # the overflow guard of the nested evaluate; stop at the same trial
        worst = np.zeros(len(drawn))
        for u, members in enumerate(by_u):
            if members.size:
                worst[members] = np.abs(eu[u]).max(axis=1)
        over = np.flatnonzero(worst / op.gamma > MAX_EXPONENT)
        if over.size:
            k = int(over[0])
            _entropic_exps(op, eu[u_of[k]][at_u[k]])
    for u, members in enumerate(by_u):
        if not members.size:
            continue
        tm = t_arr[members]
        vals = exps(eu[u])
        for x in range(u, int(tm.min()) - 1, -1):
            if x < u:
                vals = tree.fold(x + 1, vals)
            here = np.flatnonzero(tm == x)
            nested[x][at_t[members[here]]] = logs(vals[here])

    # each trial's violations, from its rows; the draws are finite, so no
    # row holds NaN and a row's max is Python's max of its list
    mono, inv, rec, zero = (np.empty(len(drawn)) for _ in range(4))
    ecs, rhss, ties = [], [], 0
    for t, members in enumerate(by_t):
        ecs.append(logs(exps(cs[t])))
        rhss.append(np.where(events[t], eq[t], 0.0))
        if not members.size:
            continue
        # monotonicity: q >= q' nodewise must give E(q|F_t) >= E(q'|F_t)
        mono[members] = (eq2[t] - eq[t]).max(axis=1)
        ties += int(np.count_nonzero(np.abs(eq[t] - eq2[t]).max(axis=1) <= tol))
        # constant invariance: a time-t slice is its own conditional value
        inv[members] = np.abs(ecs[t] - cs[t]).max(axis=1)
        # recursivity: conditioning through an intermediate time changes nothing
        rec[members] = np.abs(nested[t] - eq[t]).max(axis=1)
        # zero-one law: masking by an F_t event commutes with the operator
        zero[members] = np.abs(lhs[t] - rhss[t]).max(axis=1)

    # trial k's row of per-level arrays at its s or its t, as a node map
    def on_s(arrays, k):
        s = s_of[k]
        return dict(zip(tree.sorted_nodes_at(s), arrays[s][at_s[k]].tolist()))

    def on_t(arrays, k):
        t = t_of[k]
        return dict(zip(tree.sorted_nodes_at(t), arrays[t][at_t[k]].tolist()))

    report.monotonicity.record(
        mono,
        lambda k: {
            "trial": first + k,
            "s": s_of[k],
            "t": t_of[k],
            "q": on_s(qs, k),
            "q_prime": on_s(q2s, k),
        },
        tol,
    )
    report.constant_invariance.record(
        inv,
        lambda k: {"trial": first + k, "t": t_of[k], "q": on_t(cs, k), "result": on_t(ecs, k)},
        tol,
    )
    report.recursivity.record(
        rec,
        lambda k: {
            "trial": first + k,
            "s": s_of[k],
            "u": u_of[k],
            "t": t_of[k],
            "q": on_s(qs, k),
            "nested": on_t(nested, k),
            "direct": on_t(eq, k),
        },
        tol,
    )
    report.zero_one_law.record(
        zero,
        lambda k: {
            "trial": first + k,
            "s": s_of[k],
            "t": t_of[k],
            "q": on_s(qs, k),
            "event": sorted(n for n, e in zip(tree.nodes_at(t_of[k]), event_rows[k]) if e),
            "lhs": on_t(lhs, k),
            "rhs": on_t(rhss, k),
        },
        tol,
    )
    return ties
