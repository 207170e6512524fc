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
    return Slice(t, tree.sorted_nodes_at(t), evaluate_levels(op, tree, q, [t])[t])


def evaluate_levels(
    op: ExpectationOperator,
    tree: ScenarioTree,
    q: Slice,
    times: Iterable[int] | dict[int, np.ndarray],
) -> dict[int, np.ndarray]:
    """{t: E(q | F_t) array} for every t in `times`, all at most q.time: the
    one kernel of every conditional value. The entropic exponentials are
    taken once, the sum steps down the tree from one kept level to the
    next, and the logs are taken at the kept levels only. `times` may map
    each level to the rows of a (P, N_s) q kept there, whose values alone
    are returned. Every row equals its one-slice evaluate bit for bit."""
    picks = times if isinstance(times, dict) else dict.fromkeys(times)
    if not picks:
        return {}
    if not 0 <= min(picks) <= max(picks) <= q.time:
        raise TimeOrderError(f"cannot condition a time-{q.time} slice on times {sorted(picks)}")
    linear = op.kind == LINEAR
    level = Slice(q.time, q.nodes, q.array if linear else _entropic_exps(op, q.array))
    out = {}
    for u in sorted(picks, reverse=True):
        level = conditional_expectation(tree, level, u)
        rows = picks[u]
        vals = level.array if rows is None else level.array[rows]
        out[u] = vals if linear else _entropic_logs(op, vals)
    return out


def _entropic_exps(op: ExpectationOperator, a: np.ndarray) -> np.ndarray:
    """exp(-a/gamma) elementwise, after the overflow guard on max|a|/gamma.

    Both entropic steps are called only by `evaluate_levels`, the one
    conditional-value kernel. They use scalar math.exp/log: numpy's differ
    in the last bit."""
    vals = a.ravel().tolist()
    gamma = op.gamma
    worst = max(map(abs, vals)) if vals else 0.0
    if worst / gamma > MAX_EXPONENT:
        raise OverflowGuard(f"|q|/gamma = {worst / gamma:.3g} exceeds the bound {MAX_EXPONENT:g}")
    return np.array([math.exp(-v / gamma) for v in vals]).reshape(a.shape)


def _entropic_logs(op: ExpectationOperator, a: np.ndarray) -> np.ndarray:
    """-kappa * ln(a) elementwise."""
    kappa = op.kappa
    return np.array([-kappa * math.log(m) for m in a.ravel().tolist()]).reshape(a.shape)


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
    and the event-masked q are stacked and passed to `evaluate_levels`,
    which keeps at each level x just the rows whose t (or, for q, u) is x.
    The E(q|F_u) rows are then conditioned on their t per level u. The kernel
    gives every picked row its one-slice `evaluate` value bit for bit.
    """
    T, tol = tree.horizon, report.tol
    width = [len(tree.nodes_at(x)) for x in range(T + 1)]
    s_of, t_of, u_of, q_rows, q2_rows, c_rows, event_rows = zip(*drawn)
    by_s, at_s = _groups(s_of, T)
    by_t, at_t = _groups(t_of, T)
    by_u, at_u = _groups(u_of, T)
    t_arr, u_arr = np.array(t_of), np.array(u_of)

    def stack(rows, members, x, dtype=float):
        """(len(members), N_x) array of the members' rows, in sorted node order."""
        return np.array([rows[i] for i in members], dtype=dtype).reshape(-1, width[x])[:, order[x]]

    def at(x, array):
        """A time-x slice of the array's rows."""
        return Slice(x, tree.sorted_nodes_at(x), array)

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
        stacked = np.concatenate([qs[s], q2s[s], np.where(inside, qs[s], 0.0)])
        split = {
            x: (np.flatnonzero(tm == x), np.flatnonzero(um == x))
            for x in range(int(tm.min()), s + 1)
        }
        picks = {x: np.concatenate([h, h + k, h + 2 * k, v]) for x, (h, v) in split.items()}
        levels = evaluate_levels(op, tree, at(s, stacked), picks)
        for x, (here, via) in split.items():
            out, n, rows = levels[x], len(here), at_t[members[here]]
            eq[x][rows], eq2[x][rows], lhs[x][rows] = out[:n], out[n : 2 * n], out[2 * n : 3 * n]
            eu[x][at_u[members[via]]] = out[3 * n :]

    if op.kind == ENTROPIC:
        # the one-trial loop stops at the first trial whose E(q|F_u) trips
        # the overflow guard of the nested evaluate; stop at the same trial
        worst = np.zeros(len(drawn))
        for u, members in enumerate(by_u):
            if members.size:
                worst[members] = np.abs(eu[u]).max(axis=1)
        over = np.flatnonzero(worst / op.gamma > MAX_EXPONENT)
        if over.size:
            k = int(over[0])
            evaluate(op, tree, at(u_of[k], eu[u_of[k]][at_u[k]]), t_of[k])
    for u, members in enumerate(by_u):
        if not members.size:
            continue
        tm = t_arr[members]
        picks = {x: np.flatnonzero(tm == x) for x in range(int(tm.min()), u + 1)}
        for x, out in evaluate_levels(op, tree, at(u, eu[u]), picks).items():
            nested[x][at_t[members[picks[x]]]] = out

    # each trial's violations, from its rows; the draws are finite, so no
    # row holds NaN and a row's max is Python's max of its list
    mono, inv, rec, zero = (np.empty(len(drawn)) for _ in range(4))
    ecs, rhss, ties = [], [], 0
    for t, members in enumerate(by_t):
        ecs.append(evaluate_levels(op, tree, at(t, cs[t]), [t])[t])
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
