"""F_t-conditional expectation operators on slices, linear and entropic,
plus a randomized verification suite for the four defining axioms
(monotonicity, constant invariance, recursivity, zero-one law).
"""

from __future__ import annotations

import math
import random
import sys
from collections.abc import Iterable
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import TimeOrderError
from .tree import ScenarioTree, Slice, conditional_expectation

LINEAR = "linear"
ENTROPIC = "entropic"

#: kappa of the base-10 preset, 10/ln 10
PAPER10_KAPPA = 10.0 / math.log(10.0)

#: a slice row with some |q|/gamma this large is evaluated by log-sum-exp steps
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
    are returned. Every row equals its one-slice evaluate bit for bit.

    No input is refused: +-inf give their limits and NaN propagates. A row
    with some |q|/gamma >= MAX_EXPONENT is wide: `_wide_levels` gives its
    values, and its m here is 1 and not read."""
    picks = times if isinstance(times, dict) else dict.fromkeys(times)
    if not picks:
        return {}
    if not 0 <= min(picks) <= max(picks) <= q.time:
        raise TimeOrderError(f"cannot condition a time-{q.time} slice on times {sorted(picks)}")
    linear, a, patches = op.kind == LINEAR, q.array, {}
    limit = MAX_EXPONENT * op.gamma  # an infinite limit still takes +-inf
    if not linear and (big := np.abs(a) >= limit).any():
        is_wide = big.any(axis=-1).reshape(-1)
        patches = _wide_levels(op, tree, q, is_wide, picks)
        a = np.where(is_wide[:, None], 0.0, a.reshape(-1, len(q.nodes))).reshape(a.shape)
    level = Slice(q.time, q.nodes, a if linear else _entropic_exps(op, a))
    out = {}
    for u in sorted(picks, reverse=True):
        level = conditional_expectation(tree, level, u)
        rows = picks[u]
        vals = level.array if rows is None else level.array[rows]
        out[u] = vals if linear else _entropic_logs(op.kappa, vals)
    for u, (hit, vals) in patches.items():
        out[u].reshape(-1, out[u].shape[-1])[hit] = vals
    return out


def _wide_levels(op: ExpectationOperator, tree: ScenarioTree, q: Slice, is_wide: np.ndarray,
                 picks: dict) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """{t: (which kept rows are wide, their values)}. A wide row carries its
    kappa = gamma value v up one level at a time, each parent's the
    log-sum-exp low - gamma ln E[exp(-(v - low)/gamma) | F_{x-1}] from its
    lowest child: the terms are at most 1 and sum to at least that child's
    branch probability, so nothing overflows and no log is of 0. A kept
    value is (kappa/gamma) v, v itself when kappa == gamma, or kappa (v/gamma)
    when the quotient leaves the normal float range."""
    ratio = op.kappa / op.gamma  # 1.0 when kappa == gamma
    normal = sys.float_info.min <= ratio < math.inf
    rank = np.cumsum(is_wide) - 1  # each wide row's row among them
    v, patches = Slice(q.time, q.nodes, q.array.reshape(-1, len(q.nodes))[is_wide]), {}
    with np.errstate(over="ignore"):  # past float range is +-inf, as in Python
        for u in sorted(picks, reverse=True):
            while v.time > u:
                x, up, w = v.time, tree.parent_rows(v.time), v.array
                low = np.full((len(w), len(tree.sorted_nodes_at(x - 1))), np.inf)
                np.fmin.at(low.T, up, w.T)  # skips NaN
                # the gap is 0 where the two are equal: no inf - inf
                gap = np.subtract(w, low[:, up], out=np.zeros_like(w), where=w != low[:, up])
                m = conditional_expectation(tree, Slice(x, v.nodes, _entropic_exps(op, gap)), x - 1)
                v = Slice(x - 1, m.nodes, low + _entropic_logs(op.gamma, m.array))
            kept = np.arange(len(is_wide)) if picks[u] is None else picks[u]
            vals = v.array[rank[kept[is_wide[kept]]]]
            patches[u] = is_wide[kept], ratio * vals if normal else op.kappa * (vals / op.gamma)
    return patches


def _entropic_exps(op: ExpectationOperator, a: np.ndarray) -> np.ndarray:
    """exp(-a/gamma) elementwise, for |a|/gamma <= MAX_EXPONENT or a >= 0.

    Both entropic steps are called only by `evaluate_levels`, the one
    conditional-value kernel. They round exp and log as numpy's ufuncs do,
    which give the same bits for one element as for a whole array."""
    return np.exp(-a / op.gamma)


def _entropic_logs(scale: float, a: np.ndarray) -> np.ndarray:
    """-scale * ln(a) elementwise: kappa at a kept level, gamma in a wide
    row's step. Past float range the product is +-inf, as in Python."""
    with np.errstate(over="ignore"):
        return -scale * np.log(a)


@dataclass
class AxiomVerdict:
    passed: bool = True
    worst_violation: float = 0.0
    counterexample: dict | None = None
    note: str | None = None

    def record(self, violations: np.ndarray, bounds: np.ndarray, example: Callable) -> None:
        """Fold in a block of trials, in trial order; a trial fails when its
        violation exceeds its bound. `example(k)` builds the counterexample
        of the block's k-th trial when it is the first kept."""
        self.worst_violation = max(self.worst_violation, float(violations.max()))
        if self.counterexample is None:
            failing = np.flatnonzero(violations > bounds)
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
    exceptions. A trial fails when its violation exceeds `tol` plus 4 ulps
    of the larger side compared (entropic: at least of kappa), so round-off
    fails no operator. Monotonicity is checked in the non-strict direction
    only; exact ties between distinct slices are noted informationally.

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
    """Evaluate one block of drawn trials and fold it into the report, each
    violation against its round-off bound; returns its monotonicity ties.

    E(q|F_t) is taken once per trial. Per start level s, the rows of q, q'
    and the event-masked q are stacked and passed to `evaluate_levels`,
    which keeps at each level x just the rows whose t (or, for q, u) is x.
    The E(q|F_u) rows are then conditioned on their t per level u. The
    kernel gives every picked row its one-slice `evaluate` value bit for
    bit, and refuses no row, however wide its values."""
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
            inside[sub] = events[t][at_t[members[sub]]][:, tree.ancestor_rows(t)[s - t]]
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

    for u, members in enumerate(by_u):
        if not members.size:
            continue
        tm = t_arr[members]
        picks = {x: np.flatnonzero(tm == x) for x in range(int(tm.min()), u + 1)}
        for x, out in evaluate_levels(op, tree, at(u, eu[u]), picks).items():
            nested[x][at_t[members[picks[x]]]] = out

    # each trial's violations and the size of the larger side compared,
    # from its rows. Equal sides are a gap of 0, also two equal infinities,
    # so a gap is NaN only beside a NaN side, which finite draws do not
    # give: a row's max is then Python's max of its list. The axioms, in
    # order: monotonicity (q >= q' nodewise must give E(q|F_t) >=
    # E(q'|F_t)), constant invariance (a time-t slice is its own
    # conditional value), recursivity (conditioning through an intermediate
    # time changes nothing) and the zero-one law (masking by an F_t event
    # commutes with the operator)
    violations, sizes = np.empty((4, len(drawn))), np.empty((4, len(drawn)))
    ecs, rhss, ties = [], [], 0
    for t, members in enumerate(by_t):
        ecs.append(evaluate_levels(op, tree, at(t, cs[t]), [t])[t])
        rhss.append(np.where(events[t], eq[t], 0.0))
        if not members.size:
            continue
        sides = np.array([(eq2[t], eq[t]), (ecs[t], cs[t]), (nested[t], eq[t]), (lhs[t], rhss[t])])
        apart = sides[:, 0] != sides[:, 1]
        gaps = np.subtract(sides[:, 0], sides[:, 1], out=np.zeros(apart.shape), where=apart)
        gaps[1:] = np.abs(gaps[1:])
        ties += int(np.count_nonzero(np.abs(gaps[0]).max(axis=1) <= tol))
        violations[:, members] = gaps.max(axis=2)
        sizes[:, members] = np.abs(sides).max(axis=(1, 3))
    # 4 ulps of round-off allowed (entropic exp and log round at kappa's
    # scale), none where a side is infinite
    floor = op.kappa if op.kind == ENTROPIC else 0.0
    bounds = np.nan_to_num(tol + 4 * np.spacing(np.maximum(sizes, floor)), nan=tol)

    # trial k's row of per-level arrays at its s or its t, as a node map
    def on_s(arrays, k):
        s = s_of[k]
        return dict(zip(tree.sorted_nodes_at(s), arrays[s][at_s[k]].tolist()))

    def on_t(arrays, k):
        t = t_of[k]
        return dict(zip(tree.sorted_nodes_at(t), arrays[t][at_t[k]].tolist()))

    examples = (
        lambda k: {
            "trial": first + k,
            "s": s_of[k],
            "t": t_of[k],
            "q": on_s(qs, k),
            "q_prime": on_s(q2s, k),
        },
        lambda k: {"trial": first + k, "t": t_of[k], "q": on_t(cs, k), "result": on_t(ecs, k)},
        lambda k: {
            "trial": first + k,
            "s": s_of[k],
            "u": u_of[k],
            "t": t_of[k],
            "q": on_s(qs, k),
            "nested": on_t(nested, k),
            "direct": on_t(eq, k),
        },
        lambda k: {
            "trial": first + k,
            "s": s_of[k],
            "t": t_of[k],
            "q": on_s(qs, k),
            "event": sorted(n for n, e in zip(tree.nodes_at(t_of[k]), event_rows[k]) if e),
            "lhs": on_t(lhs, k),
            "rhs": on_t(rhss, k),
        },
    )
    for verdict, *block in zip(report.verdicts().values(), violations, bounds, examples):
        verdict.record(*block)
    return ties
