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

from .tree import ScenarioTree, Slice, check_count, check_tol, conditional_expectation

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
        return f"entropic(gamma={self.gamma:.12g}, kappa={self.kappa:.12g})"


def evaluate(op: ExpectationOperator, tree: ScenarioTree, q: Slice, t: int) -> Slice:
    """E(q | F_t) for a slice q at some time s >= t, (N_s,) or (P, N_s).
    `sorted_nodes_at` refuses a t that is no time of the tree, and
    `conditional_expectation`, in the kernel, a slice that does not fit the
    tree or a t after its time."""
    return Slice(t, tree.sorted_nodes_at(t), evaluate_levels(op, tree, q, [t])[t])


def evaluate_levels(
    op: ExpectationOperator, tree: ScenarioTree, q: Slice, times: Iterable[int]
) -> dict[int, np.ndarray]:
    """{t: E(q | F_t) array} for every t in `times`, all at most q.time: the
    one kernel of every conditional value. Each level asked for is returned
    whole, every row of a (P, N_s) q. The entropic exponentials are taken
    once, the sum steps down the tree from one asked level to the next, and
    the logs are taken at the asked levels only. Every row equals its
    one-slice evaluate bit for bit; no time asked values nothing.

    `conditional_expectation` checks the slice and each time as the descent
    reaches it, before a wide row is valued. No value is refused: +-inf
    give their limits and NaN propagates. A row with some |q|/gamma >=
    MAX_EXPONENT is wide: it is folded as 0 here, and `_wide_levels` gives
    its values afterwards."""
    times = sorted(set(times), reverse=True)
    if not times:
        return {}
    linear, a = op.kind == LINEAR, q.array
    limit = MAX_EXPONENT * op.gamma  # an infinite limit still takes +-inf
    if wide := not linear and (big := np.abs(a) >= limit).any():
        a = np.where(big.any(axis=-1, keepdims=True), 0.0, a)
    level = Slice(q.time, q.nodes, a if linear else _entropic_exps(op, a))
    out = {}
    for u in times:
        level = conditional_expectation(tree, level, u)
        out[u] = level.array if linear else _entropic_logs(op.kappa, level.array)
    if wide:
        is_wide = big.any(axis=-1).reshape(-1)
        for u, vals in _wide_levels(op, tree, q, is_wide, times).items():
            out[u].reshape(-1, out[u].shape[-1])[is_wide] = vals
    return out


def _wide_levels(op: ExpectationOperator, tree: ScenarioTree, q: Slice, is_wide: np.ndarray,
                 times: list[int]) -> dict[int, np.ndarray]:
    """{t: the wide rows' values at level t} for each t of the decreasing
    `times`. A wide row carries its kappa = gamma value v up one level at a
    time, each parent's the log-sum-exp low - gamma ln E[exp(-(v - low)/gamma)
    | F_{x-1}] from its lowest child: the terms are at most 1 and sum to at
    least that child's branch probability, so nothing overflows and no log
    is of 0. An asked level's value is (kappa/gamma) v, v itself when kappa
    == gamma, or kappa (v/gamma) when the quotient leaves the normal float
    range."""
    ratio = op.kappa / op.gamma  # 1.0 when kappa == gamma
    normal = sys.float_info.min <= ratio < math.inf
    v, levels = Slice(q.time, q.nodes, q.array.reshape(-1, len(q.nodes))[is_wide]), {}
    with np.errstate(over="ignore"):  # past float range is +-inf, as in Python
        for u in times:
            while v.time > u:
                x, up, w = v.time, tree.parent_rows(v.time), v.array
                low = np.full((len(w), len(tree.sorted_nodes_at(x - 1))), np.inf)
                np.fmin.at(low.T, up, w.T)  # skips NaN
                # the gap is 0 where the two are equal: no inf - inf
                gap = np.subtract(w, low[:, up], out=np.zeros_like(w), where=w != low[:, up])
                m = conditional_expectation(tree, Slice(x, v.nodes, _entropic_exps(op, gap)), x - 1)
                v = Slice(x - 1, m.nodes, low + _entropic_logs(op.gamma, m.array))
            levels[u] = ratio * v.array if normal else op.kappa * (v.array / op.gamma)
    return levels


def _entropic_exps(op: ExpectationOperator, a: np.ndarray) -> np.ndarray:
    """exp(-a/gamma) elementwise, for |a|/gamma <= MAX_EXPONENT or a >= 0.

    Both entropic steps are called only by `evaluate_levels`, the one
    conditional-value kernel. They round exp and log as numpy's ufuncs do,
    which give the same bits for one element as for a whole array."""
    return np.exp(-a / op.gamma)


def _entropic_logs(scale: float, a: np.ndarray) -> np.ndarray:
    """-scale * ln(a) elementwise: kappa at an asked level, gamma in a wide
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
        of the block's k-th trial when it is the verdict's first failing trial."""
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

    Trials are drawn AXIOM_BLOCK at a time, each from `random.Random(seed)`
    in a one-trial loop's order: s, t, q, the q' offsets, c, u, the event
    coins. Each is drawn when the trial needs it, by the generator calls
    the loop's randint, uniform and random make (see `_draw_block`), so a
    block ends with the generator where the loop leaves it, and a seed
    gives the same slices and report whatever the block size. Each block is
    then evaluated as stacks of its trials, whole levels at a time (see
    `_check_block`), which gives every value bit for bit as `evaluate` on
    one slice would.
    """
    check_tol(tol)
    check_count(trials, "trials", 1)
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
    width, ties = [len(o) for o in order], 0
    for first in range(0, trials, AXIOM_BLOCK):
        drawn = _draw_block(rng, width, min(AXIOM_BLOCK, trials - first))
        ties += _check_block(op, tree, order, scale, drawn, first, report)
    if ties:
        report.monotonicity.note = (
            f"strictness not enforced: {ties} trial(s) produced equal values for distinct slices"
        )
    return report


def _draw_block(rng: random.Random, width: list[int], count: int) -> tuple:
    """`count` trials drawn from `rng` when and as the one-trial loop draws
    them: s, t, the words of q, the q' offsets and c, then u and the words
    of the event coins. Returns each trial's s, t and u, the positions
    (q_at, c_at, e_at) in the block's word stream where its q, c and coin
    words start, and the doubles that random() makes of each two
    consecutive words of that stream. `rng` then stands where the loop
    leaves it.

    randint(a, b) is a + getrandbits(k), k = (b - a + 1).bit_length(),
    drawn again while past b - a; getrandbits(32 * n) is n words, the first
    lowest; random() of two words w0, w1 is ((w0 >> 5) * 2**26 + (w1 >> 6))
    / 2**53, and uniform(a, b) is a + (b - a) * random()."""
    T, k_T = len(width) - 1, len(width).bit_length()
    s_of, t_of, u_of, starts, chunks, pos = [], [], [], [], [], 0
    for _ in range(count):
        while (s := rng.getrandbits(k_T)) > T:
            pass
        while (t := rng.getrandbits((s + 1).bit_length())) > s:
            pass
        n = 4 * width[s] + 2 * width[t]
        chunks.append(rng.getrandbits(32 * n).to_bytes(4 * n, "little"))
        while (u := rng.getrandbits((s - t + 1).bit_length())) > s - t:
            pass
        chunks.append(rng.getrandbits(64 * width[t]).to_bytes(8 * width[t], "little"))
        s_of.append(s)
        t_of.append(t)
        u_of.append(t + u)
        starts.append((pos, pos + 4 * width[s], pos + n))
        pos += n + 2 * width[t]
    words = np.frombuffer(b"".join(chunks), "<u4").astype(np.uint32, copy=False)
    doubles = ((words[:-1] >> 5) * 67108864.0 + (words[1:] >> 6)) * (1.0 / 9007199254740992.0)
    return s_of, t_of, u_of, np.array(starts).T, doubles


def _groups(levels: list[int], horizon: int) -> tuple[list[np.ndarray], np.ndarray]:
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
    scale: float,
    drawn: list,
    first: int,
    report: AxiomReport,
) -> int:
    """Evaluate one block of drawn trials and fold it into the report, each
    violation against its round-off bound; returns its monotonicity ties.

    The draws are gathered per level straight into sorted-row order: q and
    q' for the trials that start there, c and the event coins for those
    conditioned there. E(q|F_t) is taken once per trial. Per start level s,
    the rows of q, q' and the event-masked q are stacked and passed to
    `evaluate_levels` for the levels from the least t up to s; each trial
    reads from the whole level x its rows where its t (or, for q, u) is x.
    The E(q|F_u) rows are then conditioned on their t per level u in the
    same way. The kernel gives every row its one-slice `evaluate` value bit
    for bit, and refuses no row, however wide its values."""
    T, tol = tree.horizon, report.tol
    width = [len(o) for o in order]
    s_of, t_of, u_of, (q_at, c_at, e_at), doubles = drawn
    by_s, at_s = _groups(s_of, T)
    by_t, at_t = _groups(t_of, T)
    by_u, at_u = _groups(u_of, T)
    t_arr, u_arr = np.array(t_of), np.array(u_of)

    def draws(starts, members, x, lo=0.0, hi=1.0):
        """(len(members), N_x) array of uniform(lo, hi) draws, in sorted node
        order, of the members' trials from their starting words on."""
        return lo + (hi - lo) * doubles[starts[members, None] + 2 * order[x]]

    def at(x, array):
        """A time-x slice of the array's rows."""
        return Slice(x, tree.sorted_nodes_at(x), array)

    qs = [draws(q_at, by_s[x], x, -scale, scale) for x in range(T + 1)]
    q2s = [qs[x] - draws(q_at + 2 * width[x], by_s[x], x, 0.0, scale / 2) for x in range(T + 1)]
    cs = [draws(c_at, by_t[x], x, -scale, scale) for x in range(T + 1)]
    events = [draws(e_at, by_t[x], x) < 0.5 for x in range(T + 1)]
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
        levels = evaluate_levels(op, tree, at(s, stacked), range(int(tm.min()), s + 1))
        for x, out in levels.items():
            here, via = np.flatnonzero(tm == x), np.flatnonzero(um == x)
            rows = at_t[members[here]]
            eq[x][rows], eq2[x][rows], lhs[x][rows] = out[here], out[here + k], out[here + 2 * k]
            eu[x][at_u[members[via]]] = out[via]

    for u, members in enumerate(by_u):
        if not members.size:
            continue
        tm = t_arr[members]
        for x, out in evaluate_levels(op, tree, at(u, eu[u]), range(int(tm.min()), u + 1)).items():
            nested[x][at_t[members[tm == x]]] = out[tm == x]

    # each trial's violations and the size of the larger side compared,
    # from its rows. Equal sides are a gap of 0, also two equal infinities,
    # so a gap is NaN only beside a NaN side, which finite draws do not
    # give: a row's max is then Python's max of its list. The axioms, in
    # order: monotonicity (q >= q' nodewise must give E(q|F_t) >=
    # E(q'|F_t)), constant invariance (a time-t slice is its own
    # conditional value), recursivity (conditioning through an intermediate
    # time changes nothing) and the zero-one law (masking by an F_t event
    # commutes with the operator)
    violations, sizes = np.empty((4, len(s_of))), np.empty((4, len(s_of)))
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
            "event": [n for n, e in on_t(events, k).items() if e],
            "lhs": on_t(lhs, k),
            "rhs": on_t(rhss, k),
        },
    )
    for verdict, *block in zip(report.verdicts().values(), violations, bounds, examples):
        verdict.record(*block)
    return ties
