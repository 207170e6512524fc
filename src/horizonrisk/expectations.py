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

    def record(self, violation: float, example: Callable[[], dict], tol: float) -> None:
        """Fold in one trial; `example` builds its counterexample when it is kept."""
        self.worst_violation = max(self.worst_violation, violation)
        if violation > tol and self.counterexample is None:
            self.passed = False
            self.counterexample = example()


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


def _mask(tree: ScenarioTree, sl: Slice, event_time: int, event_nodes: frozenset[str]) -> Slice:
    inside = [tree.ancestor_at(n, event_time) in event_nodes for n in sl.nodes]
    return Slice(sl.time, sl.nodes, np.where(inside, sl.array, 0.0))


def _max_gap(a: Slice, b: Slice) -> float:
    return max(map(abs, (a.array - b.array).tolist()))


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
    """
    check_tol(tol)
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    rng = random.Random(seed)
    report = AxiomReport(trials=trials, seed=seed, tol=tol)
    scale = 3.0 * op.gamma if op.kind == ENTROPIC else 10.0
    T = tree.horizon
    ties = 0

    for trial in range(trials):
        s = rng.randint(0, T)
        t = rng.randint(0, s)
        # draws follow tree.nodes_at order, so a seed gives the same slices
        draws = {n: rng.uniform(-scale, scale) for n in tree.nodes_at(s)}
        q = Slice.from_map(s, draws)

        # monotonicity: q >= q2 nodewise must give E(q|F_t) >= E(q2|F_t)
        q2 = Slice.from_map(s, {n: v - rng.uniform(0.0, scale / 2) for n, v in draws.items()})
        e_q = evaluate(op, tree, q, t)
        e_q2 = evaluate(op, tree, q2, t)
        report.monotonicity.record(
            max((e_q2.array - e_q.array).tolist()),
            lambda: {"trial": trial, "s": s, "t": t, "q": q.values, "q_prime": q2.values},
            tol,
        )
        if _max_gap(e_q, e_q2) <= tol:
            ties += 1

        # constant invariance: a time-t slice is its own conditional value
        c = Slice.from_map(t, {n: rng.uniform(-scale, scale) for n in tree.nodes_at(t)})
        e_c = evaluate(op, tree, c, t)
        report.constant_invariance.record(
            _max_gap(e_c, c),
            lambda: {"trial": trial, "t": t, "q": c.values, "result": e_c.values},
            tol,
        )

        # recursivity: conditioning through an intermediate time changes nothing
        u = rng.randint(t, s)
        nested = evaluate(op, tree, evaluate(op, tree, q, u), t)
        direct = evaluate(op, tree, q, t)
        report.recursivity.record(
            _max_gap(nested, direct),
            lambda: {
                "trial": trial,
                "s": s,
                "u": u,
                "t": t,
                "q": q.values,
                "nested": nested.values,
                "direct": direct.values,
            },
            tol,
        )

        # zero-one law: masking by an F_t event commutes with the operator
        event_nodes = frozenset(n for n in tree.nodes_at(t) if rng.random() < 0.5)
        lhs = evaluate(op, tree, _mask(tree, q, t, event_nodes), t)
        rhs = _mask(tree, evaluate(op, tree, q, t), t, event_nodes)
        report.zero_one_law.record(
            _max_gap(lhs, rhs),
            lambda: {
                "trial": trial,
                "s": s,
                "t": t,
                "q": q.values,
                "event": sorted(event_nodes),
                "lhs": lhs.values,
                "rhs": rhs.values,
            },
            tol,
        )

    if ties:
        report.monotonicity.note = (
            f"strictness not enforced: {ties} trial(s) produced equal values for distinct slices"
        )
    return report
