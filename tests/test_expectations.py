import ast
import dataclasses
import decimal
import math
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from horizonrisk import (
    ExpectationOperator,
    PAPER10_KAPPA,
    PolicySpace,
    SimpleHorizon,
    Slice,
    TimeOrderError,
    axioms_check,
    build_tree,
    builtin_example,
    conditional_expectation,
    conditional_space,
    evaluate,
    feasible_set,
    is_pasting_closed,
    uniform_maximizer,
    value,
    value_process,
    wealth_process,
)

from horizonrisk import expectations
from horizonrisk.expectations import AXIOM_BLOCK, evaluate_levels

from helpers import (
    decimal_entropic,
    dict_evaluate,
    entropic_oracle,
    float_bits,
    oracle_axioms_check,
    random_tree,
)


@pytest.fixture(scope="module")
def demo():
    return builtin_example("s4")


@pytest.fixture(scope="module")
def first_step_wealth(demo):
    """Wealth slice at time 2 of the policy that holds at t=0 only; the
    wealth is frozen at the first increment from time 1 on."""
    from horizonrisk import truncate

    policy = truncate(demo.base_policy, 1)
    return wealth_process(demo.market, policy).at(2)


class TestEvaluate:
    def test_unknown_operator_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown operator kind 'cubic'"):
            ExpectationOperator("cubic")

    @pytest.mark.parametrize("times", [[-1], [0, 3]])
    def test_levels_outside_the_slice_times_rejected(self, demo, first_step_wealth, times):
        # -1 is no time of the tree; 3 is one, but later than the slice's time 2
        message = "time -1 outside 0..3" if min(times) < 0 else "cannot condition a time-2 slice on"
        with pytest.raises(TimeOrderError, match=message):
            evaluate_levels(ExpectationOperator.linear(), demo.market.tree,
                            first_step_wealth, times)

    @pytest.mark.parametrize(
        "gamma, kappa, described",
        [
            (10.0000001, 10.0, "entropic(gamma=10.0000001, kappa=10)"),
            (10.0, 10.0, "entropic(gamma=10, kappa=10)"),
            (1e7, None, "entropic(gamma=10000000, kappa=10000000)"),
            (0.5, 3.0, "entropic(gamma=0.5, kappa=3)"),
        ],
    )
    def test_descriptions_tell_operators_apart(self, gamma, kappa, described):
        # gamma printed with :g read 10 for 10.0000001, and 1e+07 beside kappa's 10000000
        assert ExpectationOperator.entropic(gamma, kappa).describe() == described

    def test_base10_preset_reproduces_quoted_value(self, demo, first_step_wealth):
        op = ExpectationOperator.paper10()
        out = evaluate(op, demo.market.tree, first_step_wealth, 0)
        assert out["r"] == pytest.approx(0.1889, abs=5e-5)

    def test_standard_entropic_closed_form(self, demo, first_step_wealth):
        op = ExpectationOperator.entropic(10.0)
        out = evaluate(op, demo.market.tree, first_step_wealth, 0)
        expected = -10.0 * math.log((math.exp(-0.1) + math.exp(0.01)) / 2.0)
        assert out["r"] == pytest.approx(expected, abs=1e-12)
        assert out["r"] == pytest.approx(0.43488, abs=5e-5)

    def test_constant_slice_is_invariant_when_kappa_equals_gamma(self, demo):
        tree = demo.market.tree
        op = ExpectationOperator.entropic(7.0)
        nodes = tree.sorted_nodes_at(3)
        q = Slice(3, nodes, np.full(len(nodes), -4.2))
        out = evaluate(op, tree, q, 0)
        for n in out.values:
            assert out[n] == pytest.approx(-4.2, abs=1e-12)

    def test_linear_matches_conditional_expectation(self, demo):
        tree = demo.market.tree
        rng = random.Random(3)
        q = Slice.from_map(3, {n: rng.uniform(-20, 20) for n in tree.nodes_at(3)})
        lin = evaluate(ExpectationOperator.linear(), tree, q, 1)
        ref = conditional_expectation(tree, q, 1)
        assert lin.values == ref.values

    @pytest.mark.parametrize("seed", range(10))
    def test_entropic_matches_leaf_oracle(self, seed):
        rng = random.Random(400 + seed)
        tree = random_tree(rng, rng.randint(1, 3), branching=(1, 3))
        gamma = rng.uniform(2.0, 20.0)
        kappa = rng.choice([gamma, rng.uniform(2.0, 20.0)])
        op = ExpectationOperator.entropic(gamma, kappa)
        s = rng.randint(1, tree.horizon)
        t = rng.randint(0, s)
        q = Slice.from_map(s, {n: rng.uniform(-15, 15) for n in tree.nodes_at(s)})
        got = evaluate(op, tree, q, t)
        want = entropic_oracle(tree, q, t, gamma, kappa)
        for n in got.values:
            assert got[n] == pytest.approx(want[n], abs=1e-10)

    def test_same_time_evaluation_returns_slice(self, demo):
        tree = demo.market.tree
        rng = random.Random(4)
        q = Slice.from_map(2, {n: rng.uniform(-30, 30) for n in tree.nodes_at(2)})
        out = evaluate(ExpectationOperator.entropic(10.0), tree, q, 2)
        for n in q.values:
            assert out[n] == pytest.approx(q[n], abs=1e-12)

    def test_large_constant_is_its_own_value(self, demo):
        # |q|/gamma = 8000 is far outside exp's range; the value is exact
        tree = demo.market.tree
        nodes = tree.sorted_nodes_at(3)
        q = Slice(3, nodes, np.full(len(nodes), 80000.0))
        for t in range(4):
            out = evaluate(ExpectationOperator.entropic(10.0), tree, q, t)
            assert out.array.tolist() == [80000.0] * len(tree.sorted_nodes_at(t))

    @pytest.mark.parametrize("gamma, kappa", [(float("nan"), None), (float("inf"), None),
                                              (10.0, float("nan")), (10.0, float("-inf"))])
    def test_non_finite_parameters_rejected(self, gamma, kappa):
        with pytest.raises(ValueError, match="finite"):
            ExpectationOperator.entropic(gamma, kappa)

    def test_forward_evaluation_rejected(self, demo):
        tree = demo.market.tree
        nodes = tree.sorted_nodes_at(1)
        q = Slice(1, nodes, np.full(len(nodes), 0.0))
        with pytest.raises(TimeOrderError):
            evaluate(ExpectationOperator.entropic(10.0), tree, q, 2)

    @pytest.mark.parametrize("t", [2, 3])
    @pytest.mark.parametrize("entry", ["evaluate", "evaluate_levels"])
    def test_forward_conditioning_names_the_later_time(self, demo, entry, t):
        # both entries are refused by conditional_expectation, in its words
        tree, op = demo.market.tree, ExpectationOperator.entropic(10.0)
        nodes = tree.sorted_nodes_at(1)
        q = Slice(1, nodes, np.full(len(nodes), 0.0))
        call = {"evaluate": lambda: evaluate(op, tree, q, t),
                "evaluate_levels": lambda: evaluate_levels(op, tree, q, [0, t])}[entry]
        message = f"^cannot condition a time-1 slice on the later time {t}$"
        with pytest.raises(TimeOrderError, match=message):
            call()


def _assert_rounds_one_float_as_an_array(func, x: np.ndarray) -> None:
    """func on each float alone gives the bits of func on the array holding
    it, contiguous or strided."""
    each = np.array([float(func(v)) for v in x.tolist()]).view(np.int64)
    whole = func(x).view(np.int64)
    strided = func(np.repeat(x, 2)[::2]).view(np.int64)
    differ = [float(v) for v, a, b, c in zip(x, each, whole, strided) if not a == b == c]
    assert not differ, (
        f"numpy {np.__version__} rounds {func.__name__} of one float differently from "
        f"{func.__name__} of an array at {len(differ)} of {len(x)} inputs, e.g. {differ[:3]}: "
        "the kernel's values then differ in the last bit from the per-node oracles"
    )


class TestRoundingContract:
    """The kernel rounds exp and log as numpy's ufuncs do, and the per-node
    oracles call them one float at a time. Their bits agree only if numpy
    rounds one element as it rounds an array; this says so when a numpy
    build does not, before the bit-identity tests fail with no reason."""

    def test_exp_rounds_one_element_as_an_array(self):
        rng = np.random.default_rng(16)
        _assert_rounds_one_float_as_an_array(np.exp, np.concatenate([
            rng.uniform(-700.0, 700.0, 100_000),
            -np.exp(rng.uniform(np.log(700.0), np.log(1e308), 2_000)),  # wide steps
            [0.0, -0.0, -700.0, 700.0, -745.2, -746.0, -1e300, -np.inf],
        ]))

    def test_log_rounds_one_element_as_an_array(self):
        rng = np.random.default_rng(17)
        _assert_rounds_one_float_as_an_array(np.log, np.concatenate([
            rng.uniform(0.0, 2.0, 50_000),
            np.exp2(rng.uniform(-1074.0, 1024.0, 50_000)),  # subnormals to the largest
            [5e-324, 2.2250738585072014e-308, 1.0, np.nextafter(1.0, 0.0),
             np.nextafter(1.0, 2.0), 1.7976931348623157e308, np.inf, np.nan],
        ]))


class TestEvaluateMatchesPerNodeFold:
    """Array evaluate against the per-node fsum fold with scalar exp/log."""

    @pytest.mark.parametrize("seed", range(20))
    @pytest.mark.parametrize("preset", ["kappa=gamma", "paper10"])
    def test_entropic_bit_identical_on_binary_trees(self, seed, preset):
        rng = random.Random(600 + seed)
        tree = random_tree(rng, rng.randint(1, 4))
        if preset == "paper10":
            op = ExpectationOperator.paper10()
        else:
            op = ExpectationOperator.entropic(rng.uniform(2.0, 20.0))
        s = rng.randint(0, tree.horizon)
        t = rng.randint(0, s)
        q = Slice.from_map(
            s,
            {
                n: rng.choice((0.0, -0.0)) if rng.random() < 0.3 else rng.uniform(-30, 30)
                for n in tree.nodes_at(s)
            },
        )
        got = evaluate(op, tree, q, t)
        want = dict_evaluate(op, tree, q, t)
        assert float_bits(got.values) == float_bits(want)

    @pytest.mark.parametrize("preset", ["kappa=gamma", "paper10"])
    def test_entropic_bit_identical_on_a_wide_tree(self, preset):
        # math's and numpy's exp and log differ in the last bit on a few
        # percent and a few hundredths of a percent of inputs; 256 leaves
        # show a kernel that rounds other than the oracle
        rng = random.Random(650)
        tree = random_tree(rng, 8)
        op = ExpectationOperator.entropic(7.3)
        if preset == "paper10":
            op = ExpectationOperator.paper10()
        for _ in range(20):
            q = Slice.from_map(8, {n: rng.uniform(-30, 30) for n in tree.nodes_at(8)})
            for t in (8, 7, 0):
                got = evaluate(op, tree, q, t)
                want = dict_evaluate(op, tree, q, t)
                assert float_bits(got.values) == float_bits(want)


class TestEntropicProperties:
    @given(st.integers(0, 2**20), st.floats(-20, 20, allow_nan=False))
    @settings(max_examples=60, deadline=None)
    def test_cash_additivity(self, seed, c):
        rng = random.Random(seed)
        tree = random_tree(rng, rng.randint(1, 3))
        op = ExpectationOperator.entropic(10.0)
        q = Slice.from_map(tree.horizon, {n: rng.uniform(-20, 20) for n in tree.nodes_at(tree.horizon)})
        base = evaluate(op, tree, q, 0)
        shifted = evaluate(op, tree, Slice(q.time, q.nodes, q.array + c), 0)
        for n in base.values:
            assert shifted[n] == pytest.approx(base[n] + c, abs=1e-9)

    @given(st.integers(0, 2**20))
    @settings(max_examples=60, deadline=None)
    def test_never_exceeds_linear(self, seed):
        rng = random.Random(seed)
        tree = random_tree(rng, rng.randint(1, 3))
        q = Slice.from_map(tree.horizon, {n: rng.uniform(-20, 20) for n in tree.nodes_at(tree.horizon)})
        ent = evaluate(ExpectationOperator.entropic(10.0), tree, q, 0)
        lin = evaluate(ExpectationOperator.linear(), tree, q, 0)
        for n in ent.values:
            assert ent[n] <= lin[n] + 1e-12

    @pytest.mark.parametrize("seed", range(5))
    def test_approaches_linear_as_gamma_grows(self, seed):
        rng = random.Random(500 + seed)
        tree = random_tree(rng, 3)
        q = Slice.from_map(3, {n: rng.uniform(-20, 20) for n in tree.nodes_at(3)})
        lin = evaluate(ExpectationOperator.linear(), tree, q, 0)
        gaps = []
        for gamma in (1e2, 1e4, 1e6):
            ent = evaluate(ExpectationOperator.entropic(gamma), tree, q, 0)
            gaps.append(max(abs(ent[n] - lin[n]) for n in lin.values))
        assert gaps[0] >= gaps[1] >= gaps[2]
        for gamma, gap in zip((1e2, 1e4, 1e6), gaps):
            assert gap <= 1000.0 / gamma


class TestAxioms:
    def test_standard_entropic_passes_on_random_trees(self):
        rng = random.Random(42)
        for _ in range(10):
            tree = random_tree(rng, rng.randint(2, 4))
            report = axioms_check(
                ExpectationOperator.entropic(10.0), tree, trials=25, seed=rng.randint(0, 10**6)
            )
            assert report.all_pass, {
                k: v.worst_violation for k, v in report.verdicts().items()
            }

    def test_linear_passes(self, demo):
        report = axioms_check(ExpectationOperator.linear(), demo.market.tree, 100, seed=1)
        assert report.all_pass

    def test_base10_preset_fails_invariance_and_recursivity(self, demo):
        report = axioms_check(ExpectationOperator.paper10(), demo.market.tree, 200, seed=2)
        assert not report.constant_invariance.passed
        assert report.constant_invariance.counterexample is not None
        assert not report.recursivity.passed
        assert report.recursivity.counterexample is not None
        # still monotone and local
        assert report.monotonicity.passed
        assert report.zero_one_law.passed

    def test_base10_constant_scaling_is_the_failure_mode(self, demo):
        # a constant c maps to c * kappa/gamma, so the violation is visible directly
        tree = demo.market.tree
        op = ExpectationOperator.paper10()
        nodes = tree.sorted_nodes_at(2)
        q = Slice(2, nodes, np.full(len(nodes), 10.0))
        out = evaluate(op, tree, q, 2)
        assert out[tree.nodes_at(2)[0]] == pytest.approx(10.0 * PAPER10_KAPPA / 10.0, rel=1e-12)

    def test_report_is_reproducible(self, demo):
        a = axioms_check(ExpectationOperator.paper10(), demo.market.tree, 50, seed=9)
        b = axioms_check(ExpectationOperator.paper10(), demo.market.tree, 50, seed=9)
        assert a.constant_invariance.counterexample == b.constant_invariance.counterexample
        assert a.recursivity.worst_violation == b.recursivity.worst_violation


AXIOM_OPERATORS = {
    "linear": ExpectationOperator.linear(),
    "entropic5": ExpectationOperator.entropic(5.0),
    "entropic10": ExpectationOperator.entropic(10.0),
    "paper10": ExpectationOperator.paper10(),
    "entropic_g2_k7": ExpectationOperator.entropic(2.0, 7.0),
}


def _axiom_trees():
    rng = random.Random(2010)
    trees = {"s4": builtin_example("s4").market.tree}
    for depth in range(5):
        for fan in (1, 2, 3):
            trees[f"depth{depth}_fan{fan}"] = random_tree(rng, depth, (fan, fan))
    return trees


AXIOM_TREES = _axiom_trees()


def _same_report(op, tree, trials, seed, tol=1e-9):
    batched = axioms_check(op, tree, trials, seed, tol)
    oracle = oracle_axioms_check(op, tree, trials, seed, tol)
    assert dataclasses.asdict(batched) == dataclasses.asdict(oracle)
    # repr also tells -0.0 from 0.0 in the counterexamples
    assert repr(dataclasses.asdict(batched)) == repr(dataclasses.asdict(oracle))
    return batched


class TestEvaluateLevelsWholeLevels:
    """The kernel returns every row of every level asked for, each equal bit
    for bit to evaluate on that row alone."""

    def test_no_level_asked_gives_no_values(self, demo, first_step_wealth):
        op, tree = ExpectationOperator.paper10(), demo.market.tree
        wide = np.ones((2, len(tree.sorted_nodes_at(3))))
        wide[0, 0] = 1e6  # |q|/gamma beyond MAX_EXPONENT
        for q in (first_step_wealth, Slice(3, tree.sorted_nodes_at(3), wide)):
            for times in ([], range(0)):
                assert evaluate_levels(op, tree, q, times) == {}

    @pytest.mark.parametrize("tree_name", sorted(AXIOM_TREES))
    @pytest.mark.parametrize("op_name", sorted(AXIOM_OPERATORS))
    def test_whole_levels_match_evaluate(self, tree_name, op_name):
        tree, op = AXIOM_TREES[tree_name], AXIOM_OPERATORS[op_name]
        rng = random.Random(f"{tree_name}/{op_name}")
        scale = 3.0 * op.gamma if op.kind == "entropic" else 10.0
        for s in range(tree.horizon + 1):
            nodes = tree.sorted_nodes_at(s)
            q = np.array([[rng.uniform(-scale, scale) for _ in nodes] for _ in range(5)])
            # every level, then some levels skipped and asked in any order
            some = rng.sample(range(s + 1), rng.randint(1, s + 1))
            for times in (range(s + 1), some):
                got = evaluate_levels(op, tree, Slice(s, nodes, q), times)
                assert sorted(got) == sorted(times)
                for u, vals in got.items():
                    want = [evaluate(op, tree, Slice(s, nodes, row), u).array for row in q]
                    assert vals.shape == (5, len(tree.sorted_nodes_at(u)))
                    assert vals.tobytes() == np.array(want).tobytes()


class TestAxiomsMatchOneTrialLoop:
    """The block-wise suite gives the one-trial-at-a-time loop's report, bit
    for bit: verdicts, worst violations, counterexamples and the tie note."""

    @pytest.mark.parametrize("tree_name", sorted(AXIOM_TREES))
    @pytest.mark.parametrize("op_name", sorted(AXIOM_OPERATORS))
    def test_small_and_block_crossing_counts(self, tree_name, op_name):
        tree, op = AXIOM_TREES[tree_name], AXIOM_OPERATORS[op_name]
        for seed, trials in enumerate((1, 7, AXIOM_BLOCK + 7)):
            _same_report(op, tree, trials, seed)

    @pytest.mark.parametrize("op_name", sorted(AXIOM_OPERATORS))
    def test_default_trial_count(self, op_name):
        op = AXIOM_OPERATORS[op_name]
        for seed in (0, 11, 40629):
            for tree_name in ("s4", "depth3_fan2"):
                report = _same_report(op, AXIOM_TREES[tree_name], 500, seed)
                if op_name == "paper10":
                    assert report.constant_invariance.counterexample is not None
                    assert report.recursivity.counterexample is not None

    @pytest.mark.parametrize("op_name", ["linear", "entropic10", "paper10"])
    @pytest.mark.parametrize(
        "broken, failing",
        [(np.negative, "monotonicity"), (lambda v: v + 1.0, "zero_one_law")],
        ids=["negated", "shifted"],
    )
    def test_counterexamples_of_a_broken_kernel(self, monkeypatch, op_name, broken, failing):
        # every shipped operator is monotone and local, so these counterexamples
        # come from a kernel whose values are negated or shifted by 1.0
        kernel = expectations.evaluate_levels

        def patched(*args):
            return {t: broken(v) for t, v in kernel(*args).items()}

        monkeypatch.setattr(expectations, "evaluate_levels", patched)
        for tree_name in ("s4", "depth3_fan2"):
            report = _same_report(AXIOM_OPERATORS[op_name], AXIOM_TREES[tree_name], 50, 0)
            verdict = getattr(report, failing)
            assert not verdict.passed and verdict.counterexample is not None

    def test_fold_runs_across_blocks(self):
        # the worst violation and the counterexample lie in the first block,
        # so a fold that restarted per block would report the second's
        op, tree = AXIOM_OPERATORS["paper10"], AXIOM_TREES["s4"]
        full = _same_report(op, tree, AXIOM_BLOCK + 7, 3)
        first = oracle_axioms_check(op, tree, AXIOM_BLOCK, 3)
        for name, verdict in full.verdicts().items():
            assert verdict == first.verdicts()[name]
        assert full.recursivity.worst_violation > 0

    def test_loose_tol_and_large_kappa_over_gamma(self):
        tree = AXIOM_TREES["depth2_fan3"]
        _same_report(AXIOM_OPERATORS["paper10"], tree, 50, 5, tol=0.5)
        # kappa/gamma = 1000 makes the nested E(q|F_u) wide: it is evaluated,
        # and only the two axioms that need kappa == gamma fail
        report = _same_report(ExpectationOperator.entropic(1.0, 1000.0), tree, 50, 0)
        assert report.monotonicity.passed and report.zero_one_law.passed
        assert not report.constant_invariance.passed and not report.recursivity.passed
        assert report.recursivity.worst_violation > 1e3

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("kappa", [1e300, 1e308])
    def test_values_past_float_range_fail_without_warning(self, kappa):
        # kappa/gamma = 1e300 takes the nested E(q|F_u) past float range to
        # +-inf: an infinite violation fails, with no round-off allowance. At
        # 1e308 some nodes have both sides the same infinity, a gap of 0, not
        # a NaN that would hide the trial's other nodes
        report = _same_report(ExpectationOperator.entropic(1.0, kappa), AXIOM_TREES["s4"], 50, 0)
        assert report.recursivity.worst_violation == math.inf
        assert not report.recursivity.passed and report.zero_one_law.passed

    @pytest.mark.parametrize("gamma", [1e7, 1e8, 1e12])
    def test_round_off_on_large_values_passes(self, gamma):
        # draws from +-3 gamma are an ulp or two of gamma off after the exp
        # and log; the allowance, not tol, absorbs that, and the worst
        # violation is still reported
        report = _same_report(ExpectationOperator.entropic(gamma), AXIOM_TREES["s4"], 500, 0)
        assert report.all_pass
        assert report.constant_invariance.worst_violation > report.tol

    def test_peak_memory_is_one_block(self):
        tree, op = AXIOM_TREES["depth4_fan3"], AXIOM_OPERATORS["entropic10"]
        peaks = []
        for trials in (AXIOM_BLOCK, 4 * AXIOM_BLOCK):
            tracemalloc.start()
            try:
                axioms_check(op, tree, trials, 1)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 1.25 * peaks[0]

    @pytest.mark.parametrize("gamma", [3e307, 6e307, 1e308])
    def test_overflowing_draw_scale_is_refused(self, gamma):
        # draws from +-3 gamma would be inf or NaN, and NaN passes every axiom
        with pytest.raises(ValueError, match="gamma"):
            axioms_check(ExpectationOperator.entropic(gamma), AXIOM_TREES["s4"], 5, 0)

    def test_largest_drawable_gamma_is_checked(self):
        _same_report(ExpectationOperator.entropic(2.9e307), AXIOM_TREES["s4"], 20, 0)


def _not_cpython_draws(fact: str) -> str:
    return (
        f"Python {sys.version.split()[0]} no longer {fact}: axioms_check decodes the "
        "generator's words as CPython 3.11 draws from them, so its slices now differ "
        "from the one-trial loop's"
    )


class TestDrawContract:
    """axioms_check reads random.Random(seed)'s 32-bit words in bulk and
    decodes them as the one-trial loop's randint, uniform and random calls
    would. Python promises only random()'s sequence; the word layout of
    getrandbits, random()'s use of two words and randint's rejection rule
    are CPython's implementation. This says which of them moved, before the
    report tests fail with no reason."""

    def test_getrandbits_puts_the_first_word_lowest(self):
        for seed, k in enumerate((1, 2, 7, 1000)):
            bulk, one = random.Random(seed), random.Random(seed)
            words = [one.getrandbits(32) for _ in range(k)]
            got = bulk.getrandbits(32 * k)
            assert got == sum(w << (32 * i) for i, w in enumerate(words)) and (
                bulk.random() == one.random()
            ), _not_cpython_draws(f"gives getrandbits(32 * {k}) as {k} words, first lowest")
            assert expectations._words(random.Random(seed), k).tolist() == words

    def test_random_is_53_bits_of_two_words(self):
        draws, words = random.Random(22), random.Random(22)
        for _ in range(2000):
            w0, w1 = words.getrandbits(32), words.getrandbits(32)
            r = ((w0 >> 5) * 67108864.0 + (w1 >> 6)) * (1.0 / 9007199254740992.0)
            assert draws.random() == r, _not_cpython_draws("makes random() of two words")
            assert draws.uniform(-30.0, 30.0) == -30.0 + (30.0 - -30.0) * words.random(), (
                _not_cpython_draws("gives uniform(a, b) as a + (b - a) * random()")
            )

    def test_randint_rejects_top_bits_past_its_range(self):
        for n in range(1, 40):
            draws, words = random.Random(n), random.Random(n)
            for _ in range(200):
                k = n.bit_length()
                while (r := words.getrandbits(32) >> (32 - k)) >= n:
                    pass
                assert draws.randint(5, 5 + n - 1) == 5 + r, _not_cpython_draws(
                    f"draws randint over {n} values from the top {k} bits of a word, "
                    "read again while they are past the range"
                )
            assert draws.getrandbits(32) == words.getrandbits(32)

    def test_refill_and_carry_match_the_one_trial_loop(self, monkeypatch):
        # a block's first read is its expected need; on 1,296 leaves seed 5
        # reads more words within a block, and AXIOM_BLOCK + 7 trials carry
        # the unused ones into a second
        reads, carries = [], []
        words, draw = expectations._words, expectations._draw_block

        def counted_words(rng, k):
            reads.append(k)
            return words(rng, k)

        def counted_draw(rng, carry, width, count):
            carries.append(len(carry))
            return draw(rng, carry, width, count)

        monkeypatch.setattr(expectations, "_words", counted_words)
        monkeypatch.setattr(expectations, "_draw_block", counted_draw)
        tree = random_tree(random.Random(6), 4, (6, 6))
        _same_report(AXIOM_OPERATORS["paper10"], tree, AXIOM_BLOCK + 7, 5)
        assert len(carries) == 2 and carries[1] > 0
        assert len(reads) > len(carries)

    def test_numpy_random_is_never_imported(self):
        # importing it alone raises a process's peak RSS by about 6 MB
        sketch = (
            "import sys\n"
            "from horizonrisk import ExpectationOperator, axioms_check, builtin_example\n"
            "axioms_check(ExpectationOperator.paper10(), builtin_example('s4').market.tree, 300, 0)\n"
            "print(sorted(m for m in sys.modules if m.startswith('numpy.random')))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(expectations.__file__).resolve().parents[1]))
        done = subprocess.run(
            [sys.executable, "-c", sketch], env=env, capture_output=True, text=True, timeout=120
        )
        assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")


WIDE_OPERATORS = {
    **{name: AXIOM_OPERATORS[name] for name in ("entropic10", "paper10", "entropic_g2_k7")},
    "entropic1": ExpectationOperator.entropic(1.0),
}


def _wide_slice(rng: random.Random, op: ExpectationOperator, kind: str, n: int) -> np.ndarray:
    if kind == "constant":
        return np.full(n, rng.choice((8e4, -8e4, 1e6, -1e6)))
    if kind == "spread":
        return np.array([rng.uniform(-1e6, 1e6) for _ in range(n)])
    # mixed: about half the leaves on either side of |q|/gamma = MAX_EXPONENT
    return np.array(
        [rng.uniform(-900, 900) * op.gamma if rng.random() < 0.5 else rng.uniform(-1e6, 1e6)
         for _ in range(n)]
    )


def _assert_matches_decimal(op, tree, q: Slice, t: int, scale: float) -> None:
    """evaluate against the 60-digit oracle: infinite and NaN values
    exactly, finite ones within 4 ulps of scale * max(1, kappa/gamma),
    a product taken in decimal so that it does not overflow."""
    got = evaluate(op, tree, q, t)
    want = decimal_entropic(tree, q, t, op.gamma, op.kappa)
    ratio = decimal.Decimal(op.kappa) / decimal.Decimal(op.gamma)
    bound = 4 * math.ulp(float(decimal.Decimal(scale) * max(1, ratio)))
    for n, w in want.items():
        if math.isfinite(w):
            assert abs(got[n] - w) <= bound, (n, got[n], w)
        else:
            assert repr(got[n]) == repr(w), (n, got[n], w)


#: root -> a (1e-200) -> aa (1e-200), ab; root -> b -> ba
DEEP_TINY = {"a": 1e-200, "b": 1 - 1e-200, "aa": 1e-200, "ab": 1 - 1e-200, "ba": 1.0}


class TestNarrowInputs:
    """Ordinary inputs, |q|/gamma below MAX_EXPONENT, against the 60-digit
    oracle."""

    @pytest.mark.parametrize("tree_name", sorted(AXIOM_TREES))
    @pytest.mark.parametrize("op_name", sorted(WIDE_OPERATORS))
    def test_matches_decimal_oracle(self, tree_name, op_name):
        # exp and log round at kappa's scale however small q is, so the
        # scale is at least gamma: the worst error measured over 33,680
        # values was 2 ulps of max(|q|, gamma) * max(1, kappa/gamma)
        tree, op = AXIOM_TREES[tree_name], WIDE_OPERATORS[op_name]
        rng = random.Random(f"narrow/{tree_name}/{op_name}")
        for s in range(tree.horizon + 1):
            nodes = tree.sorted_nodes_at(s)
            for _ in range(5):
                q = np.array([rng.uniform(-3 * op.gamma, 3 * op.gamma) for _ in nodes])
                scale = max(float(np.abs(q).max()), op.gamma)
                for t in range(s + 1):
                    _assert_matches_decimal(op, tree, Slice(s, nodes, q), t, scale)


class TestWideInputs:
    """Inputs with |q|/gamma beyond MAX_EXPONENT, and +-inf and NaN, have
    their exact values: no value is refused."""

    @pytest.mark.parametrize("tree_name", sorted(AXIOM_TREES))
    @pytest.mark.parametrize("op_name", sorted(WIDE_OPERATORS))
    def test_matches_decimal_oracle(self, tree_name, op_name):
        tree, op = AXIOM_TREES[tree_name], WIDE_OPERATORS[op_name]
        rng = random.Random(f"wide/{tree_name}/{op_name}")
        for s in range(tree.horizon + 1):
            nodes = tree.sorted_nodes_at(s)
            for kind in ("constant", "spread", "mixed"):
                q = Slice(s, nodes, _wide_slice(rng, op, kind, len(nodes)))
                for t in range(s + 1):
                    _assert_matches_decimal(op, tree, q, t, float(np.abs(q.array).max()))

    @pytest.mark.parametrize("tree_name", sorted(AXIOM_TREES))
    def test_constant_is_exact_when_kappa_is_gamma(self, tree_name):
        tree = AXIOM_TREES[tree_name]
        for op in (WIDE_OPERATORS["entropic10"], WIDE_OPERATORS["entropic1"]):
            for c in (8e4, -8e4, 1e6, -1e6):
                for s in range(tree.horizon + 1):
                    nodes = tree.sorted_nodes_at(s)
                    got = evaluate_levels(op, tree, Slice(s, nodes, np.full(len(nodes), c)),
                                          range(s + 1))
                    for t, vals in got.items():
                        assert vals.tolist() == [c] * len(tree.sorted_nodes_at(t))

    @pytest.mark.parametrize(
        "nodes, vals, message",
        [
            (("a", "b", "c"), [1e6, 1.0, 2.0], "does not cover exactly the time-3 nodes"),
            (("a", "b", "c"), [1e6, 1.0, 2.0, 3.0], "does not cover exactly the time-3 nodes"),
            (None, [1e6] + [1.0] * 8, r"shape \(9,\) does not end in its node axis"),
            (None, 1e6, r"shape \(\) does not end in its node axis"),
            (None, 1.0, r"shape \(\) does not end in its node axis"),
        ],
    )
    def test_a_slice_that_does_not_fit_the_tree_is_refused(self, demo, nodes, vals, message):
        # the wide rows are valued after the descent has checked the slice:
        # these ended in numpy's broadcast and reshape errors, and a 0-d
        # array, wide or not, in an IndexError
        tree = demo.market.tree
        q = Slice(3, nodes or tree.sorted_nodes_at(3), np.array(vals))
        with pytest.raises(ValueError, match=message):
            evaluate(ExpectationOperator.entropic(1.0), tree, q, 0)

    @pytest.mark.parametrize(
        "shape, message",
        [
            ((2, 9), r"shape \(2, 9\) does not end in its node axis"),
            ((1, 2, 8), r"shape \(1, 2, 8\) does not end in its node axis"),
        ],
    )
    def test_a_wide_member_stack_that_does_not_fit_the_tree_is_refused(self, demo, shape, message):
        # several levels too: the wide rows are valued only after the
        # descent has checked the stack
        tree = demo.market.tree
        a = np.ones(shape)
        a[(0,) * (len(shape) - 1)][0] = 1e6
        q = Slice(3, tree.sorted_nodes_at(3), a)
        with pytest.raises(ValueError, match=message):
            evaluate_levels(ExpectationOperator.entropic(1.0), tree, q, [3, 0])

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("tree_name", sorted(AXIOM_TREES))
    @pytest.mark.parametrize("op_name", sorted(WIDE_OPERATORS))
    def test_infinities_take_their_limits_and_nan_propagates(self, tree_name, op_name):
        # any -inf child gives -inf; +inf children count 0 unless all of a
        # parent's children are +inf; a NaN makes its ancestors NaN
        tree, op = AXIOM_TREES[tree_name], WIDE_OPERATORS[op_name]
        rng = random.Random(f"inf/{tree_name}/{op_name}")
        nodes = tree.sorted_nodes_at(tree.horizon)
        for special in ([-math.inf], [math.inf], [math.nan], [math.inf, -math.inf],
                        [math.nan, math.inf], [math.inf] * len(nodes)):
            for kind in ("spread", "mixed"):
                vals = _wide_slice(rng, op, kind, len(nodes))
                scale = float(np.abs(vals).max())
                for i, v in zip(rng.sample(range(len(nodes)), min(len(special), len(nodes))),
                                special):
                    vals[i] = v
                q = Slice(tree.horizon, nodes, vals)
                for t in range(tree.horizon + 1):
                    _assert_matches_decimal(op, tree, q, t, scale)

    @pytest.mark.parametrize(
        "probs, q, gamma",
        [
            ({"a": 1 - 1e-50, "b": 1e-50}, (-700.0, -800.0), 1.0),
            ({"a": 1e-20, "b": 1 - 1e-20}, (7000.0, 1e6), 10.0),
            ({"a": 1e-300, "b": 1 - 1e-300}, (7000.0, 1e6), 10.0),
            # the path to aa has probability 1e-400, below float range
            (DEEP_TINY, (7000.0, 1e6, 1e6), 10.0),
            (DEEP_TINY, (-math.inf, 1e6, 1e6), 10.0),
        ],
    )
    def test_tiny_branch_probabilities(self, probs, q, gamma):
        # the leaf with the lowest value dominates, however small its
        # probability: a shift of 0 there scaled its term to 0 (the first
        # case read -684.87), and a shift kept across levels multiplied the
        # probabilities down to 0 (the others took the log of 0)
        T = max(map(len, probs))
        nodes = [{"id": "r", "time": 0, "parent": None}]
        nodes += [{"id": n, "time": len(n), "parent": n[:-1] or "r", "p": p} for n, p in probs.items()]
        tree = build_tree({"T": T, "nodes": nodes})
        q = Slice(T, tree.sorted_nodes_at(T), np.array(q))
        scale = max(abs(v) for v in q.array.tolist() if math.isfinite(v))
        for t in range(T):
            _assert_matches_decimal(ExpectationOperator.entropic(gamma), tree, q, t, scale)

    @pytest.mark.parametrize(
        "gamma, kappa, c",
        [
            (1e-10, 1e300, 1e-5),  # kappa/gamma overflows
            (1e-10, 1e-20, 1e300),  # c/gamma overflows
            (1e300, 1e-10, 1e303),  # kappa/gamma is subnormal
        ],
    )
    def test_kept_values_scale_without_overflow(self, gamma, kappa, c):
        # a constant c has the value (kappa/gamma) c, which is in float
        # range here though one of the two ways to form it is not; it is
        # also held to 4 ulps of itself, a bound below c's own scale when
        # kappa < gamma
        tree, op = AXIOM_TREES["s4"], ExpectationOperator.entropic(gamma, kappa)
        nodes = tree.sorted_nodes_at(tree.horizon)
        q = Slice(tree.horizon, nodes, np.full(len(nodes), c))
        want = float(decimal.Decimal(kappa) * decimal.Decimal(c) / decimal.Decimal(gamma))
        for t in range(tree.horizon + 1):
            _assert_matches_decimal(op, tree, q, t, c)
            got = evaluate(op, tree, q, t).array
            assert np.abs(got - want).max() <= 4 * math.ulp(want), (t, got, want)

    @pytest.mark.parametrize("tree_name", ["s4", "depth3_fan2", "depth4_fan3"])
    @pytest.mark.parametrize("op_name", sorted(WIDE_OPERATORS))
    def test_rows_match_one_slice_values(self, tree_name, op_name):
        # one wide row in the block: every row, wide or not, keeps its
        # one-slice bits
        tree, op = AXIOM_TREES[tree_name], WIDE_OPERATORS[op_name]
        rng = random.Random(f"rows/{tree_name}/{op_name}")
        s = tree.horizon
        nodes = tree.sorted_nodes_at(s)
        q = np.array([rng.uniform(-30, 30) * op.gamma for _ in range(4 * len(nodes))])
        q = q.reshape(4, len(nodes))
        q[1] = _wide_slice(rng, op, "mixed", len(nodes))
        q[2, 0] = -0.0
        got = evaluate_levels(op, tree, Slice(s, nodes, q), range(s + 1))
        for t, vals in got.items():
            want = [evaluate(op, tree, Slice(s, nodes, row), t).array for row in q]
            assert vals.tobytes() == np.array(want).tobytes()


SOURCES = {
    path.name: ast.parse(path.read_text())
    for path in sorted((Path(__file__).resolve().parents[1] / "src/horizonrisk").glob("*.py"))
}


def _call_owners(matches) -> set[tuple[str, str]]:
    """(file, owner) of every call in src/horizonrisk whose callee `matches`;
    the owner is the innermost enclosing def, or the target of a
    module-level assignment."""
    found = set()

    def visit(node, name, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            owner = node.name
        elif isinstance(node, ast.Assign) and owner is None:
            owner = ", ".join(ast.unparse(t) for t in node.targets)
        if isinstance(node, ast.Call) and matches(node.func):
            found.add((name, owner))
        for child in ast.iter_child_nodes(node):
            visit(child, name, owner)

    for name, tree in SOURCES.items():
        visit(tree, name, None)
    return found


class TestOneBitLayout:
    """market.py is the only module that reads a space's bit matrix or a
    width table, or names the helpers that build and index them: every
    other module asks market.py."""

    LAYOUT = {"_start", "_column_owners", "_ends", "_layout"}

    def test_bits_and_their_helpers_only_in_market(self):
        readers = set()
        for name, tree in SOURCES.items():
            for node in ast.walk(tree):
                if (
                    isinstance(node, ast.Attribute) and node.attr in self.LAYOUT | {"_bits"}
                    or isinstance(node, ast.Name) and node.id in self.LAYOUT
                    or isinstance(node, ast.alias) and node.name in self.LAYOUT
                ):
                    readers.add(name)
        assert readers == {"market.py"}


def _string_owners(fragment: str) -> list[tuple[str, str]]:
    """(file, owner) of every string literal in src/horizonrisk, f-string
    parts included, that contains `fragment`; the owner is the innermost
    enclosing def."""
    found = []

    def visit(node, name, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            owner = node.name
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            if fragment in node.value:
                found.append((name, owner))
        for child in ast.iter_child_nodes(node):
            visit(child, name, owner)

    for name, tree in SOURCES.items():
        visit(tree, name, None)
    return found


class TestOneMembershipRule:
    """Whether a policy, space or file section belongs to a tree is decided
    in one place each: the refusals are written once."""

    def test_policy_refusal_only_in_market(self):
        assert _string_owners("does not cover this tree's decision nodes") == [
            ("market.py", "check_covers")
        ]

    def test_dtype_refusal_only_in_market(self):
        # a policy and a space refuse non-float64 allocations with one rule,
        # the layout rule
        assert _string_owners(", not float64") == [("market.py", "_layout")]

    def test_shape_refusal_only_in_layout(self):
        # a policy and a space refuse a level count, a level shape and a
        # second asset count with one rule
        for fragment in ("allocation levels for", "not (nodes, assets)"):
            assert _string_owners(fragment) == [("market.py", "_layout")]

    def test_asset_count_refusal_only_in_market(self):
        assert _string_owners("does not hold as many assets per node as") == [
            ("market.py", "check_meets")
        ]

    def test_every_entry_pairing_a_tree_with_a_policy_asks_it(self):
        # a past meets a space, agrees_before another policy, and from_policies
        # every policy its first, through check_meets, which asks check_covers
        # and compares width tables; a market values what fits it, through
        # check_fits, which asks check_covers and compares asset counts
        def calls(name):
            return lambda func: isinstance(func, ast.Name) and func.id == name

        assert _call_owners(calls("check_covers")) == {
            ("market.py", "paste"),
            ("market.py", "is_pasting_closed"),
            ("market.py", "stopping_time_space"),
            ("market.py", "check_meets"),
            ("market.py", "check_fits"),
        }
        assert _call_owners(calls("check_fits")) == {
            ("market.py", "wealth_process"),
            ("horizon.py", "value_process"),
        }
        assert _call_owners(calls("check_meets")) == {
            ("market.py", "conditional_space"),
            ("market.py", "agrees_before"),
            ("market.py", "from_policies"),
        }

    def test_unknown_node_refusal_only_in_node_vectors(self):
        assert _string_owners("which is not a node of the tree") == [
            ("files.py", "_node_vectors")
        ]


def _time_takers(demo) -> dict:
    """{name: (first, last, call)}: every public function that takes a time,
    called on s4 with the time alone varying, and the times it accepts."""
    market, space, base = demo.market, demo.space, demo.base_policy
    tree, op = market.tree, ExpectationOperator.paper10()
    T, n, vf, past = tree.horizon, len(space.levels), SimpleHorizon(1, op), space.member(0)
    wealth = wealth_process(market, base)
    q, one = wealth.at(T), PolicySpace.from_policies([base])
    ones = {u: np.ones(len(tree.sorted_nodes_at(u))) for u in range(T + 1)}
    return {
        "nodes_at": (0, T, tree.nodes_at),
        "sorted_nodes_at": (0, T, tree.sorted_nodes_at),
        "parent_rows": (1, T, tree.parent_rows),
        "ancestor_rows": (0, T, tree.ancestor_rows),
        "fold": (1, T, lambda t: tree.fold(t, ones.get(t, ones[T]))),
        "conditional_expectation": (0, T, lambda t: conditional_expectation(tree, q, t)),
        "evaluate": (0, T, lambda t: evaluate(op, tree, q, t)),
        "evaluate_levels": (0, T, lambda t: evaluate_levels(op, tree, q, [t])),
        "value_process": (0, T, lambda t: value_process(vf, market, base, [t])),
        "value": (0, T, lambda t: value(vf, market, base, t)),
        "uniform_maximizer": (0, T, lambda t: uniform_maximizer(vf, market, one, t)),
        "conditional_space": (0, n, lambda t: conditional_space(space, t, past)),
        "feasible_set": (0, n, lambda t: feasible_set(vf, space, t, past)),
        "is_pasting_closed": (0, n, lambda t: is_pasting_closed(tree, space, t, past)),
        "Policy.prefix": (0, n, base.prefix),
        "Policy.agrees_before": (0, n, lambda t: base.agrees_before(past, t)),
        "AdaptedProcess.at": (0, T, wealth.at),
    }


TIME_TAKERS = sorted(_time_takers(builtin_example("s4")))


class TestOneTimeRule:
    """Whether t is a time of the tree, or of a policy's decisions, is
    decided by one check, `tree.check_time`, which every function that
    takes a time asks."""

    @pytest.mark.parametrize("bad", ["bool", "float", "numpy float", "first - 1", "last + 1"])
    @pytest.mark.parametrize("name", TIME_TAKERS)
    def test_refuses_a_time_that_is_no_integer_or_out_of_range(self, demo, name, bad):
        first, last, call = _time_takers(demo)[name]
        t = {"bool": True, "float": 1.0, "numpy float": np.float64(1.0),
             "first - 1": first - 1, "last + 1": last + 1}[bad]
        with pytest.raises((ValueError, TimeOrderError)) as refused:
            call(t)
        if bad in ("bool", "float", "numpy float"):
            assert refused.type is ValueError and "time must be an integer" in str(refused.value)
        else:
            assert refused.type is TimeOrderError

    @pytest.mark.parametrize("name", TIME_TAKERS)
    def test_numpy_integer_times_are_times(self, demo, name):
        first, last, call = _time_takers(demo)[name]
        call(np.int64(last))
        call(np.int32(first))

    def test_out_of_range_refusal_only_in_check_time(self):
        def time_order_error(func):
            return isinstance(func, ast.Name) and func.id == "TimeOrderError"

        # the other refusals are other questions: forward conditioning, a
        # process without the slice, and a policy's time keys. evaluate and
        # evaluate_levels raise none of their own: conditional_expectation
        # refuses for both
        raisers = _call_owners(time_order_error)
        assert raisers == {
            ("tree.py", "check_time"),
            ("tree.py", "at"),
            ("tree.py", "conditional_expectation"),
            ("market.py", "from_maps"),
        }
        assert raisers & set(_string_owners(" outside ")) == {("tree.py", "check_time")}

    def test_forward_conditioning_refused_only_in_conditional_expectation(self):
        assert _string_owners("cannot condition") == [("tree.py", "conditional_expectation")]

    def test_every_function_that_takes_a_time_asks_it(self):
        def check_time(func):
            return isinstance(func, ast.Name) and func.id == "check_time"

        # value and uniform_maximizer ask through value_process, feasible_set
        # and is_pasting_closed through conditional_space, agrees_before
        # through prefix, ancestor_rows and evaluate through sorted_nodes_at,
        # and evaluate_levels through conditional_expectation
        assert _call_owners(check_time) == {
            ("tree.py", "nodes_at"),
            ("tree.py", "sorted_nodes_at"),
            ("tree.py", "parent_rows"),
            ("tree.py", "fold"),
            ("tree.py", "at"),
            ("tree.py", "conditional_expectation"),
            ("horizon.py", "value_process"),
            ("market.py", "prefix"),
            ("market.py", "conditional_space"),
        }


class TestOneKernel:
    """evaluate_levels is the only code that exponentiates, folds and takes
    logs for the operator: the calls that do so sit only in its helpers."""

    def test_exp_and_log_only_in_the_entropic_steps(self):
        def exp_or_log(func):
            return (
                isinstance(func, ast.Attribute)
                and func.attr in ("exp", "log")
                and isinstance(func.value, ast.Name)
                and func.value.id in ("math", "np")
            )

        assert _call_owners(exp_or_log) == {
            ("expectations.py", "_entropic_exps"),
            ("expectations.py", "_entropic_logs"),
            ("expectations.py", "PAPER10_KAPPA"),
        }

    def test_math_and_numpy_reach_exp_and_log_only_as_math_and_np(self):
        # what the scan above relies on: no other name for either module,
        # and no bare exp or log imported from them
        for name, tree in SOURCES.items():
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    for alias in node.names:
                        if alias.name in ("math", "numpy"):
                            assert (alias.name, alias.asname) in (("math", None), ("numpy", "np"))
                elif isinstance(node, ast.ImportFrom) and node.module in ("math", "numpy"):
                    assert not {a.name for a in node.names} & {"exp", "log"}, name

    def test_tree_fold_only_in_the_two_folds(self):
        def fold(func):
            return isinstance(func, ast.Attribute) and func.attr == "fold"

        assert _call_owners(fold) == {
            ("tree.py", "conditional_expectation"),
            ("horizon.py", "_bellman_process"),
        }
