import dataclasses
import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from horizonrisk import (
    BellmanAdditive,
    ExpectationOperator,
    MismatchedInputs,
    ModifiedHorizon,
    NoUniformMaximizer,
    Policy,
    PolicySpace,
    SimpleHorizon,
    Slice,
    Terminal,
    acceptability_check,
    axioms_check,
    builtin_example,
    check_dependability,
    check_time_consistency,
    intertemporal_monotonicity,
    run_policy_choice,
    stopping_time_space,
    uniform_maximizer,
    value,
    zero_policy,
)

from horizonrisk.consistency import _dominance, _first_meeting

from helpers import (
    dense_monotonicity,
    float_bits,
    loop_monotonicity,
    outer_difference_dominance,
    random_instance,
    random_market,
    random_policy,
)

PAPER10 = ExpectationOperator.paper10()


@pytest.fixture(scope="module")
def demo():
    return builtin_example("s4")


@pytest.fixture(scope="module")
def demo_simple_choice(demo):
    vf = SimpleHorizon(2, PAPER10)
    return vf, run_policy_choice(vf, demo.market, demo.space)


@pytest.fixture(scope="module")
def demo_modified_choice(demo):
    vf = ModifiedHorizon(2, PAPER10)
    return vf, run_policy_choice(vf, demo.market, demo.space)


class TestTimeConsistency:
    def test_demo_fails_at_time_zero(self, demo, demo_simple_choice):
        vf, choice = demo_simple_choice
        report = check_time_consistency(vf, demo.market, choice)
        assert not report.ok
        assert not report.records[0].ok
        assert report.records[0].max_signed_gap == pytest.approx(2.6815, abs=5e-4)
        assert report.records[1].ok and report.records[2].ok

    def test_terminal_choice_is_consistent(self, demo):
        vf = Terminal(PAPER10)
        choice = run_policy_choice(vf, demo.market, demo.space)
        report = check_time_consistency(vf, demo.market, choice)
        assert report.ok

    def test_singleton_space_is_trivially_consistent(self, demo):
        vf = SimpleHorizon(2, PAPER10)
        space = PolicySpace.from_policies((demo.base_policy,))
        choice = run_policy_choice(vf, demo.market, space)
        report = check_time_consistency(vf, demo.market, choice)
        assert report.ok
        for rec in report.records:
            assert rec.max_signed_gap == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("seed", range(15))
    def test_planned_never_looks_worse_than_realized(self, seed):
        # the one-sided direction holds for every optimal simple-mode choice
        market, base, space, m, op = random_instance(1100 + seed, max_depth=3)
        vf = SimpleHorizon(m, op)
        choice = run_policy_choice(vf, market, space)
        report = check_time_consistency(vf, market, choice)
        for rec in report.records:
            assert rec.min_signed_gap >= -1e-9

    def test_wrong_value_function_is_rejected(self, demo, demo_simple_choice):
        _, choice = demo_simple_choice
        other = SimpleHorizon(1, PAPER10)
        with pytest.raises(MismatchedInputs):
            check_time_consistency(other, demo.market, choice)

    def test_wrong_mode_is_rejected(self, demo, demo_modified_choice):
        vf, choice = demo_modified_choice
        with pytest.raises(MismatchedInputs):
            check_time_consistency(SimpleHorizon(2, PAPER10), demo.market, choice)

    @pytest.mark.parametrize("bad", ["rd", "ru"])
    def test_nan_recorded_value_is_rejected_at_any_node(self, demo, bad):
        vf = Terminal(PAPER10)
        choice = run_policy_choice(vf, demo.market, demo.space)
        recorded = choice.values[1]
        nan_at_bad = np.where([n == bad for n in recorded.nodes], math.nan, recorded.array)
        values = (choice.values[0], Slice(1, recorded.nodes, nan_at_bad), *choice.values[2:])
        with pytest.raises(MismatchedInputs, match="t=1"):
            check_time_consistency(vf, demo.market, dataclasses.replace(choice, values=values))

    @pytest.mark.parametrize("bad", ["rd", "ru"])  # the first and the second t=1 row
    def test_nan_gap_fails_its_record_at_any_node(self, demo, bad):
        vf = BellmanAdditive(lambda n, a: math.nan if n == bad else a[0])
        choice = run_policy_choice(vf, demo.market, demo.space)
        report = check_time_consistency(vf, demo.market, choice)
        rec = report.records[1]
        assert math.isnan(rec.planned[bad]) and math.isnan(rec.realized[bad])
        assert math.isnan(rec.max_signed_gap) and math.isnan(rec.min_signed_gap)
        assert not rec.ok and not report.ok
        # a NaN-free record keeps Python's max and min of its gaps
        assert report.records[2].ok and report.records[2].max_signed_gap == 0.0


class TestDependability:
    def test_demo_modified_choice_is_dependable(self, demo, demo_modified_choice):
        vf, choice = demo_modified_choice
        report = check_dependability(vf, demo.market, choice)
        assert report.ok
        rec = report.records[0]
        assert rec.planned["r"] == pytest.approx(0.1889, abs=5e-5)
        assert rec.realized["r"] == pytest.approx(0.4741, abs=5e-5)

    def test_singleton_space_passes_with_equality(self, demo):
        vf = ModifiedHorizon(4, PAPER10)  # cutoff beyond T keeps the member intact
        space = PolicySpace.from_policies((demo.base_policy,))
        choice = run_policy_choice(vf, demo.market, space)
        report = check_dependability(vf, demo.market, choice)
        assert report.ok
        for rec in report.records:
            assert rec.max_signed_gap == pytest.approx(0.0, abs=1e-12)

    def test_simple_mode_choice_is_rejected(self, demo, demo_simple_choice):
        _, choice = demo_simple_choice
        with pytest.raises(MismatchedInputs):
            check_dependability(ModifiedHorizon(2, PAPER10), demo.market, choice)

    @pytest.mark.parametrize("seed", range(20))
    def test_random_truncation_closed_instances(self, seed):
        market, base, space, m, op = random_instance(1200 + seed, max_depth=3)
        vf = ModifiedHorizon(m, op)
        choice = run_policy_choice(vf, market, space)
        report = check_dependability(vf, market, choice)
        assert report.ok, [r.max_signed_gap for r in report.records]


class TestIntertemporalMonotonicity:
    def test_terminal_value_passes_on_demo(self, demo):
        report = intertemporal_monotonicity(Terminal(PAPER10), demo.market, demo.space)
        assert report.ok and report.witness is None

    def test_short_horizon_value_fails_on_demo(self, demo):
        vf = SimpleHorizon(2, PAPER10)
        report = intertemporal_monotonicity(vf, demo.market, demo.space)
        assert not report.ok
        w = report.witness
        assert w is not None and w.s < w.t
        # the witness pair agrees before t, dominates at t, and crosses at s
        assert w.x.agrees_before(w.x_prime, w.t)
        for n in w.upper_x.values:
            assert w.upper_x[n] >= w.upper_x_prime[n] - report.tol
        assert w.lower_x[w.node] < w.lower_x_prime[w.node] - report.tol
        # recompute the witness values independently
        for sl, policy, time in (
            (w.upper_x, w.x, w.t),
            (w.upper_x_prime, w.x_prime, w.t),
            (w.lower_x, w.x, w.s),
            (w.lower_x_prime, w.x_prime, w.s),
        ):
            fresh = value(vf, demo.market, policy, time)
            for n in sl.values:
                assert fresh[n] == pytest.approx(sl[n], abs=1e-12)

    def test_breach_through_nan_names_a_witness_node(self, demo):
        # dominance at s = 0 fails only through a NaN stage payoff at the
        # root: the witness node is one where the dominance test fails
        root = demo.market.tree.root
        vf = BellmanAdditive(
            lambda node, alloc: math.nan if node == root and alloc[0] > 0 else alloc[0]
        )
        report = intertemporal_monotonicity(vf, demo.market, demo.space)
        assert not report.ok
        w = report.witness
        assert (w.t, w.s, w.node) == (1, 0, root)
        assert math.isnan(w.lower_x[root] - w.lower_x_prime[root])

    @pytest.mark.parametrize("seed", range(10))
    def test_terminal_and_stage_payoff_values_pass(self, seed):
        market, base, space, m, op = random_instance(1300 + seed, max_depth=3)
        assert intertemporal_monotonicity(Terminal(op), market, space).ok
        rng = random.Random(seed)
        coeffs = {n: rng.uniform(-5, 5) for n in market.tree.node_ids}
        vf = BellmanAdditive(lambda node, alloc: coeffs[node] * alloc[0])
        assert intertemporal_monotonicity(vf, market, space).ok

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_pairwise_loop(self, seed):
        # 40 members of a depth-4 stopping space: the short horizons breach
        # at t = 1 or t = 2, and the pair loop stays small
        rng = random.Random(1400 + seed)
        market = random_market(rng, 4)
        base = random_policy(rng, market.tree, 1, label="b")
        full = stopping_time_space(market.tree, base).policies
        members = tuple(full[k] for k in sorted(rng.sample(range(len(full)), 40)))
        space = PolicySpace.from_policies(members, label="sub")
        entropic5 = ExpectationOperator.entropic(5.0)
        for vf in (SimpleHorizon(1, PAPER10), SimpleHorizon(2, entropic5), Terminal(PAPER10)):
            report = intertemporal_monotonicity(vf, market, space)
            ok, pairs, hit = loop_monotonicity(vf, market, space, report.tol)
            assert (report.ok, report.pairs_checked) == (ok, pairs)
            if hit is None:
                continue
            t, s, i, j, node = hit
            w = report.witness
            assert (w.t, w.s, w.x.key, w.x_prime.key, w.node) == (
                t, s, members[i].key, members[j].key, node
            )
            for sl, policy, time in ((w.upper_x, w.x, t), (w.upper_x_prime, w.x_prime, t),
                                     (w.lower_x, w.x, s), (w.lower_x_prime, w.x_prime, s)):
                assert float_bits(sl.values) == float_bits(value(vf, market, policy, time).values)

    def test_smallest_pair_wins_across_prefix_groups(self):
        # two root allocations alternate over six members; at the first
        # breaching (t, s) both prefix groups breach, and the smallest pair
        # is in the group seen second (member 0's group breaches at (4, 0))
        rng = random.Random(45)
        market = random_market(rng, 3)
        tree = market.tree
        members = []
        for k in range(6):
            drawn = random_policy(rng, tree, 1).allocations.slices
            maps = {t: dict(sl.values) for t, sl in drawn.items()}
            maps[0] = {tree.root: (1.0 if k % 2 == 0 else -1.0,)}
            members.append(Policy.from_maps(f"p{k}", maps))
        space = PolicySpace.from_policies(tuple(members), label="two-groups")
        vf = SimpleHorizon(2, ExpectationOperator.linear())
        report = intertemporal_monotonicity(vf, market, space)
        ok, pairs, hit = loop_monotonicity(vf, market, space, report.tol)
        assert (report.ok, report.pairs_checked) == (ok, pairs)
        t, s, i, j, node = hit
        w = report.witness
        assert (w.t, w.s, w.x.key, w.x_prime.key, w.node) == (
            t, s, members[i].key, members[j].key, node
        )
        vals = {
            (k, u): value(vf, market, p, u).array for k, p in enumerate(members) for u in (t, s)
        }

        def dominates(a: int, b: int, u: int) -> bool:
            return bool((vals[a, u] - vals[b, u] >= -report.tol).all())

        breaching = [
            (a, b)
            for a in range(len(members))
            for b in range(len(members))
            if a != b
            and members[a].agrees_before(members[b], t)
            and dominates(a, b, t)
            and not dominates(a, b, s)
        ]
        assert min(breaching) == (i, j)
        assert not members[i].agrees_before(members[0], t)
        assert any(members[a].agrees_before(members[0], t) for a, _ in breaching)

    def test_monotone_values_make_optimal_subspace_choices_consistent(self):
        # where the criterion passes, every optimal choice over every
        # sub-space that admits one is consistent
        rng = random.Random(77)
        market = random_market(rng, 3)
        base = random_policy(rng, market.tree, 1, label="b")
        from horizonrisk import stopping_time_space

        space = stopping_time_space(market.tree, base)
        vf = Terminal(ExpectationOperator.entropic(10.0))
        assert intertemporal_monotonicity(vf, market, space).ok
        ran = 0
        for _ in range(40):
            members = rng.sample(space.policies, rng.randint(1, len(space)))
            sub = PolicySpace.from_policies(tuple(members), label="sub")
            try:
                choice = run_policy_choice(vf, market, sub)
            except NoUniformMaximizer:
                continue  # no optimal choice exists for this sub-space
            ran += 1
            assert check_time_consistency(vf, market, choice).ok
        assert ran >= 5


TOLS = (0.0, 1e-12, 1e-9, 1e-3)
EDGE_VALUES = (
    0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 2.2250738585072014e-308,
    1e300, -1e300, 1.0, -1.0,
)


def _nudged(x: float, ulps: int) -> float:
    for _ in range(abs(ulps)):
        x = float(np.nextafter(x, math.copysign(math.inf, ulps)))
    return x


@st.composite
def value_matrices(draw):
    """(values, tol): a (P, N) matrix mixing edge values, any floats, and
    anchors shifted by 0 or +-tol and then by at most one ulp, so that
    differences land exactly on -tol and on either side of it."""
    tol = draw(st.sampled_from(TOLS))
    P, N = draw(st.integers(1, 9)), draw(st.integers(1, 3))
    anchors = draw(st.lists(st.floats(-1e3, 1e3) | st.sampled_from(EDGE_VALUES), min_size=1,
                            max_size=3))
    shifted = st.builds(
        lambda a, sign, ulps: _nudged(a + sign * tol, ulps),
        st.sampled_from(anchors), st.sampled_from((-1, 0, 1)), st.integers(-1, 1),
    )
    cell = st.sampled_from(EDGE_VALUES) | st.floats() | shifted
    cells = draw(st.lists(cell, min_size=P * N, max_size=P * N))
    return np.array(cells, dtype=float).reshape(P, N), tol


class TestRankDominance:
    @given(value_matrices())
    @example((np.array([[1.0]]), 0.0))
    @example((np.array([[math.nan]]), 1e-9))
    @example((np.array([[0.0, 1.0], [-1e-3, 0.999]]), 1e-3))
    @settings(max_examples=300, deadline=None)
    def test_matches_outer_difference(self, case):
        values, tol = case
        with np.errstate(invalid="ignore", over="ignore"):
            assert np.array_equal(_dominance(values, tol), outer_difference_dominance(values, tol))

    def test_guess_moved_by_rounding_is_searched(self):
        # fl(1 - 1e-3) is 0.999, but fl(0.999 - 1) < -1e-3: the sorted guess
        # for j = 1 is one place too low and the binary search corrects it
        c = np.array([0.999, 1.0])
        tol = 1e-3
        assert np.searchsorted(c, c[1] - tol) == 0
        assert not c[0] - c[1] >= -tol
        assert _first_meeting(c, c, c, tol).tolist() == [0, 1]

    @pytest.mark.parametrize("tol", TOLS)
    def test_ties_at_exactly_tol(self, tol):
        c = np.array([0.0, tol, -tol, 2 * tol, -2 * tol, tol, 0.0])[:, None]
        assert np.array_equal(_dominance(c, tol), outer_difference_dominance(c, tol))


class TestSweepMatchesDenseSweep:
    """On full 677-member depth-4 stopping-time spaces, the rank sweep and
    the float outer-difference sweep give the same verdict, pair count and
    witness, breaching or not."""

    @pytest.mark.parametrize("seed", range(2))
    def test_whole_space(self, seed):
        rng = random.Random(2600 + seed)
        market = random_market(rng, 4)
        base = random_policy(rng, market.tree, 1, label="base")
        space = stopping_time_space(market.tree, base)
        assert len(space) == 677
        ops = {
            "linear": ExpectationOperator.linear(),
            "entropic5": ExpectationOperator.entropic(5.0),
            "entropic10": ExpectationOperator.entropic(10.0),
            "paper10": PAPER10,
        }
        vfs = [Terminal(op) for op in ops.values()]
        vfs += [SimpleHorizon(m, op) for m in (1, 2, 3) for op in (PAPER10, ops["entropic5"])]
        breaches = 0
        for vf in vfs:
            report = intertemporal_monotonicity(vf, market, space)
            ok, pairs, hit = dense_monotonicity(vf, market, space, report.tol)
            assert (report.ok, report.pairs_checked) == (ok, pairs), vf
            if hit is None:
                assert report.witness is None
                continue
            breaches += 1
            t, s, i, j, node = hit
            w = report.witness
            assert (w.t, w.s, w.x.key, w.x_prime.key, w.node) == (
                t, s, space.member(i).key, space.member(j).key, node
            )
        assert breaches >= 2


class TestAcceptability:
    def test_demo_candidate_is_acceptable_and_chain_holds(self, demo):
        report = acceptability_check(demo.market, demo.base_policy, 2, PAPER10)
        assert report.chain_ok
        assert report.acceptable
        assert report.candidate_terminal_value == pytest.approx(0.4741, abs=5e-5)
        assert report.realized_value == pytest.approx(0.4741, abs=5e-5)
        assert report.chosen_value == pytest.approx(0.1889, abs=5e-5)
        assert report.null_value == pytest.approx(0.0, abs=1e-12)
        assert report.space_size == 26

    def test_zero_candidate_gives_equal_values(self, demo):
        zero = zero_policy(demo.market.tree, 1)
        report = acceptability_check(demo.market, zero, 2, ExpectationOperator.entropic(10.0))
        assert report.chain_ok and report.acceptable
        for v in (
            report.realized_value,
            report.chosen_value,
            report.candidate_horizon_value,
            report.candidate_terminal_value,
            report.null_value,
        ):
            assert v == pytest.approx(demo.market.initial_wealth, abs=1e-12)

    def test_nonzero_initial_wealth_threshold_is_reported(self):
        rng = random.Random(55)
        market = random_market(rng, 2, v0=3.5)
        x = random_policy(rng, market.tree, 1, label="x")
        report = acceptability_check(market, x, 1, ExpectationOperator.entropic(10.0))
        assert report.initial_wealth == 3.5
        assert report.null_value == pytest.approx(3.5, abs=1e-12)
        assert report.chain_ok

    @pytest.mark.parametrize("seed", range(25))
    def test_chain_holds_on_random_instances(self, seed):
        market, base, space, m, op = random_instance(1400 + seed, max_depth=3)
        report = acceptability_check(market, base, m, op)
        assert report.chain_ok


BAD_TOLS = (math.nan, math.inf, -math.inf, -1e-9)


class TestTolValidation:
    """A NaN, infinite or negative tol would make every nodewise comparison
    pass or fail; each entry point refuses it and names the value."""

    def entry_points(self, demo, tol):
        market, space, base = demo.market, demo.space, demo.base_policy
        simple, modified = SimpleHorizon(2, PAPER10), ModifiedHorizon(2, PAPER10)
        simple_choice = run_policy_choice(simple, market, space)
        modified_choice = run_policy_choice(modified, market, space)
        return {
            "run_policy_choice": lambda: run_policy_choice(simple, market, space, tol=tol),
            "check_time_consistency": lambda: check_time_consistency(
                simple, market, simple_choice, tol
            ),
            "check_dependability": lambda: check_dependability(
                modified, market, modified_choice, tol
            ),
            "intertemporal_monotonicity": lambda: intertemporal_monotonicity(
                simple, market, space, tol
            ),
            "acceptability_check": lambda: acceptability_check(market, base, 2, PAPER10, tol),
            "axioms_check": lambda: axioms_check(PAPER10, market.tree, 5, 0, tol),
            "uniform_maximizer": lambda: uniform_maximizer(Terminal(PAPER10), market, space, 0, tol),
        }

    @pytest.mark.parametrize("tol", BAD_TOLS)
    def test_bad_tol_raises(self, demo, tol):
        for name, call in self.entry_points(demo, tol).items():
            with pytest.raises(ValueError, match=f"tol must be finite and >= 0, got {tol}"):
                call()
                pytest.fail(name)

    @pytest.mark.parametrize("tol", (0.0, -0.0))
    def test_zero_tol_accepted(self, demo, tol):
        for call in self.entry_points(demo, tol).values():
            call()

    def test_nan_tol_no_longer_hides_a_breach(self, demo):
        vf = SimpleHorizon(2, PAPER10)
        assert not intertemporal_monotonicity(vf, demo.market, demo.space, 1e-9).ok
        with pytest.raises(ValueError, match="nan"):
            intertemporal_monotonicity(vf, demo.market, demo.space, math.nan)
