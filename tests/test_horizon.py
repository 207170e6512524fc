import dataclasses
import math
import random
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from horizonrisk import (
    AdaptedProcess,
    BellmanAdditive,
    EmptyConditionalSpace,
    ExpectationOperator,
    MarketModel,
    ModifiedHorizon,
    NoUniformMaximizer,
    Policy,
    PolicySpace,
    SimpleHorizon,
    Slice,
    Terminal,
    TimeOrderError,
    acceptability_check,
    axioms_check,
    build_tree,
    builtin_example,
    check_time_consistency,
    conditional_space,
    constant_policy,
    evaluate,
    intertemporal_monotonicity,
    feasible_set,
    is_truncation_closed,
    run_policy_choice,
    stopping_time_space,
    truncate,
    uniform_maximizer,
    value,
    value_process,
    wealth_process,
    zero_policy,
)

from horizonrisk import horizon
from horizonrisk import market as market_module
from horizonrisk.horizon import _member_value

from helpers import (
    chain_market,
    dict_bellman_value,
    dict_evaluate,
    feasible_space,
    float_bits,
    loop_maximize,
    oracle_run,
    per_time_member_value,
    random_instance,
    random_market,
    random_policy,
    scalar_wealth,
)

PAPER10 = ExpectationOperator.paper10()


@pytest.fixture(scope="module")
def demo():
    return builtin_example("s4")


def small_binary_market():
    spec = {
        "T": 2,
        "nodes": [
            {"id": "r", "time": 0, "parent": None},
            {"id": "u", "time": 1, "parent": "r", "p": 0.5},
            {"id": "d", "time": 1, "parent": "r", "p": 0.5},
            {"id": "uu", "time": 2, "parent": "u", "p": 0.5},
            {"id": "ud", "time": 2, "parent": "u", "p": 0.5},
            {"id": "du", "time": 2, "parent": "d", "p": 0.5},
            {"id": "dd", "time": 2, "parent": "d", "p": 0.5},
        ],
    }
    tree = build_tree(spec)
    prices = AdaptedProcess(
        {t: Slice.from_map(t, {n: (1.0,) for n in tree.nodes_at(t)}) for t in range(3)}
    )
    return MarketModel(tree, 1, prices, 0.0)


def flat_policy(tree, up_alloc, down_alloc, label):
    """Allocation 1 at the root; `up_alloc`/`down_alloc` under u and d."""
    return Policy.from_maps(
        label, {0: {"r": (1.0,)}, 1: {"u": (float(up_alloc),), "d": (float(down_alloc),)}}
    )


def stage_payoff(node, alloc):
    a = alloc[0]
    if node == "u":
        return 3.0 * a + (1.0 - a)
    if node == "d":
        return 2.0 * (1.0 - a)
    return 0.0


class TestValue:
    def test_hold_everywhere_at_the_short_horizon(self, demo):
        vf = SimpleHorizon(2, PAPER10)
        out = value(vf, demo.market, demo.base_policy, 0)
        assert out["r"] == pytest.approx(-2.4926, abs=5e-5)

    def test_hold_everywhere_at_terminal_time(self, demo):
        vf = ModifiedHorizon(2, PAPER10)
        out = value(vf, demo.market, demo.base_policy, 0)
        assert out["r"] == pytest.approx(0.4741, abs=5e-5)

    def test_zero_policy_under_terminal_linear_value(self, demo):
        market = demo.market
        vf = Terminal(ExpectationOperator.linear())
        zero = zero_policy(market.tree, 1)
        for t in range(4):
            out = value(vf, market, zero, t)
            for n in out.values:
                assert out[n] == pytest.approx(market.initial_wealth, abs=1e-12)

    def test_horizon_clamps_at_terminal_time(self, demo):
        # beyond T the wealth is frozen, so a long horizon equals the terminal value
        vf_long = SimpleHorizon(10, PAPER10)
        vf_term = Terminal(PAPER10)
        a = value(vf_long, demo.market, demo.base_policy, 1)
        b = value(vf_term, demo.market, demo.base_policy, 1)
        for n in a.values:
            assert a[n] == pytest.approx(b[n], abs=1e-12)

    def test_stage_payoff_recursion(self):
        market = small_binary_market()
        vf = BellmanAdditive(stage_payoff)
        x = flat_policy(market.tree, 1, 1, "x")
        out = value(vf, market, x, 0)
        assert out["r"] == pytest.approx(0.5 * 3.0 + 0.5 * 0.0, abs=1e-12)
        out1 = value(vf, market, x, 1)
        assert out1["u"] == pytest.approx(3.0, abs=1e-12)
        assert out1["d"] == pytest.approx(0.0, abs=1e-12)

    def test_out_of_range_time_rejected(self, demo):
        vf = SimpleHorizon(2, PAPER10)
        with pytest.raises(TimeOrderError):
            value(vf, demo.market, demo.base_policy, 4)

    @pytest.mark.parametrize("variant", [SimpleHorizon, ModifiedHorizon])
    @pytest.mark.parametrize("m", [0, -1])
    def test_horizon_below_one_rejected(self, variant, m):
        with pytest.raises(ValueError, match=f"horizon length must be >= 1, got {m}"):
            variant(m, PAPER10)


class TestFeasibleSet:
    def test_modified_cutoff_beyond_last_time_is_identity(self, demo):
        vf = ModifiedHorizon(2, PAPER10)
        past = demo.base_policy
        cond = [demo.space.policies[r] for r in conditional_space(demo.space, 1, past)]
        feas = feasible_space(vf, demo.space, 1, feasible_set(vf, demo.space, 1, past))
        assert [p.key for p in feas.policies] == [p.key for p in cond]

    def test_modified_truncates_at_the_horizon(self, demo):
        vf = ModifiedHorizon(2, PAPER10)
        feas = feasible_space(vf, demo.space, 0, feasible_set(vf, demo.space, 0))
        expected = []
        seen = set()
        for p in demo.space.policies:
            k = truncate(p, 2).key
            if k not in seen:
                seen.add(k)
                expected.append(k)
        assert [p.key for p in feas.policies] == expected
        assert len(feas) == 5

    def test_singleton_space(self, demo):
        vf = SimpleHorizon(2, PAPER10)
        space = PolicySpace.from_policies((demo.base_policy,))
        feas = feasible_set(vf, space, 0)
        assert len(feas) == 1

    @pytest.mark.parametrize("seed", range(12))
    def test_modified_set_matches_truncating_every_member(self, seed):
        # stored, reversed and halved stopping spaces
        market, _, space, m, op = random_instance(seed)
        members = space.policies
        if seed % 3 == 1:
            space = PolicySpace.from_policies(members[::-1], label="reversed")
        elif seed % 3 == 2 and len(members) > 2:
            space = PolicySpace.from_policies(members[::2], label="halved")
        vf = ModifiedHorizon(m, op)
        for t in range(market.tree.horizon):
            for past in {p.prefix(t): p for p in space.policies}.values():
                cond = [space.policies[r] for r in conditional_space(space, t, past)]
                want = PolicySpace.from_policies(tuple(truncate(p, t + m) for p in cond))
                got = feasible_space(vf, space, t, feasible_set(vf, space, t, past))
                assert [(p.key, p.label) for p in got.policies] == [
                    (p.key, p.label) for p in want.policies
                ]


class TestUniformMaximizer:
    def test_demo_time_zero_choice(self, demo):
        vf = SimpleHorizon(2, PAPER10)
        best = uniform_maximizer(vf, demo.market, demo.space, 0)
        assert best.key == truncate(demo.base_policy, 1).key
        out = value(vf, demo.market, best, 0)
        assert out["r"] == pytest.approx(0.1889, abs=5e-5)

    def test_singleton_space_returns_its_member(self, demo):
        vf = SimpleHorizon(2, PAPER10)
        space = PolicySpace.from_policies((demo.base_policy,))
        assert uniform_maximizer(vf, demo.market, space, 1) is space.policies[0]

    def test_pasted_mix_dominates_both_parents(self):
        market = small_binary_market()
        vf = BellmanAdditive(stage_payoff)
        x = flat_policy(market.tree, 1, 1, "x")   # values (3, 0) at time 1
        y = flat_policy(market.tree, 0, 0, "y")   # values (1, 2)
        z1 = flat_policy(market.tree, 1, 0, "z1")  # values (3, 2)
        z2 = flat_policy(market.tree, 0, 1, "z2")  # values (1, 0)
        space = PolicySpace.from_policies((x, y, z2, z1), label="closed4")
        best = uniform_maximizer(vf, market, space, 1)
        assert best.key == z1.key
        best_vals = value(vf, market, best, 1)
        for p in space.policies:
            vals = value(vf, market, p, 1)
            for n in vals.values:
                assert best_vals[n] >= vals[n] - 1e-9

    def test_no_uniform_maximizer_without_pasting_closure(self):
        market = small_binary_market()
        vf = BellmanAdditive(stage_payoff)
        space = PolicySpace.from_policies(
            (flat_policy(market.tree, 1, 1, "x"), flat_policy(market.tree, 0, 0, "y"))
        )
        with pytest.raises(NoUniformMaximizer):
            uniform_maximizer(vf, market, space, 1)

    @pytest.mark.parametrize("vf", [Terminal(PAPER10), SimpleHorizon(1, PAPER10)])
    def test_members_disagreeing_before_t_are_not_pasted(self, demo, vf):
        # long at the root wins at ru, short at rd; their time-1 subtrees
        # hold nothing, so a paste over the common prefix would be `short`
        long = truncate(demo.base_policy, 1)
        short = Policy(long.nodes, tuple(-a for a in long.levels), "short")
        space = PolicySpace.from_policies((long, short))
        with pytest.raises(NoUniformMaximizer):
            uniform_maximizer(vf, demo.market, space, 1)


class TestRunPolicyChoice:
    def test_demo_simple_trajectory(self, demo):
        vf = SimpleHorizon(2, PAPER10)
        choice = run_policy_choice(vf, demo.market, demo.space)
        tree = demo.market.tree
        # first choice holds at t=0 only
        first = choice.chosen[0]
        assert first.allocations.at(0)["r"] == (1.0,)
        for t in (1, 2):
            for n in tree.nodes_at(t):
                assert first.allocations.at(t)[n] == (0.0,)
        # later choices hold everywhere, and so does the realised policy
        for x_t in choice.chosen[1:]:
            assert x_t.key == demo.base_policy.key
        assert choice.realized.key == demo.base_policy.key
        assert choice.values[0]["r"] == pytest.approx(0.1889, abs=5e-5)

    def test_demo_modified_matches_simple(self, demo):
        simple = run_policy_choice(SimpleHorizon(2, PAPER10), demo.market, demo.space)
        modified = run_policy_choice(ModifiedHorizon(2, PAPER10), demo.market, demo.space)
        assert modified.realized.key == simple.realized.key
        for vs, vm in zip(simple.values, modified.values):
            for n in vs.values:
                assert vs[n] == pytest.approx(vm[n], abs=1e-9)

    def test_choice_is_viable_and_realizes_final_choice(self, demo):
        for vf in (SimpleHorizon(2, PAPER10), ModifiedHorizon(2, PAPER10), Terminal(PAPER10)):
            choice = run_policy_choice(vf, demo.market, demo.space)
            assert choice.is_viable()
            assert choice.realized.key == choice.chosen[-1].key

    @pytest.mark.parametrize("seed", range(6))
    def test_viability_is_every_earlier_decision_kept(self, seed):
        # adjacent choices agreeing before the later one's time is the same
        # as every choice agreeing with each earlier x_s up to time s
        market, base, space, m, op = random_instance(1400 + seed)
        choice = run_policy_choice(ModifiedHorizon(m, op), market, space)
        rng = random.Random(seed)
        for _ in range(20):
            chosen = tuple(rng.choice([x, rng.choice(space.policies)]) for x in choice.chosen)
            pairs = all(
                x_t.agrees_before(chosen[s], s + 1)
                for t, x_t in enumerate(chosen)
                for s in range(t)
            )
            assert dataclasses.replace(choice, chosen=chosen).is_viable() == pairs

    def test_modified_run_on_a_long_chain_keeps_little_memory(self):
        # a run keeps T chosen policies; their identities are one key each,
        # not one bytes object per prefix (about 69 MB here)
        market = chain_market(250)
        space = stopping_time_space(market.tree, Policy.from_maps(
            "hold", {t: {f"c{t}": (1.0,)} for t in range(250)}
        ))
        vf = ModifiedHorizon(2, ExpectationOperator.linear())
        tracemalloc.start()
        try:
            choice = run_policy_choice(vf, market, space)
            assert choice.is_viable()
            live = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert live < 20e6

    def test_terminal_value_realizes_the_time_zero_choice(self, demo):
        choice = run_policy_choice(Terminal(PAPER10), demo.market, demo.space)
        assert choice.realized.key == choice.chosen[0].key

    def test_zero_payoff_ties_break_to_first_member(self, demo):
        vf = BellmanAdditive(lambda node, alloc: 0.0)
        choice = run_policy_choice(vf, demo.market, demo.space)
        for t, x_t in enumerate(choice.chosen):
            assert x_t is demo.space.policies[0]
            for n in choice.values[t].values:
                assert choice.values[t][n] == 0.0

    def test_failing_time_reported(self):
        market = small_binary_market()
        vf = BellmanAdditive(stage_payoff)
        space = PolicySpace.from_policies(
            (flat_policy(market.tree, 1, 1, "x"), flat_policy(market.tree, 0, 0, "y"))
        )
        with pytest.raises(NoUniformMaximizer, match="decision time 1"):
            run_policy_choice(vf, market, space)


class TestTruncatedValueIdentities:
    @pytest.mark.parametrize("seed", range(10))
    def test_horizon_value_equals_terminal_value_on_truncated_policies(self, seed):
        market, base, space, m, op = random_instance(700 + seed, max_depth=3)
        tree = market.tree
        for t in range(tree.horizon):
            for p in space.policies:
                cut = truncate(p, t + m)
                wealth = wealth_process(market, cut)
                near = evaluate(op, tree, wealth.at(min(t + m, tree.horizon)), t)
                far = evaluate(op, tree, wealth.at(tree.horizon), t)
                for n in near.values:
                    assert near[n] == pytest.approx(far[n], abs=1e-9)

    @pytest.mark.parametrize("seed", range(10))
    def test_value_is_invariant_under_truncation_at_the_horizon(self, seed):
        market, base, space, m, op = random_instance(800 + seed, max_depth=3)
        vf = SimpleHorizon(m, op)
        for t in range(market.tree.horizon):
            for p in space.policies:
                a = value(vf, market, p, t)
                b = value(vf, market, truncate(p, t + m), t)
                for n in a.values:
                    assert a[n] == pytest.approx(b[n], abs=1e-9)


class TestModeEquivalence:
    @pytest.mark.parametrize("seed", range(25))
    def test_closed_spaces_give_identical_choices_and_values(self, seed):
        market, base, space, m, op = random_instance(900 + seed, max_depth=3)
        simple = run_policy_choice(SimpleHorizon(m, op), market, space)
        modified = run_policy_choice(ModifiedHorizon(m, op), market, space)
        assert simple.realized.key == modified.realized.key
        for t, (vs, vm) in enumerate(zip(simple.values, modified.values)):
            for n in vs.values:
                assert vs[n] == pytest.approx(vm[n], abs=1e-9), f"t={t}"

    @pytest.mark.parametrize("seed", range(10))
    def test_maximizer_dominates_every_member(self, seed):
        market, base, space, m, op = random_instance(950 + seed, max_depth=3)
        vf = SimpleHorizon(m, op)
        t = random.Random(seed).randint(0, market.tree.horizon - 1)
        past = space.policies[0]
        feas = feasible_space(vf, space, t, feasible_set(vf, space, t, past))
        best = uniform_maximizer(vf, market, feas, t)
        best_vals = value(vf, market, best, t)
        for p in feas.policies:
            vals = value(vf, market, p, t)
            for n in vals.values:
                assert best_vals[n] >= vals[n] - 1e-9


def _key_or_none(pick):
    try:
        return pick().key
    except NoUniformMaximizer:
        return None


class TestArrayPathsMatchPerNodeOracles:
    @pytest.mark.parametrize("seed", range(10))
    def test_bellman_value_bit_identical(self, seed):
        market, _, space, _, _ = random_instance(seed)
        tree = market.tree
        rng = random.Random(700 + seed)
        coeffs = {
            n: rng.choice((0.0, -0.0)) if rng.random() < 0.3 else rng.uniform(-3.0, 3.0)
            for n in tree.node_ids
        }
        vf = BellmanAdditive(lambda node, alloc: coeffs[node] * alloc[0])
        for policy in space.policies[:: max(1, len(space) // 7)]:
            for t in range(tree.horizon + 1):
                got = value(vf, market, policy, t)
                want = dict_bellman_value(vf, market, policy, t)
                assert float_bits(got.values) == float_bits(want)

    @pytest.mark.parametrize("seed", range(20))
    @pytest.mark.parametrize("tol", [1e-9, 1.0])
    def test_maximizer_matches_per_node_loop(self, seed, tol):
        market, _, space, m, op = random_instance(seed)
        # stored order, reversed order (the tie-break ranks then differ from
        # the indices), or every other member (not pasting-closed: fallback)
        members = space.policies
        if seed % 3 == 1:
            space = PolicySpace.from_policies(members[::-1], label="reversed")
        elif seed % 3 == 2 and len(members) > 2:
            space = PolicySpace.from_policies(members[::2], label="halved")
        for vf in (SimpleHorizon(m, op), ModifiedHorizon(m, op)):
            for t in range(market.tree.horizon):
                pasts = {p.prefix(t): p for p in reversed(space.policies)}
                for past in pasts.values():
                    rows = feasible_set(vf, space, t, past if t else None)
                    feas = feasible_space(vf, space, t, rows)
                    assert _key_or_none(
                        lambda: uniform_maximizer(vf, market, feas, t, tol)
                    ) == _key_or_none(lambda: loop_maximize(vf, market, feas, t, tol))


OPERATORS = {
    "linear": ExpectationOperator.linear(),
    "entropic": ExpectationOperator.entropic(5.0),
    "paper10": PAPER10,
}


def space_rows_and_oracles(seed: int, d: int, op: ExpectationOperator, branching):
    """For a seeded stopping space, yield (what, row i as a node map, the
    oracle's node map for member i): wealth at every time and the values of
    all four variants at every time."""
    rng = random.Random(seed)
    market = random_market(rng, rng.randint(1, 3), d=d, branching=branching)
    tree = market.tree
    T = tree.horizon
    space = stopping_time_space(tree, random_policy(rng, tree, d, label="base"))
    m = rng.randint(1, T + 1)
    coeffs = {
        n: tuple(rng.choice((0.0, -0.0)) if rng.random() < 0.3 else rng.uniform(-3, 3)
                 for _ in range(d))
        for n in tree.node_ids
    }
    bellman = BellmanAdditive(lambda node, alloc: sum(c * a for c, a in zip(coeffs[node], alloc)))
    wealth = wealth_process(market, space)
    scalar = [scalar_wealth(market, p) for p in space.policies]

    def at(u, w):
        return Slice.from_map(u, {n: w[n] for n in tree.nodes_at(u)})

    for t in range(T + 1):
        level = tree.sorted_nodes_at(t)
        for i, w in enumerate(scalar):
            yield f"wealth t={t}", dict(zip(level, wealth.at(t).array[i].tolist())), at(t, w).values
        for vf in (SimpleHorizon(m, op), ModifiedHorizon(m, op), Terminal(op), bellman):
            got = _member_value(vf, market, space, t, {}).array
            assert got.shape == (len(space), len(level))
            for i, (p, w) in enumerate(zip(space.policies, scalar)):
                if isinstance(vf, BellmanAdditive):
                    want = dict_bellman_value(vf, market, p, t)
                else:
                    s = min(t + m, T) if isinstance(vf, SimpleHorizon) else T
                    want = dict_evaluate(op, tree, at(s, w), t)
                yield f"{type(vf).__name__} t={t} member {i}", dict(zip(level, got[i].tolist())), want


class TestSpaceRowsMatchPerMemberOracles:
    """Row i of a space's wealth and values against the scalar oracles for
    member i."""

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("preset", list(OPERATORS))
    @pytest.mark.parametrize("seed", range(2))
    def test_binary_trees_bit_identical(self, d, preset, seed):
        rows = space_rows_and_oracles(1500 + 10 * seed + d, d, OPERATORS[preset], (2, 2))
        for what, got, want in rows:
            assert float_bits(got) == float_bits(want), what

    @pytest.mark.parametrize("preset", list(OPERATORS))
    @pytest.mark.parametrize("seed", range(3))
    def test_wider_trees_within_round_off(self, preset, seed):
        for what, got, want in space_rows_and_oracles(1600 + seed, 2, OPERATORS[preset], (1, 3)):
            assert got == pytest.approx(want, abs=1e-12), what


def array_bits(a: np.ndarray) -> dict:
    """An array's entries as exact hex strings keyed by index."""
    return float_bits({i: v for i, v in np.ndenumerate(a)})


def process_case(seed: int, op: ExpectationOperator, branching):
    """A seeded stopping space, stored, reversed or halved by the seed, and
    the four variants over it, the Bellman payoff seeing signed zeros."""
    rng = random.Random(seed)
    d = rng.randint(1, 2)
    market = random_market(rng, rng.randint(1, 4 if branching == (2, 2) else 3), d=d,
                           branching=branching)
    tree = market.tree
    members = stopping_time_space(tree, random_policy(rng, tree, d, label="base")).policies
    if seed % 3 == 1:
        members = members[::-1]
    elif seed % 3 == 2 and len(members) > 2:
        members = members[::2]
    m = rng.randint(1, tree.horizon + 1)
    coeffs = {
        n: tuple(rng.choice((0.0, -0.0)) if rng.random() < 0.3 else rng.uniform(-3, 3)
                 for _ in range(d))
        for n in tree.node_ids
    }
    bellman = BellmanAdditive(lambda node, alloc: sum(c * a for c, a in zip(coeffs[node], alloc)))
    variants = (SimpleHorizon(m, op), ModifiedHorizon(m, op), Terminal(op), bellman)
    return market, PolicySpace.from_policies(members, label="case"), variants


class TestValueProcessMatchesPerTimePath:
    """One backward pass against today's per-time path, at every time
    including T, for spaces and for single members."""

    @pytest.mark.parametrize("preset", list(OPERATORS))
    @pytest.mark.parametrize("seed", range(9))
    @pytest.mark.parametrize("branching", [(2, 2), (1, 3)])
    def test_bit_identical(self, preset, seed, branching):
        market, space, variants = process_case(4000 + seed, OPERATORS[preset], branching)
        T = market.tree.horizon
        for vf in variants:
            process = value_process(vf, market, space, range(T + 1))
            assert sorted(process) == list(range(T + 1))
            for t in range(T + 1):
                want = per_time_member_value(vf, market, space, t, {}).array
                assert process[t].shape == want.shape
                assert array_bits(process[t]) == array_bits(want), (type(vf).__name__, t)
            for p in space.policies[:: max(1, len(space) // 3)]:
                one = value_process(vf, market, p, [T, 0, T // 2])
                for t in (T, 0, T // 2):
                    want = per_time_member_value(vf, market, p, t, {}).array
                    assert array_bits(one[t]) == array_bits(want), (type(vf).__name__, t)
                    assert array_bits(value(vf, market, p, t).array) == array_bits(want)

    def test_bellman_value_at_the_horizon_is_the_zero_slice(self):
        market, space, variants = process_case(4100, OPERATORS["linear"], (2, 2))
        tree = market.tree
        T = tree.horizon
        zeros = {n: 0.0 for n in tree.sorted_nodes_at(T)}
        for p in space.policies[:3]:
            assert float_bits(value(variants[3], market, p, T).values) == float_bits(zeros)
        assert value_process(variants[3], market, space, [T])[T].shape == (len(space), len(zeros))

    def test_shared_wealth_memo_keeps_a_member_axis(self):
        market, space, variants = process_case(4102, OPERATORS["entropic"], (2, 2))
        p = space.policies[-1]
        one = PolicySpace.from_policies((p,), label="one")
        assert one.key == p.key
        cache: dict = {}
        for vf in variants[:3]:
            for t in range(market.tree.horizon):
                got = _member_value(vf, market, p, t, cache).array
                assert _member_value(vf, market, one, t, cache).array.shape == (1,) + got.shape
                assert value_process(vf, market, one, [t], cache)[t].shape == (1,) + got.shape

    def test_value_and_uniform_maximizer_read_no_memo(self, demo, monkeypatch):
        # each values its policy or space once: a memo key would be built for no reader
        market = demo.market
        variants = [SimpleHorizon(2, PAPER10), ModifiedHorizon(2, PAPER10), Terminal(PAPER10)]
        want = [value(vf, market, demo.base_policy, 0).array for vf in variants]
        best = [uniform_maximizer(vf, market, demo.space, 0).key for vf in variants]

        def no_memo(*args):
            raise AssertionError("the wealth memo was read")

        monkeypatch.setattr(horizon, "_wealth", no_memo)
        for vf, values, key in zip(variants, want, best):
            assert array_bits(value(vf, market, demo.base_policy, 0).array) == array_bits(values)
            assert uniform_maximizer(vf, market, demo.space, 0).key == key
        with pytest.raises(AssertionError, match="memo"):
            value_process(variants[0], market, demo.space, [0], {})

    def test_times_outside_the_horizon_rejected(self):
        market, space, variants = process_case(4101, OPERATORS["linear"], (2, 2))
        for vf in variants:
            assert value_process(vf, market, space, []) == {}
            with pytest.raises(TimeOrderError):
                value_process(vf, market, space, [market.tree.horizon + 1])


class TestStagePayoffTable:
    @pytest.mark.parametrize("seed", range(4))
    def test_each_node_and_row_is_paid_once_per_pass(self, seed):
        market, space, variants = process_case(4200 + seed, OPERATORS["linear"], (2, 2))
        tree = market.tree
        calls = Counter()

        def counting(node, alloc):
            calls[node, np.array(alloc).tobytes()] += 1
            return variants[3].payoff(node, alloc)

        vf = BellmanAdditive(counting)
        value_process(vf, market, space, range(tree.horizon + 1))
        rows = {
            (n, space.levels[u][i, k].tobytes())
            for u in range(tree.horizon)
            for i in range(len(space))
            for k, n in enumerate(tree.sorted_nodes_at(u))
        }
        assert set(calls) == rows and max(calls.values()) == 1
        calls.clear()
        run_policy_choice(vf, market, space)
        assert max(calls.values()) == 1

    def test_signed_zero_rows_are_paid_apart(self):
        rng = random.Random(4300)
        market = random_market(rng, 3, d=1)
        tree = market.tree
        base = random_policy(rng, tree, 1, label="base")
        members = []
        for sign in (0.0, -0.0):
            levels = [a.copy() for a in base.levels]
            levels[1][0, 0] = sign
            members.append(Policy(base.nodes, tuple(levels), label=f"zero={sign}"))
        space = PolicySpace.from_policies(tuple(members) + (base,), label="signed zeros")
        assert len(space) == 3
        vf = BellmanAdditive(lambda node, alloc: math.copysign(1.0, alloc[0]) + len(node))
        process = value_process(vf, market, space, range(tree.horizon + 1))
        for t in range(tree.horizon + 1):
            level = tree.sorted_nodes_at(t)
            for i, p in enumerate(space.policies):
                got = dict(zip(level, process[t][i].tolist()))
                assert float_bits(got) == float_bits(dict_bellman_value(vf, market, p, t))
        assert process[0][0, 0] != process[0][1, 0]


def overflow_outside_the_feasible_set():
    """Two members on a binary depth-2 tree. "safe" earns 2 by time 1 and
    holds nothing after; "huge" earns 1 by time 1, then holds 1e5 through
    a +-1 move, so |W_2|/gamma > 700 only for it. A time-0 choice on W_1
    takes "safe", and the time-1 feasible set holds only "safe"."""
    market = small_binary_market()
    tree = market.tree
    prices = {"r": 10.0, "u": 11.0, "d": 11.0, "uu": 12.0, "ud": 10.0, "du": 12.0, "dd": 10.0}
    market = MarketModel(
        tree,
        1,
        AdaptedProcess(
            {t: Slice.from_map(t, {n: (prices[n],) for n in tree.nodes_at(t)}) for t in range(3)}
        ),
        0.0,
    )
    huge = Policy.from_maps("huge", {0: {"r": (1.0,)}, 1: {"u": (1e5,), "d": (1e5,)}})
    safe = Policy.from_maps("safe", {0: {"r": (2.0,)}, 1: {"u": (0.0,), "d": (0.0,)}})
    return market, PolicySpace.from_policies((huge, safe), label="overflow")


class TestOverflowOutsideTheFeasibleSet:
    op = ExpectationOperator.entropic(1.0)

    def test_simple_run_completes(self):
        market, space = overflow_outside_the_feasible_set()
        vf = SimpleHorizon(1, self.op)
        choice = run_policy_choice(vf, market, space)
        assert [p.label for p in choice.chosen] == ["safe", "safe"]
        assert check_time_consistency(vf, market, choice).ok

    def test_inputs_that_reach_the_large_wealth_are_valued(self):
        # W_2 of "huge" is 1 +- 1e5, so E(W_2|F_t) = 1 - 1e5 + ln 2: the
        # +1e5 branch's exp(-1e5) is far below round-off
        market, space = overflow_outside_the_feasible_set()
        huge = space.policies[0]
        exact = 1 - 1e5 + math.log(2)
        for vf in (SimpleHorizon(2, self.op), Terminal(self.op)):
            choice = run_policy_choice(vf, market, space)
            assert [p.label for p in choice.chosen] == ["safe", "safe"]
            assert value(vf, market, huge, 0).array.tolist() == [exact]
        for vf in (SimpleHorizon(1, self.op), Terminal(self.op), ModifiedHorizon(1, self.op)):
            assert intertemporal_monotonicity(vf, market, space).ok
            assert value(vf, market, huge, 1).array.tolist() == [exact, exact]
            # the space's rows, huge's wide and safe's not, are each member's value
            process = value_process(vf, market, space, range(3))
            for t in range(3):
                for i, member in enumerate(space.policies):
                    assert process[t][i].tobytes() == value(vf, market, member, t).array.tobytes()


def run_record(run):
    """Per decision time (chosen key, chosen label, value bits) of a run,
    or the error type and message it raised."""
    try:
        chosen, values = run()
    except (EmptyConditionalSpace, NoUniformMaximizer) as exc:
        return type(exc), str(exc)
    return [(p.key, p.label, float_bits(v.values)) for p, v in zip(chosen, values)]


def assert_run_matches_oracle(vf, market, space, tol=1e-9):
    def library():
        choice = run_policy_choice(vf, market, space, tol)
        return choice.chosen, choice.values

    got = run_record(library)
    assert got == run_record(lambda: oracle_run(vf, market, space, tol))
    return got


def signed_zero_case(seed: int):
    """A seeded stopping space led by a raw member that holds the base at
    time 0 and -0.0 after: equal in value to its +0.0 twin, the first of
    its prefix classes, but not equal to its own truncations."""
    market, base, space, m, op = random_instance(seed, max_depth=3)
    tail = tuple(np.full_like(a, -0.0) for a in base.levels[1:])
    signed = Policy(base.nodes, base.levels[:1] + tail, label="signed")
    return market, PolicySpace.from_policies((signed, *space.policies), label="signed"), m, op


class TestRunMatchesPolicySpaceOracle:
    """run_policy_choice on row indices against the run over new spaces per
    decision time: chosen keys, labels and value bits at every t."""

    @pytest.mark.parametrize("branching", [(2, 2), (1, 3)])
    @pytest.mark.parametrize("seed", range(9))
    def test_seeded_spaces(self, seed, branching):
        # stored, reversed or halved by the seed; halved spaces are not
        # pasting-closed and take the fallback or raise
        op = ExpectationOperator.entropic(5.0)
        market, space, variants = process_case(2000 + seed, op, branching)
        for vf in variants:
            for tol in (1e-9, 1.0):
                assert_run_matches_oracle(vf, market, space, tol)

    @pytest.mark.parametrize("seed", range(4))
    def test_horizon_at_or_beyond_the_last_time(self, seed):
        market, _, space, _, op = random_instance(2100 + seed, max_depth=3)
        T = market.tree.horizon
        for m in (T, T + 2):
            for vf in (SimpleHorizon(m, op), ModifiedHorizon(m, op)):
                assert_run_matches_oracle(vf, market, space)

    @pytest.mark.parametrize("seed", range(6))
    def test_member_with_a_negative_zero_tail(self, seed):
        market, space, m, op = signed_zero_case(2200 + seed)
        payoff = BellmanAdditive(lambda node, alloc: math.copysign(1.0, alloc[0]) * len(node))
        for vf in (SimpleHorizon(m, op), ModifiedHorizon(m, op), Terminal(op), payoff):
            assert_run_matches_oracle(vf, market, space)

    def test_dominating_member_fallback(self):
        # at t = 1 the per-node winners are x at u and y at d; their paste
        # (1 under u, 0 under d) is no member, and w is within tol of the
        # top value at both nodes
        market = small_binary_market()
        vf = BellmanAdditive(stage_payoff)
        members = (
            flat_policy(market.tree, 1, 1, "x"),
            flat_policy(market.tree, 0, 0, "y"),
            flat_policy(market.tree, 0.9, 0, "w"),
        )
        space = PolicySpace.from_policies(members, label="fallback")
        got = assert_run_matches_oracle(vf, market, space, tol=0.5)
        assert [label for _, label, _ in got] == ["w", "w"]

    def test_no_uniform_maximizer(self):
        market = small_binary_market()
        vf = BellmanAdditive(stage_payoff)
        space = PolicySpace.from_policies(
            (flat_policy(market.tree, 1, 1, "x"), flat_policy(market.tree, 0, 0, "y"))
        )
        got = assert_run_matches_oracle(vf, market, space)
        assert got[0] is NoUniformMaximizer and "decision time 1" in got[1]


def nan_space(demo, *others):
    """`big` and `neg` hold 1e308 and -1e308 throughout s4: their wealth
    passes float range to +-inf and NaN, and their linear terminal values
    are NaN at the root. `others` follow them."""
    tree = demo.market.tree
    big = constant_policy(tree, 1, 1e308, "big")
    neg = constant_policy(tree, 1, -1e308, "neg")
    return PolicySpace.from_policies((big, neg, *others), label="nan")


class TestNaNValueNeverWins:
    """NaN is below every number when a node's maximiser is chosen, as in
    the dominance sweep; where every value is NaN, all members tie."""

    vf = Terminal(ExpectationOperator.linear())

    @pytest.mark.filterwarnings("error")
    def test_run_chooses_the_member_with_a_number(self, demo):
        space = nan_space(demo, demo.base_policy)
        got = assert_run_matches_oracle(self.vf, demo.market, space)
        assert [label for _, label, _ in got] == ["hold", "hold", "hold"]

    @pytest.mark.filterwarnings("error")
    def test_uniform_maximizer_chooses_the_member_with_a_number(self, demo):
        space = nan_space(demo, demo.base_policy)
        assert uniform_maximizer(self.vf, demo.market, space, 0).label == "hold"
        for t in range(demo.market.tree.horizon):
            assert _key_or_none(
                lambda: uniform_maximizer(self.vf, demo.market, space, t)
            ) == _key_or_none(lambda: loop_maximize(self.vf, demo.market, space, t, 1e-9))

    def test_all_nan_values_tie(self, demo):
        space = nan_space(demo)
        for member in space.policies:
            assert np.isnan(value(self.vf, demo.market, member, 0).array).all()
        best = uniform_maximizer(self.vf, demo.market, space, 0)
        assert best is space.policies[0] is loop_maximize(self.vf, demo.market, space, 0, 1e-9)


class TestRunBuildsNoSpaces:
    """Counts, not times: a run over a 677-member stopping space builds no
    PolicySpace and reads one past prefix per decision time."""

    @pytest.mark.parametrize("mode", ["simple", "modified", "terminal", "bellman"])
    def test_call_counts(self, mode, monkeypatch):
        rng = random.Random(2300)
        market = random_market(rng, 4, d=1)
        space = stopping_time_space(market.tree, random_policy(rng, market.tree, 1, label="base"))
        assert len(space) == 677
        op = ExpectationOperator.entropic(5.0)
        vf = {
            "simple": SimpleHorizon(2, op),
            "modified": ModifiedHorizon(2, op),
            "terminal": Terminal(op),
            "bellman": BellmanAdditive(lambda node, alloc: alloc[0] * len(node)),
        }[mode]
        calls = Counter()

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        post_init = counted("space", PolicySpace.__post_init__)
        monkeypatch.setattr(PolicySpace, "__post_init__", post_init)
        monkeypatch.setattr(Policy, "prefix", counted("prefix", Policy.prefix))
        run_policy_choice(vf, market, space)
        assert calls["space"] == 0
        assert calls["prefix"] <= market.tree.horizon


class TestOneValuationPass:
    """Counts, not times: a simple, terminal or Bellman run values the
    whole space in one value_process pass; only a modified run values its
    members anew at each decision time, truncated at t+m."""

    @pytest.mark.parametrize("mode", ["simple", "modified", "terminal", "bellman"])
    def test_call_counts(self, demo, mode, monkeypatch):
        vf = {
            "simple": SimpleHorizon(2, PAPER10),
            "modified": ModifiedHorizon(2, PAPER10),
            "terminal": Terminal(PAPER10),
            "bellman": BellmanAdditive(stage_payoff),
        }[mode]
        calls = Counter()

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                calls[name, "on the space"] += any(a is demo.space for a in args)
                return fn(*args, **kwargs)

            return wrapper

        for name in ("value_process", "wealth_process", "evaluate"):
            monkeypatch.setattr(horizon, name, counted(name, getattr(horizon, name)))
        run_policy_choice(vf, demo.market, demo.space)
        if mode == "modified":
            assert calls["value_process"] == 0
            assert calls["wealth_process"] == calls["wealth_process", "on the space"] == 1
            assert calls["evaluate"] == demo.market.tree.horizon
        else:
            assert calls["value_process"] == calls["value_process", "on the space"] == 1
            assert calls["evaluate"] == 0

    def test_modified_run_leaves_the_tree_as_it_was(self, demo):
        # a run reads the tree and writes nothing into it, not even an entry
        # of a memo dict
        def state(tree):
            return {
                name: (id(v), {k: id(x) for k, x in v.items()} if isinstance(v, dict) else None)
                for name, v in vars(tree).items()
            }

        before = state(demo.market.tree)
        run_policy_choice(ModifiedHorizon(2, PAPER10), demo.market, demo.space)
        assert state(demo.market.tree) == before


class TestOneRuleForCounts:
    """A horizon length, cutoff or trial count that is a bool or not an
    integer is refused by a ValueError that names it; Python and numpy
    integers pass."""

    @pytest.mark.parametrize("variant", [SimpleHorizon, ModifiedHorizon])
    @pytest.mark.parametrize("m", [1.5, 2.5, 2.0, math.inf, True, np.True_, np.float64(2.0), "2"])
    def test_horizon_length(self, variant, m):
        with pytest.raises(ValueError, match="^horizon length must be an integer, got "):
            variant(m, PAPER10)

    @pytest.mark.parametrize(
        "call, named",
        [
            (lambda demo: truncate(demo.base_policy, 1.5), "cutoff"),
            (lambda demo: is_truncation_closed(demo.space, 1.5), "horizon"),
            (lambda demo: acceptability_check(demo.market, demo.base_policy, 2.0, PAPER10),
             "horizon length"),
            (lambda demo: axioms_check(PAPER10, demo.market.tree, 2.5, 0), "trials"),
            (lambda demo: axioms_check(PAPER10, demo.market.tree, True, 0), "trials"),
        ],
        ids=["truncate", "is_truncation_closed", "acceptability_check", "axioms_check",
             "axioms_check_bool"],
    )
    def test_other_counts(self, demo, call, named):
        with pytest.raises(ValueError, match=f"^{named} must be an integer, got "):
            call(demo)

    def test_numpy_integers_pass(self, demo):
        for variant in (SimpleHorizon, ModifiedHorizon):
            want = run_policy_choice(variant(2, PAPER10), demo.market, demo.space)
            got = run_policy_choice(variant(np.int64(2), PAPER10), demo.market, demo.space)
            assert [x.key for x in got.chosen] == [x.key for x in want.chosen]
        assert truncate(demo.base_policy, np.int32(1)).key == truncate(demo.base_policy, 1).key
        assert is_truncation_closed(demo.space, np.int64(2)) == is_truncation_closed(demo.space, 2)
        assert axioms_check(PAPER10, demo.market.tree, np.int64(3), 0).trials == 3


class TestStoppingSpaceBuildsNoPolicies:
    """Counts, not times: a stopping-time space keeps its members as stacks,
    and an acceptability check builds only the policies it reads."""

    def test_policy_counts(self, monkeypatch):
        rng = random.Random(2300)
        market = random_market(rng, 4, d=1)
        base = random_policy(rng, market.tree, 1, label="base")
        built = Counter()
        post_init = Policy.__post_init__

        def counted(self):
            built["policy"] += 1
            post_init(self)

        monkeypatch.setattr(Policy, "__post_init__", counted)
        space = stopping_time_space(market.tree, base)
        assert len(space) == 677
        assert built["policy"] == 0
        report = acceptability_check(market, base, 2, ExpectationOperator.entropic(5.0))
        assert report.space_size == 677
        assert built["policy"] <= 2 * market.tree.horizon + 3

    def test_label_counts(self, monkeypatch):
        # a stopping space decodes a label only when a member is read: none
        # when built, and one per chosen member in an acceptability check
        rng = random.Random(2300)
        market = random_market(rng, 4, d=1)
        base = random_policy(rng, market.tree, 1, label="base")
        decoded = Counter()
        decode = market_module._stop_label

        def counted(*args):
            decoded["label"] += 1
            return decode(*args)

        monkeypatch.setattr(market_module, "_stop_label", counted)
        space = stopping_time_space(market.tree, base)
        assert len(space) == 677
        assert decoded["label"] == 0
        report = acceptability_check(market, base, 2, ExpectationOperator.entropic(5.0))
        assert report.space_size == 677
        assert decoded["label"] <= market.tree.horizon
