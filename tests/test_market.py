import collections
import itertools
import math
import random
import tracemalloc

import numpy as np
import pytest

from horizonrisk import (
    AdaptedProcess,
    BellmanAdditive,
    DimensionError,
    EmptyConditionalSpace,
    EnumerationLimit,
    Event,
    ExpectationOperator,
    MarketModel,
    ModifiedHorizon,
    Policy,
    PolicySpace,
    PrefixMismatch,
    SimpleHorizon,
    Slice,
    Terminal,
    TimeOrderError,
    UnknownNode,
    build_tree,
    builtin_example,
    conditional_space,
    constant_policy,
    count_stopping_times,
    feasible_set,
    intertemporal_monotonicity,
    is_pasting_closed,
    is_truncation_closed,
    paste,
    run_policy_choice,
    stopping_time_space,
    truncate,
    value,
    value_process,
    wealth_process,
    zero_policy,
)

from horizonrisk.instances import three_period_market_spec
from horizonrisk.market import STOPPING_TIME_CAP, enumerate_stopping_times

from helpers import (
    ancestor_at,
    chain_market,
    first_stop_sets,
    loop_truncation_closed,
    oracle_stopping_rules,
    oracle_stopping_time_space,
    pathwise_terminal_wealth,
    random_market,
    random_policy,
    random_tree,
    scalar_wealth,
    truncated_key,
)


@pytest.fixture(scope="module")
def demo():
    return builtin_example("s4")


def scaled(policy, factor):
    maps = {
        t: {n: tuple(factor * x for x in v) for n, v in sl.values.items()}
        for t, sl in policy.allocations.slices.items()
    }
    return Policy.from_maps(f"{policy.label}*{factor}", maps)


def s4_prices(demo, changed: dict) -> AdaptedProcess:
    """The s4 price slices with the node prices in `changed` replaced."""
    slices = {}
    for t, sl in demo.market.prices.slices.items():
        slices[t] = Slice.from_map(t, {n: changed.get(n, v) for n, v in sl.values.items()})
    return AdaptedProcess(slices)


class TestMarketModel:
    def test_no_asset_rejected(self, demo):
        with pytest.raises(DimensionError, match="need at least one asset, got 0"):
            MarketModel(demo.market.tree, 0, demo.market.prices)

    def test_non_finite_initial_wealth_rejected(self, demo):
        with pytest.raises(ValueError, match="initial wealth must be finite, got nan"):
            MarketModel(demo.market.tree, 1, demo.market.prices, math.nan)

    def test_price_slice_missing_a_node_rejected(self, demo):
        slices = dict(demo.market.prices.slices)
        slices[2] = Slice.from_map(2, {"ruu": (1.0,), "rud": (1.0,), "rdu": (1.0,)})
        with pytest.raises(ValueError, match="price slice at time 2 does not cover"):
            MarketModel(demo.market.tree, 1, AdaptedProcess(slices))

    def test_price_of_the_wrong_length_rejected(self, demo):
        with pytest.raises(DimensionError, match="price at node 'r' is not a 2-vector"):
            MarketModel(demo.market.tree, 2, demo.market.prices)

    def test_non_finite_price_rejected(self, demo):
        prices = s4_prices(demo, {"rud": (math.inf,)})
        with pytest.raises(ValueError, match="price at node 'rud' is not finite"):
            MarketModel(demo.market.tree, 1, prices)

    def test_price_move_past_float_range_rejected(self, demo):
        # each price is finite, but the move from ru to rud is not: a
        # zero allocation times that move would be NaN wealth
        prices = s4_prices(demo, {"ru": (1e308,), "rud": (-1e308,)})
        with pytest.raises(ValueError, match="price move into node 'rud' overflows float range"):
            MarketModel(demo.market.tree, 1, prices)


class TestWealth:
    def test_hold_everywhere_along_up_down_up(self, demo):
        wealth = wealth_process(demo.market, demo.base_policy)
        assert wealth.at(3)["rudu"] == pytest.approx(1 - 10 + 100, abs=1e-12)

    def test_zero_policy_keeps_initial_wealth(self, demo):
        market = demo.market
        wealth = wealth_process(market, zero_policy(market.tree, 1))
        for t in range(4):
            for n in market.tree.nodes_at(t):
                assert wealth.at(t)[n] == 0.0

    @pytest.mark.parametrize("seed", range(12))
    def test_terminal_wealth_matches_pathwise_sums(self, seed):
        rng = random.Random(seed)
        d = rng.randint(1, 3)
        market = random_market(rng, depth=rng.randint(1, 3), d=d, v0=rng.uniform(-5, 5))
        policy = random_policy(rng, market.tree, d, nonzero=False)
        wealth = wealth_process(market, policy)
        oracle = pathwise_terminal_wealth(market, policy)
        for leaf, v in oracle.items():
            assert wealth.at(market.tree.horizon)[leaf] == pytest.approx(v, abs=1e-12)

    @pytest.mark.parametrize("seed", range(6))
    def test_increments_scale_linearly_in_the_policy(self, seed):
        rng = random.Random(100 + seed)
        market = random_market(rng, depth=3, v0=rng.uniform(-2, 2))
        policy = random_policy(rng, market.tree, 1)
        lam = rng.uniform(-3, 3)
        base = wealth_process(market, policy)
        bumped = wealth_process(market, scaled(policy, lam))
        v0 = market.initial_wealth
        for t in range(4):
            for n in market.tree.nodes_at(t):
                assert bumped.at(t)[n] - v0 == pytest.approx(
                    lam * (base.at(t)[n] - v0), abs=1e-9
                )

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("seed", range(4))
    def test_equals_scalar_recursion_exactly(self, d, seed):
        rng = random.Random(500 + 10 * d + seed)
        market = random_market(rng, depth=3, d=d, v0=rng.uniform(-5, 5), branching=(1, 3))
        policy = random_policy(rng, market.tree, d, nonzero=False)
        wealth = wealth_process(market, policy)
        oracle = scalar_wealth(market, policy)
        for t in range(4):
            for n in market.tree.nodes_at(t):
                assert wealth.at(t)[n] == oracle[n]

    def test_wrong_arity_rejected(self, demo):
        market = demo.market
        bad = constant_policy(market.tree, 2, 1.0, "wide")
        with pytest.raises(DimensionError):
            wealth_process(market, bad)


class TestPolicyFromMaps:
    def test_times_must_run_from_zero(self):
        with pytest.raises(TimeOrderError, match=r"needs times 0..n-1, got \[1\]"):
            Policy.from_maps("late", {1: {"r": (1.0,)}})

    def test_mixed_vector_lengths_rejected(self):
        with pytest.raises(DimensionError, match="mixes vector lengths at time 1"):
            Policy.from_maps("ragged", {0: {"r": (1.0,)}, 1: {"ru": (1.0,), "rd": (1.0, 2.0)}})

    def test_non_finite_allocation_rejected(self):
        with pytest.raises(ValueError, match="non-finite allocation at node 'rd'"):
            Policy.from_maps("bad", {0: {"r": (1.0,)}, 1: {"ru": (1.0,), "rd": (math.nan,)}})

    @pytest.mark.parametrize("rows", [1, 3])
    def test_level_rows_must_be_the_nodes_of_its_time(self, demo, rows):
        # an extra row went unread by wealth_process but into the key; a
        # missing row ended in an IndexError
        hold = demo.base_policy
        levels = (hold.levels[0], np.ones((rows, 1)), hold.levels[2])
        with pytest.raises(DimensionError, match=r"shape \(%d, 1\) for the 2 time-1 nodes" % rows):
            Policy(hold.nodes, levels, "odd")

    @pytest.mark.parametrize(
        "reshape, shape",
        [
            (lambda t, a: a[:, 0] if t == 0 else a, r"\(1,\)"),
            (lambda t, a: a[..., None], r"\(1, 1, 1\)"),
        ],
        ids=["1d_level", "3d_levels"],
    )
    def test_level_must_be_nodes_by_assets(self, demo, reshape, shape):
        # both were accepted and ended in a bare IndexError out of wealth_process
        hold = demo.base_policy
        levels = tuple(reshape(t, a) for t, a in enumerate(hold.levels))
        with pytest.raises(DimensionError, match=shape + r" for the 1 time-0 nodes, not \(nodes"):
            Policy(hold.nodes, levels, "odd")

    @pytest.mark.parametrize("count", [0, 1, 2, 4])
    def test_level_count_must_be_the_decision_times(self, demo, count):
        # a short policy ended in an IndexError out of wealth_process; an
        # extra level went unread by wealth but into the key
        hold = demo.base_policy
        levels = (hold.levels + (hold.levels[-1],))[:count]
        with pytest.raises(DimensionError, match=f"has {count} allocation levels for 3 decision"):
            Policy(hold.nodes, levels, "odd")

    def test_policy_of_another_tree_has_no_wealth(self, demo):
        other = random_tree(random.Random(4), 3)
        with pytest.raises(UnknownNode, match="does not cover this tree's decision nodes"):
            wealth_process(demo.market, constant_policy(other, 1, 1.0, "elsewhere"))


class TestTruncate:
    def test_negative_cutoff_rejected(self, demo):
        with pytest.raises(ValueError, match="cutoff must be >= 0, got -1"):
            truncate(demo.base_policy, -1)

    def test_cut_at_one_holds_only_at_time_zero(self, demo):
        cut = truncate(demo.base_policy, 1)
        assert cut.allocations.at(0)["r"] == (1.0,)
        for t in (1, 2):
            for n in demo.market.tree.nodes_at(t):
                assert cut.allocations.at(t)[n] == (0.0,)

    def test_idempotent(self, demo):
        once = truncate(demo.base_policy, 1)
        assert truncate(once, 1).key == once.key

    def test_cut_at_zero_is_the_zero_policy(self, demo):
        assert truncate(demo.base_policy, 0).key == zero_policy(demo.market.tree, 1).key

    def test_cut_beyond_last_time_returns_same_policy(self, demo):
        assert truncate(demo.base_policy, 3) is demo.base_policy

    def test_zero_levels_are_not_allocated_per_truncation(self, monkeypatch):
        # a modified run truncates its choice at every decision time: zero
        # arrays made grow with T, not with T^2 (one per level and cut)
        made = collections.Counter()
        for name in ("zeros", "zeros_like"):
            def counted(*args, name=name, make=getattr(np, name), **kwargs):
                made[name] += 1
                return make(*args, **kwargs)

            monkeypatch.setattr(np, name, counted)
        counts, shared = [], set()
        for T in (30, 60):
            market = chain_market(T)
            hold = Policy.from_maps("hold", {t: {f"c{t}": (1.0,)} for t in range(T)})
            space = stopping_time_space(market.tree, hold)
            vf = ModifiedHorizon(1, ExpectationOperator.linear())
            made.clear()
            choice = run_policy_choice(vf, market, space)
            counts.append(sum(made.values()))
            for t, x_t in enumerate(choice.chosen):
                assert x_t.key == truncated_key(x_t, t + 1)
                shared.update(id(a) for a in x_t.levels[t + 1:])
        assert counts[1] <= 2 * counts[0], counts
        assert len(shared) == 1  # every truncated level of a chain is (1, 1)

    @pytest.mark.parametrize("seed", range(6))
    def test_key_rule_matches_truncate(self, seed):
        rng = random.Random(600 + seed)
        tree = random_tree(rng, rng.randint(1, 3))
        d = rng.randint(1, 2)
        base = random_policy(rng, tree, d, nonzero=False)
        stops = stopping_time_space(tree, base).policies
        policies = [base, *rng.sample(stops, min(5, len(stops)))]
        # a raw-constructor policy with a -0.0 tail: equal in value to its
        # truncations but not nodewise-equal in bytes
        tail = tuple(np.full_like(a, -0.0) for a in base.levels[1:])
        signed = Policy(base.nodes, base.levels[:1] + tail)
        policies.append(signed)
        for p in policies:
            for cut in range(tree.horizon + 2):
                assert truncated_key(p, cut) == truncate(p, cut).key
        assert all(signed.key != truncated_key(signed, cut) for cut in range(1, tree.horizon))


class TestConditionalSpace:
    def test_time_zero_returns_the_space_itself(self, demo):
        rows = conditional_space(demo.space, 0, demo.base_policy)
        assert [demo.space.policies[r] for r in rows] == list(demo.space.policies)

    def test_members_holding_at_the_root(self, demo):
        past = truncate(demo.base_policy, 1)  # hold at t=0 only
        cond = [demo.space.policies[r] for r in conditional_space(demo.space, 1, past)]
        assert len(cond) == 25
        for p in cond:
            assert p.allocations.at(0)["r"] == (1.0,)

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_brute_filter(self, seed):
        rng = random.Random(200 + seed)
        tree = random_tree(rng, rng.randint(1, 3))
        space = stopping_time_space(tree, random_policy(rng, tree, 1, label="b"))
        past = rng.choice(space.policies)
        t = rng.randint(1, tree.horizon)
        cond = [space.policies[r] for r in conditional_space(space, t, past)]
        expected = [
            p
            for p in space.policies
            if all(
                p.allocations.at(u)[n] == past.allocations.at(u)[n]
                for u in range(t)
                for n in tree.nodes_at(u)
            )
        ]
        assert [p.key for p in cond] == [p.key for p in expected]

    def test_past_required_after_time_zero(self, demo):
        with pytest.raises(ValueError, match="a past policy is required for t > 0"):
            conditional_space(demo.space, 1)

    def test_empty_conditional_space_raises(self, demo):
        space = PolicySpace.from_policies((demo.base_policy,), label="only-hold")
        with pytest.raises(EmptyConditionalSpace):
            conditional_space(space, 1, zero_policy(demo.market.tree, 1))

    def test_later_restrictions_are_nested(self, demo):
        past = demo.base_policy
        keys_t1 = {demo.space.policies[r].key for r in conditional_space(demo.space, 1, past)}
        keys_t2 = {demo.space.policies[r].key for r in conditional_space(demo.space, 2, past)}
        assert keys_t2 <= keys_t1


class TestPaste:
    def test_full_event_gives_first_policy(self, demo):
        tree = demo.market.tree
        x = demo.base_policy
        y = truncate(x, 1)
        event = Event(1, frozenset(tree.nodes_at(1)))
        assert paste(tree, event, x, y).key == x.key

    def test_empty_event_gives_second_policy(self, demo):
        tree = demo.market.tree
        x = demo.base_policy
        y = truncate(x, 1)
        assert paste(tree, Event(1, frozenset()), x, y).key == y.key

    def test_mixed_event_follows_each_branch(self, demo):
        tree = demo.market.tree
        hold = demo.base_policy
        stop1 = truncate(hold, 1)
        mixed = paste(tree, Event(1, frozenset({"ru"})), hold, stop1)
        for t in range(3):
            for n in tree.nodes_at(t):
                expected = hold if (t == 0 or ancestor_at(tree, n, 1) == "ru") else stop1
                assert mixed.allocations.at(t)[n] == expected.allocations.at(t)[n]

    def test_self_paste_is_identity(self, demo):
        tree = demo.market.tree
        rng = random.Random(5)
        for p in rng.sample(demo.space.policies, 5):
            nodes = frozenset(rng.sample(tree.nodes_at(2), 2))
            assert paste(tree, Event(2, nodes), p, p).key == p.key

    def test_event_nodes_of_another_time_rejected(self, demo):
        tree = demo.market.tree
        x = demo.base_policy
        with pytest.raises(UnknownNode, match=r"\['ruu'\] are not time-1 nodes"):
            paste(tree, Event(1, frozenset({"ru", "ruu"})), x, x)

    def test_prefix_disagreement_rejected(self, demo):
        tree = demo.market.tree
        with pytest.raises(PrefixMismatch):
            paste(tree, Event(1, frozenset({"ru"})), demo.base_policy, zero_policy(tree, 1))


def exhaustive_pasting_closed(tree, space, t, past):
    """Closure under pastes over every F_t event, empty event first."""
    cond = [space.policies[r] for r in conditional_space(space, t, past)]
    keys = {p.key for p in cond}
    level = tree.nodes_at(t)
    for r in range(len(level) + 1):
        for subset in itertools.combinations(level, r):
            event = Event(t, frozenset(subset))
            for x in cond:
                for y in cond:
                    if x is not y and paste(tree, event, x, y).key not in keys:
                        return False, (event, x, y)
    return True, None


def distinct_pasts(space, times):
    """One (t, past) per distinct prefix of the space's members."""
    seen = set()
    for t in times:
        for past in space.policies:
            if (t, past.prefix(t)) not in seen:
                seen.add((t, past.prefix(t)))
                yield t, past


class TestClosureChecks:
    def test_stopping_space_is_pasting_closed_everywhere(self, demo):
        tree = demo.market.tree
        seen = set()
        for past in demo.space.policies:
            for t in range(3):
                prefix = tuple(
                    tuple(sorted(past.allocations.at(u).values.items())) for u in range(t)
                )
                if (t, prefix) in seen:
                    continue
                seen.add((t, prefix))
                ok, witness = is_pasting_closed(tree, demo.space, t, past)
                assert ok, witness

    def test_singleton_events_agree_with_every_event_on_s4(self, demo):
        tree = demo.market.tree
        for t, past in distinct_pasts(demo.space, range(3)):
            assert is_pasting_closed(tree, demo.space, t, past) == exhaustive_pasting_closed(
                tree, demo.space, t, past
            )

    @pytest.mark.parametrize("seed", range(6))
    def test_singleton_events_agree_with_every_event_on_seeded_spaces(self, seed):
        rng = random.Random(700 + seed)
        tree = random_tree(rng, rng.randint(2, 3))
        members = stopping_time_space(tree, random_policy(rng, tree, 1)).policies
        space = PolicySpace.from_policies(tuple(rng.sample(members, max(1, len(members) // 2))))
        for t, past in distinct_pasts(space, range(tree.horizon)):
            assert is_pasting_closed(tree, space, t, past) == exhaustive_pasting_closed(
                tree, space, t, past
            )

    def test_two_member_space_is_not_pasting_closed(self, demo):
        tree = demo.market.tree
        hold = demo.base_policy
        space = PolicySpace.from_policies((hold, truncate(hold, 1)), label="pair")
        ok, witness = is_pasting_closed(tree, space, 1, hold)
        assert not ok
        event, x, y = witness
        assert event.time == 1
        assert paste(tree, event, x, y).key not in {p.key for p in space.policies}

    def test_singleton_space_is_pasting_closed(self, demo):
        tree = demo.market.tree
        space = PolicySpace.from_policies((demo.base_policy,), label="single")
        ok, witness = is_pasting_closed(tree, space, 1, demo.base_policy)
        assert ok and witness is None

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_stopping_space_is_truncation_closed(self, demo, m):
        ok, witness = is_truncation_closed(demo.space, m)
        assert ok, witness

    def test_horizon_below_one_rejected(self, demo):
        with pytest.raises(ValueError, match="horizon must be >= 1, got 0"):
            is_truncation_closed(demo.space, 0)

    def test_hold_only_space_is_not_truncation_closed(self, demo):
        space = PolicySpace.from_policies((demo.base_policy,), label="only-hold")
        ok, witness = is_truncation_closed(space, 1)
        assert not ok
        t, past, member = witness
        assert member.key == demo.base_policy.key

    @pytest.mark.parametrize("seed", range(8))
    def test_truncation_closure_matches_per_past_loop(self, seed):
        # a shuffled product space (each time holds zero or one of two drawn
        # levels) without the members that hold at time 1 and not after:
        # with m = 1 closure first fails at t = 1, in several prefix classes
        # that do not follow the stored order
        rng = random.Random(720 + seed)
        tree = random_tree(rng, 3)
        a, b = random_policy(rng, tree, 1), random_policy(rng, tree, 1)
        options = [(np.zeros_like(x), x, y) for x, y in zip(a.levels, b.levels)]
        members = [Policy(a.nodes, levels) for levels in itertools.product(*options)]
        kept = [p for p in members if not (p.levels[1].any() and not p.levels[2].any())]
        space = PolicySpace.from_policies(tuple(rng.sample(kept, len(kept))))

        def as_keys(result):
            ok, witness = result
            return (ok, None) if ok else (ok, (witness[0], witness[1].key, witness[2].key))

        results = [as_keys(is_truncation_closed(space, m)) for m in range(1, tree.horizon + 2)]
        assert results == [
            as_keys(loop_truncation_closed(space, m)) for m in range(1, tree.horizon + 2)
        ]
        assert results[0][1][0] == 1

    def test_min_cutoff_family_is_truncation_closed(self, demo):
        family = PolicySpace.from_policies(
            tuple(truncate(demo.base_policy, k) for k in range(4)), label="cutoffs"
        )
        ok, witness = is_truncation_closed(family, 1)
        assert ok, witness


class TestStoppingTimes:
    def test_three_period_binary_count(self, demo):
        tree = demo.market.tree
        assert count_stopping_times(tree) == 26
        assert len(demo.space) == 26

    def test_depth_two_binary_count(self):
        rng = random.Random(0)
        tree = random_tree(rng, 2)
        assert count_stopping_times(tree) == 5
        space = stopping_time_space(tree, constant_policy(tree, 1, 1.0, "hold"))
        assert len(space) == 5

    def test_single_node_tree(self):
        tree = build_tree({"T": 0, "nodes": [{"id": "r", "time": 0, "parent": None}]})
        space = stopping_time_space(tree, constant_policy(tree, 1, 1.0, "hold"))
        assert len(space) == 1
        assert space.policies[0].allocations.slices == {}

    def test_cap_enforced(self):
        tree = random_tree(random.Random(0), 6)
        assert count_stopping_times(tree) == 210_066_388_901 > STOPPING_TIME_CAP
        with pytest.raises(EnumerationLimit, match=f"cap of {STOPPING_TIME_CAP}"):
            stopping_time_space(tree, constant_policy(tree, 1, 1.0, "hold"))

    @pytest.mark.parametrize("seed", range(8))
    def test_members_are_absorbing(self, seed):
        rng = random.Random(300 + seed)
        tree = random_tree(rng, rng.randint(1, 3))
        base = random_policy(rng, tree, 1, label="b")  # nonzero everywhere
        for p in stopping_time_space(tree, base).policies:
            for t in range(tree.horizon - 1):
                for n in tree.nodes_at(t):
                    if p.allocations.at(t)[n] == (0.0,):
                        for c in tree.children(n):
                            assert p.allocations.at(t + 1)[c] == (0.0,)

    def test_zero_base_collapses_to_one_policy(self, demo):
        space = stopping_time_space(demo.market.tree, zero_policy(demo.market.tree, 1))
        assert len(space) == 1

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_member_by_member_oracle(self, seed):
        # odd seeds zero the base at the root and at random nodes, so that
        # stop rules coincide and deduplication drops rows
        rng = random.Random(900 + seed)
        tree = random_tree(rng, rng.randint(1, 3), branching=(1, 3))
        base = random_policy(rng, tree, rng.randint(1, 2), label="b")
        if seed % 2:
            maps = {
                t: {n: (0.0,) * len(v) if n == tree.root or rng.random() < 0.4 else v
                    for n, v in sl.values.items()}
                for t, sl in base.allocations.slices.items()
            }
            base = Policy.from_maps("b", maps)
        got, want = stopping_time_space(tree, base), oracle_stopping_time_space(tree, base)
        assert [(p.key, p.label) for p in got.policies] == [
            (p.key, p.label) for p in want.policies
        ]
        assert (got.key, got.label) == (want.key, want.label)
        if seed % 2:
            assert len(got) < count_stopping_times(tree)

    @pytest.mark.parametrize("seed", range(4))
    def test_each_node_is_enumerated_once(self, monkeypatch, seed):
        # one children() call per node, for the count table that both the
        # cap and the digits read: a child's rules are not enumerated again
        # for every combination of its elder siblings' rules
        rng = random.Random(1300 + seed)
        tree = random_tree(rng, 4 if seed < 2 else 3, branching=(1, 3) if seed % 2 else (2, 2))
        calls = collections.Counter()

        def children(node_id):
            calls[node_id] += 1
            return type(tree).children(tree, node_id)

        monkeypatch.setattr(tree, "children", children)
        rules = enumerate_stopping_times(tree)
        assert calls == {n: 1 for n in tree.node_ids}
        calls.clear()
        stopping_time_space(tree, constant_policy(tree, 1, 1.0, "hold"))
        assert calls == {n: 1 for n in tree.node_ids}
        calls.clear()
        count_stopping_times(tree)
        assert calls == {n: 1 for n in tree.node_ids}
        monkeypatch.undo()

        # the order of the nested loops this replaces: "stop here" first,
        # then the children's rules with the first child varying slowest
        assert first_stop_sets(tree, rules) == oracle_stopping_rules(tree)

    def test_time_zero_tree_matches_oracle(self):
        tree = build_tree({"T": 0, "nodes": [{"id": "r", "time": 0, "parent": None}]})
        base = Policy.from_maps("b", {})
        got, want = stopping_time_space(tree, base), oracle_stopping_time_space(tree, base)
        assert [(p.key, p.label) for p in got.policies] == [
            (p.key, p.label) for p in want.policies
        ]
        assert (len(got), got.key, tuple(got.labels)) == (1, b"", ("b|stop@r",))

    def test_long_chain_needs_no_recursion(self):
        # one rule per stop time 0..T, deeper than the interpreter's
        # recursion limit
        tree = chain_market(1500).tree
        rules = first_stop_sets(tree, enumerate_stopping_times(tree))
        assert count_stopping_times(tree) == len(rules) == 1501
        assert rules[:2] == [frozenset({"c0"}), frozenset({"c1"})]
        assert rules[-1] == frozenset({"c1500"})
        assert rules == oracle_stopping_rules(tree)

    @pytest.mark.parametrize("seed", range(16))
    def test_rules_match_the_nested_loop_oracle(self, seed):
        # fan-out 1 to 3 or 1 to 4: single children, and siblings of unequal
        # rule counts, so that every radix differs from its count
        rng = random.Random(1700 + seed)
        branching = (1, 4) if seed % 2 else (1, 3)
        tree = random_tree(rng, rng.randint(1, 3), branching=branching)
        first = enumerate_stopping_times(tree)
        assert first.shape == (count_stopping_times(tree), len(tree))
        assert first_stop_sets(tree, first) == oracle_stopping_rules(tree)

    @pytest.mark.parametrize("T", [0, 1, 2, 7])
    def test_chain_rules_match_the_oracle(self, T):
        tree = chain_market(T).tree
        first = enumerate_stopping_times(tree)
        # on a chain, rule k stops at time k: one diagonal
        assert (first == np.eye(T + 1, dtype=bool)).all()
        assert first_stop_sets(tree, first) == oracle_stopping_rules(tree)

    @pytest.mark.parametrize("seed", range(6))
    def test_every_path_stops_once(self, seed):
        rng = random.Random(1900 + seed)
        tree = random_tree(rng, rng.randint(1, 4), branching=(1, 3))
        first = enumerate_stopping_times(tree)
        leaves = tree.sorted_nodes_at(tree.horizon)
        paths = np.zeros((len(leaves), len(tree)), dtype=int)
        ids = [n for t in range(tree.horizon + 1) for n in tree.sorted_nodes_at(t)]
        for i, leaf in enumerate(leaves):
            for t in range(tree.horizon + 1):
                paths[i, ids.index(ancestor_at(tree, leaf, t))] = 1
        assert (first.astype(int) @ paths.T == 1).all()

    def test_long_chain_space_matches_oracle(self):
        tree = chain_market(300).tree
        base = constant_policy(tree, 1, 1.0, "hold")
        got, want = stopping_time_space(tree, base), oracle_stopping_time_space(tree, base)
        assert (got.key, tuple(got.labels), got.label) == (want.key, want.labels, want.label)
        assert tuple(got.labels[:2]) == ("hold|stop@c0", "hold|stop@c1")

    def test_binary_depth_five_space_holds_no_labels(self):
        # 458,330 rules; a member's label is decoded from its rule when read.
        # Under tracemalloc the space held 245.7 MB live (755 MB peak) while
        # it kept one label string per rule, and holds 117.3 MB live (627 MB
        # peak) now, about its 113.7 MB bit matrix; about 0.9 s either way
        tree = random_tree(random.Random(0), 5)
        tracemalloc.start()
        try:
            space = stopping_time_space(tree, constant_policy(tree, 1, 1.0, "hold"))
            live = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(space) == 458330
        assert live < 150e6

    def test_cap_refused_before_any_rule_array(self):
        tree = random_tree(random.Random(0), 6)
        tracemalloc.start()
        try:
            with pytest.raises(EnumerationLimit, match=f"cap of {STOPPING_TIME_CAP}"):
                enumerate_stopping_times(tree)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20


class TestPolicySpace:
    def test_negative_zero_is_the_zero_policy(self, demo):
        tree = demo.market.tree
        zero = zero_policy(tree, 1)
        negative = constant_policy(tree, 1, -0.0, "negative-zero")
        space = PolicySpace.from_policies((zero, negative))
        assert len(space) == 1
        assert negative.agrees_before(zero, tree.horizon)

    def test_deduplication_keeps_first(self, demo):
        hold = demo.base_policy
        dup = Policy.from_maps(
            "copy", {t: sl.values for t, sl in hold.allocations.slices.items()}
        )
        space = PolicySpace.from_policies((hold, dup, truncate(hold, 1)))
        assert len(space) == 2
        assert space.policies[0].label == "hold"

    @pytest.mark.parametrize("dropped", [2, 0])
    def test_members_read_before_deduplication_are_dropped(self, demo, monkeypatch, dropped):
        # a tracer may read the members before __post_init__ deduplicates;
        # they are on the caller's stacks, so they are rebuilt on the matrix
        # even when no row drops
        offered = []
        post_init = PolicySpace.__post_init__

        def traced(self):
            offered.append(len(self.policies))
            post_init(self)

        monkeypatch.setattr(PolicySpace, "__post_init__", traced)
        hold, cut = demo.base_policy, truncate(demo.base_policy, 1)
        copies = (truncate(hold, 1), scaled(hold, 1.0))[:dropped]
        space = PolicySpace.from_policies((hold, cut) + copies)
        assert offered == [2 + dropped]
        assert [(p.key, p.label) for p in space.policies] == [
            (hold.key, "hold"),
            (cut.key, "hold|cut1"),
        ]
        assert space.member(1) is space.policies[1]
        assert space.key == hold.key + cut.key
        assert space._bits.shape[0] == len(space.levels[0]) == 2
        assert all(np.shares_memory(a, space._bits) for p in space.policies for a in p.levels)

    def test_mismatched_domains_rejected(self, demo):
        rng = random.Random(9)
        other = random_tree(rng, 3, branching=(3, 3))
        with pytest.raises(UnknownNode, match="policy 'odd' does not cover"):
            PolicySpace.from_policies((demo.base_policy, constant_policy(other, 1, 1.0, "odd")))

    def test_mixed_asset_counts_rejected(self, demo):
        tree = demo.market.tree
        pair = (constant_policy(tree, 1, 1.0, "one"), constant_policy(tree, 2, 1.0, "two"))
        with pytest.raises(DimensionError, match="policy 'two' does not hold as many assets"):
            PolicySpace.from_policies(pair)

    def test_empty_space_rejected(self):
        with pytest.raises(ValueError):
            PolicySpace.from_policies(())

    def test_space_without_labels_rejected(self, demo):
        levels = tuple(a[:0] for a in demo.space.levels)
        with pytest.raises(ValueError, match="policy space must be non-empty"):
            PolicySpace(demo.space.nodes, levels, ())

    @pytest.mark.parametrize("kept", [1, 3])
    def test_stacks_hold_one_member_per_label(self, demo, kept):
        # one label over all 26 members read as one member of their rows joined
        space = demo.space
        with pytest.raises(DimensionError, match=r"shape \(26, 1, 1\) for the 1 time-0 nodes"):
            PolicySpace(space.nodes, space.levels, space.labels[:kept])

    def test_stacks_hold_one_row_per_node(self, demo):
        space = demo.space
        levels = space.levels[:2] + (space.levels[2][:, :-1],)
        with pytest.raises(DimensionError, match=r"shape \(26, 3, 1\) for the 4 time-2 nodes"):
            PolicySpace(space.nodes, levels, space.labels)

    @pytest.mark.parametrize(
        "reshape, shape",
        [(lambda a: a[..., 0], r"\(26, 1\)"), (lambda a: a[..., None], r"\(26, 1, 1, 1\)")],
        ids=["2d_stacks", "4d_stacks"],
    )
    def test_stacks_are_members_by_nodes_by_assets(self, demo, reshape, shape):
        # 2-d stacks ended in numpy's dtype ValueError out of prefix_classes,
        # 4-d stacks in a bare IndexError out of wealth_process
        space = demo.space
        levels = tuple(map(reshape, space.levels))
        with pytest.raises(DimensionError, match=shape + r" for the 1 time-0 nodes, not \(nodes"):
            PolicySpace(space.nodes, levels, space.labels)

    def test_stacks_hold_one_asset_count(self, demo):
        # a space of members holding two assets at time 1 only was built
        space = demo.space
        levels = (space.levels[0], np.ones((26, 2, 2)), space.levels[2])
        with pytest.raises(DimensionError, match=r"shape \(26, 2, 2\) for the 2 time-1 nodes"):
            PolicySpace(space.nodes, levels, space.labels)

    def test_stacks_passed_in_keep_their_writeable_flag(self, demo):
        # the space copies them into its matrix and leaves them alone
        levels = tuple(a.copy() for a in demo.space.levels)
        space = PolicySpace(demo.space.nodes, levels, demo.space.labels)
        assert all(a.flags.writeable for a in levels)
        assert not any(np.shares_memory(a, space._bits) for a in levels)

    def test_space_keeps_labels_of_its_own(self, demo):
        # a list passed in was kept, so a label appended to it afterwards
        # made the space 27 members long over 26 matrix rows, and a
        # generator ended in a bare TypeError
        space, labels = demo.space, list(demo.space.labels)
        own = PolicySpace(space.nodes, space.levels, labels)
        labels.append("x")
        assert (len(own), len(own.policies)) == (26, 26)
        assert own.labels == tuple(space.labels)
        run_policy_choice(Terminal(ExpectationOperator.paper10()), demo.market, own)
        drawn = PolicySpace(space.nodes, space.levels, (x for x in space.labels))
        assert drawn.labels == own.labels

    def test_member_rows_count_as_a_sequence_does(self, demo):
        # member(-1) was a second object for the last row, and a row past
        # the end ended in numpy's IndexError
        space = PolicySpace(demo.space.nodes, demo.space.levels, demo.space.labels)
        last = space.member(-1)
        assert last is space.member(len(space) - 1) is space.policies[-1]
        assert space.member(np.int64(-26)) is space.member(0)
        for r in (26, -27):
            with pytest.raises(IndexError, match="out of range"):
                space.member(r)

    def test_a_space_is_not_iterable(self, demo):
        # members are read through `policies` or `member(r)`
        with pytest.raises(TypeError, match="not iterable"):
            iter(demo.space)


class TestOneStorage:
    """A space stores its members once: one read-only bit matrix whose
    column blocks are its levels and whose rows its members are built on."""

    @pytest.fixture(params=["s4", "deduplicated", "stop-d4"])
    def space(self, request, demo):
        hold = demo.base_policy
        if request.param == "s4":
            return demo.space
        if request.param == "deduplicated":
            maps = {t: sl.values for t, sl in hold.allocations.slices.items()}
            copy = Policy.from_maps("copy", maps)
            return PolicySpace.from_policies((hold, copy, truncate(hold, 1)))
        # a binary depth-4 market's 677-member stopping space, as in stop-d4
        rng = random.Random(2300)
        market = random_market(rng, 4)
        return stopping_time_space(market.tree, random_policy(rng, market.tree, 1, "base"))

    def test_levels_and_members_are_views_of_the_matrix(self, space):
        members = [space.member(r) for r in range(len(space))]
        assert all(np.shares_memory(a, space._bits) for a in space.levels)
        assert all(np.shares_memory(a, space._bits) for p in members for a in p.levels)
        assert space.key == b"".join(p.key for p in members)

    def test_matrix_is_read_only(self, space):
        assert not space._bits.flags.writeable
        assert not any(a.flags.writeable for a in space.levels)
        with pytest.raises(ValueError, match="read-only"):
            space.levels[0][0, 0, 0] = 1.0

    def test_matrix_cannot_be_made_writeable(self, space):
        # the float64 matrix under the int64 bits was writeable, so a level
        # could be made writeable and a write through it moved the key
        with pytest.raises(ValueError, match="WRITEABLE"):
            space.levels[-1].flags.writeable = True


class TestFloat64Allocations:
    """A policy's identity is the bits of float64 arrays, so a policy or a
    space of another dtype is refused where it is built. An int64 copy of
    s4's hold policy was merged with hold by from_policies and refused as
    the past of a space holding exactly its allocations; a float32 copy's
    stopping space had float64 bits but float32 member keys, so every run,
    acceptability check and conditioning on a member past time 0 raised
    EmptyConditionalSpace."""

    @pytest.mark.parametrize("dtype", ["int64", "float32"])
    def test_policy_of_another_dtype_refused(self, demo, dtype):
        hold = demo.base_policy
        levels = tuple(a.astype(dtype) for a in hold.levels)
        with pytest.raises(ValueError, match=f"'copy' holds {dtype} allocations at time 0, not"):
            Policy(hold.nodes, levels, "copy")

    @pytest.mark.parametrize("dtype", ["int64", "float32"])
    def test_space_of_another_dtype_refused(self, demo, dtype):
        space = demo.space
        levels = space.levels[:2] + (space.levels[2].astype(dtype),)
        with pytest.raises(ValueError, match=f"'odd' holds {dtype} allocations at time 2, not"):
            PolicySpace(space.nodes, levels, space.labels, "odd")


@pytest.fixture(scope="module", params=["shallower", "renamed"])
def foreign(request):
    """A tree that is not s4's: s4 cut at time 2, or s4 with its ids renamed."""
    nodes = three_period_market_spec()["nodes"]
    if request.param == "shallower":
        return build_tree({"T": 2, "nodes": [n for n in nodes if n["time"] <= 2]})

    def rename(nid):
        return nid and "s" + nid[1:]

    nodes = [{**n, "id": rename(n["id"]), "parent": rename(n["parent"])} for n in nodes]
    return build_tree({"T": 3, "nodes": nodes})


class TestOneMembershipRule:
    """Every entry that pairs a tree or market with a policy or space
    refuses one whose node ids are not the tree's decision levels, with
    one message, rather than fail on an index or answer about the wrong
    tree."""

    REFUSAL = "does not cover this tree's decision nodes"
    BELLMAN = BellmanAdditive(lambda node, alloc: alloc[0])

    @pytest.fixture()
    def elsewhere(self, foreign):
        return constant_policy(foreign, 1, 1.0, "elsewhere")

    def test_bellman_value(self, demo, elsewhere):
        with pytest.raises(UnknownNode, match=self.REFUSAL):
            value(self.BELLMAN, demo.market, elsewhere, 0)

    def test_bellman_run(self, demo, foreign, elsewhere):
        space = stopping_time_space(foreign, elsewhere)
        with pytest.raises(UnknownNode, match=self.REFUSAL):
            run_policy_choice(self.BELLMAN, demo.market, space)

    def test_stopping_time_space(self, demo, elsewhere):
        with pytest.raises(UnknownNode, match=self.REFUSAL):
            stopping_time_space(demo.market.tree, elsewhere)

    @pytest.mark.parametrize("foreign_side", ["x", "y"])
    def test_paste(self, demo, elsewhere, foreign_side):
        pair = (elsewhere, demo.base_policy)
        x, y = pair if foreign_side == "x" else pair[::-1]
        with pytest.raises(UnknownNode, match=self.REFUSAL):
            paste(demo.market.tree, Event(1, frozenset({"ru"})), x, y)

    def test_is_pasting_closed(self, demo, foreign, elsewhere):
        space = stopping_time_space(foreign, elsewhere)
        with pytest.raises(UnknownNode, match=self.REFUSAL):
            is_pasting_closed(demo.market.tree, space, 0)

    def test_monotonicity_with_no_decision_time(self, demo):
        # a horizon-0 market values no time, and still refuses a foreign space
        root = build_tree({"T": 0, "nodes": [{"id": "r", "time": 0, "parent": None}]})
        market = MarketModel(root, 1, AdaptedProcess({0: Slice.from_map(0, {"r": (1.0,)})}))
        with pytest.raises(UnknownNode, match=self.REFUSAL):
            intertemporal_monotonicity(Terminal(ExpectationOperator.linear()), market, demo.space)

    def test_conditional_space_and_feasible_set_with_a_foreign_past(self, demo, elsewhere):
        # renamed, `elsewhere` has the bits of s4's hold policy
        with pytest.raises(UnknownNode, match=self.REFUSAL):
            conditional_space(demo.space, 2, elsewhere)
        vf = SimpleHorizon(2, ExpectationOperator.paper10())
        with pytest.raises(UnknownNode, match=self.REFUSAL):
            feasible_set(vf, demo.space, 2, elsewhere)

    def test_is_pasting_closed_with_a_foreign_past(self, demo, elsewhere):
        with pytest.raises(UnknownNode, match=self.REFUSAL):
            is_pasting_closed(demo.market.tree, demo.space, 2, elsewhere)

    def test_agrees_before_a_foreign_policy(self, demo, elsewhere):
        with pytest.raises(UnknownNode, match=self.REFUSAL):
            demo.base_policy.agrees_before(elsewhere, 3)

    def test_wealth_of_a_policy_with_an_extra_level(self, demo):
        tree = demo.market.tree
        maps = {t: {n: (1.0,) for n in tree.nodes_at(t)} for t in range(tree.horizon + 1)}
        with pytest.raises(UnknownNode, match=self.REFUSAL):
            wealth_process(demo.market, Policy.from_maps("extra", maps))


class TestOneAssetCount:
    """Every entry that pairs a past or a second policy with a space or
    policy refuses one that holds another number of assets per node, with
    one message, rather than find no agreeing member or broadcast."""

    REFUSAL = "does not hold as many assets per node as"

    @pytest.fixture()
    def two(self, demo):
        return constant_policy(demo.market.tree, 2, 1.0, "two")

    def test_conditional_space(self, demo, two):
        with pytest.raises(DimensionError, match=self.REFUSAL):
            conditional_space(demo.space, 1, two)

    def test_feasible_set(self, demo, two):
        vf = SimpleHorizon(1, ExpectationOperator.paper10())
        with pytest.raises(DimensionError, match=self.REFUSAL):
            feasible_set(vf, demo.space, 1, two)

    def test_agrees_before(self, demo, two):
        with pytest.raises(DimensionError, match=self.REFUSAL):
            demo.base_policy.agrees_before(two, 1)

    @pytest.mark.parametrize("wide_side", ["x", "y"])
    def test_paste(self, demo, two, wide_side):
        pair = (two, demo.base_policy)
        x, y = pair if wide_side == "x" else pair[::-1]
        with pytest.raises(DimensionError, match=self.REFUSAL):
            paste(demo.market.tree, Event(0, frozenset({"r"})), x, y)

    def test_is_pasting_closed(self, demo, two):
        with pytest.raises(DimensionError, match=self.REFUSAL):
            is_pasting_closed(demo.market.tree, demo.space, 1, two)

    def test_a_policy_of_another_width_at_one_time(self, demo):
        # refused where it is built, not only where it meets another policy
        tree = demo.market.tree
        maps = {t: {n: (1.0,) * (2 if t == 2 else 1) for n in tree.nodes_at(t)}
                for t in range(tree.horizon)}
        with pytest.raises(DimensionError, match=r"shape \(4, 2\) for the 4 time-2 nodes"):
            Policy.from_maps("wide-at-2", maps)



class TestOneLayout:
    """A policy or a space holds one asset count at every decision time,
    refused where it is built, and a market values only what holds its
    asset count. A policy holding two assets at time 1 only was built, and
    a 2-asset copy of s4's hold had a Bellman value of 6 on the 1-asset
    market, where its Terminal value was refused."""

    BELLMAN = BellmanAdditive(lambda node, alloc: alloc[0])
    REFUSAL = "holds 2 assets, not 1"

    @pytest.fixture()
    def two(self, demo):
        return constant_policy(demo.market.tree, 2, 1.0, "two")

    def test_policy_of_two_asset_counts(self, demo):
        hold = demo.base_policy
        levels = (hold.levels[0], np.ones((2, 2)), hold.levels[2])
        wanted = r"not \(nodes, assets\) of shape \(2, 1\)"
        with pytest.raises(DimensionError, match=r"\(2, 2\) for the 2 time-1 nodes, " + wanted):
            Policy(hold.nodes, levels, "mixed")

    def test_from_maps_of_two_asset_counts(self, demo):
        tree = demo.market.tree
        maps = {t: {n: (1.0,) * (2 if t == 1 else 1) for n in tree.nodes_at(t)}
                for t in range(tree.horizon)}
        with pytest.raises(DimensionError, match=r"shape \(2, 2\) for the 2 time-1 nodes"):
            Policy.from_maps("wide-at-1", maps)

    def test_bellman_value(self, demo, two):
        with pytest.raises(DimensionError, match=self.REFUSAL):
            value(self.BELLMAN, demo.market, two, 0)

    def test_bellman_run(self, demo, two):
        space = stopping_time_space(demo.market.tree, two)
        with pytest.raises(DimensionError, match=self.REFUSAL):
            run_policy_choice(self.BELLMAN, demo.market, space)

    @pytest.mark.parametrize("vf", [BELLMAN, Terminal(ExpectationOperator.linear())])
    def test_value_process_of_a_space(self, demo, two, vf):
        space = stopping_time_space(demo.market.tree, two)
        with pytest.raises(DimensionError, match=self.REFUSAL):
            value_process(vf, demo.market, space, [0, 2])

    @pytest.mark.parametrize("assets", [1, 2])
    def test_no_decision_time_fits_any_market(self, assets):
        # a horizon-0 policy has no levels, so no asset count to refuse
        root = build_tree({"T": 0, "nodes": [{"id": "r", "time": 0, "parent": None}]})
        prices = AdaptedProcess({0: Slice.from_map(0, {"r": (1.0,) * assets})})
        market = MarketModel(root, assets, prices, initial_wealth=3.0)
        none = Policy((), (), "none")
        assert wealth_process(market, none).at(0).array.tolist() == [3.0]
        assert value(self.BELLMAN, market, none, 0).array.tolist() == [0.0]
        space = PolicySpace.from_policies([none])
        terminal = Terminal(ExpectationOperator.linear())
        assert value_process(terminal, market, space, [0])[0].tolist() == [[3.0]]


class TestPolicyOwnsItsBits:
    """A policy copies a level that a writeable array shares and leaves the
    caller's flags alone. Built on views of a caller's writeable array, a
    policy changed when the caller wrote to it: its cached key kept the old
    bits, its Terminal root value on s4 moved from 45.45 to 25.65, and a
    space kept it apart from the hold policy it copied."""

    @pytest.fixture()
    def built(self, demo):
        base, last = np.ones((3, 1)), np.ones((4, 1))
        return base, last, Policy(demo.base_policy.nodes, (base[:1], base[1:3], last), "p")

    def test_a_write_to_the_caller_array_does_not_reach_the_policy(self, demo, built):
        base, last, p = built
        hold, terminal = demo.base_policy, Terminal(ExpectationOperator.linear())
        before, key = value(terminal, demo.market, p, 0).array.tolist(), p.key
        base[1:3] = 5.0
        last[:] = 2.0
        assert p.levels[1].tolist() == [[1.0], [1.0]]
        assert p.key == key == b"".join(a.tobytes() for a in p.levels) == hold.key
        assert value(terminal, demo.market, p, 0).array.tolist() == before
        assert len(PolicySpace.from_policies([hold, p])) == 1

    def test_the_caller_keeps_its_flags(self, built):
        base, last, p = built
        assert base.flags.writeable and last.flags.writeable
        assert not any(a.flags.writeable for a in p.levels)
        assert not any(np.shares_memory(a, b) for a in p.levels for b in (base, last))

    def test_read_only_owners_and_their_views_are_shared(self, demo):
        owner = np.ones((7, 1))
        owner.flags.writeable = False
        levels = (owner[:1], owner[1:3], owner[3:])
        p = Policy(demo.base_policy.nodes, levels, "shared")
        assert all(a is b for a, b in zip(p.levels, levels))
