"""Seeded random instances and independent oracles shared by the tests.

The oracles here recompute quantities by direct enumeration over paths or
descendants, deliberately avoiding the library's folding code paths.
"""

import math
import random

from horizonrisk import (
    AdaptedProcess,
    ExpectationOperator,
    MarketModel,
    Policy,
    ScenarioTree,
    Slice,
    build_tree,
    stopping_time_space,
)


def random_tree_spec(rng: random.Random, depth: int, branching=(2, 2)) -> dict:
    nodes = [{"id": "r", "time": 0, "parent": None, "p": None}]
    level = ["r"]
    for t in range(1, depth + 1):
        nxt = []
        for nid in level:
            k = rng.randint(*branching)
            weights = [rng.uniform(0.2, 1.0) for _ in range(k)]
            total = sum(weights)
            probs = [w / total for w in weights]
            probs[-1] = 1.0 - sum(probs[:-1])
            for i, p in enumerate(probs):
                cid = f"{nid}.{i}"
                nodes.append({"id": cid, "time": t, "parent": nid, "p": p})
                nxt.append(cid)
        level = nxt
    return {"T": depth, "nodes": nodes}


def random_tree(rng: random.Random, depth: int, branching=(2, 2)) -> ScenarioTree:
    return build_tree(random_tree_spec(rng, depth, branching))


def random_market(
    rng: random.Random,
    depth: int,
    d: int = 1,
    inc: float = 10.0,
    v0: float = 0.0,
    branching=(2, 2),
) -> MarketModel:
    tree = random_tree(rng, depth, branching)
    prices = {tree.root: tuple(rng.uniform(10.0, 30.0) for _ in range(d))}
    for t in range(depth):
        for nid in tree.nodes_at(t):
            for c in tree.children(nid):
                prices[c] = tuple(
                    prices[nid][i] + rng.uniform(-inc, inc) for i in range(d)
                )
    slices = {
        t: Slice(t, {n: prices[n] for n in tree.nodes_at(t)})
        for t in range(depth + 1)
    }
    return MarketModel(tree, d, AdaptedProcess(slices), v0)


def random_policy(
    rng: random.Random, tree: ScenarioTree, d: int, label: str = "x", nonzero: bool = True
) -> Policy:
    def draw() -> float:
        if nonzero:
            return rng.choice([-1.0, 1.0]) * rng.uniform(0.25, 2.0)
        return rng.uniform(-2.0, 2.0)

    maps = {
        t: {n: tuple(draw() for _ in range(d)) for n in tree.nodes_at(t)}
        for t in range(tree.horizon)
    }
    return Policy.from_maps(label, maps)


def random_operator(rng: random.Random) -> ExpectationOperator:
    """An axiom-consistent operator: linear or entropic with kappa = gamma."""
    kind = rng.choice(["linear", "entropic5", "entropic10"])
    if kind == "linear":
        return ExpectationOperator.linear()
    return ExpectationOperator.entropic(5.0 if kind == "entropic5" else 10.0)


def random_instance(seed: int, max_depth: int = 4):
    """One seeded instance of the randomized suites: a binary-tree market
    with increments in [-10, 10], a stopping-time space over a random base
    policy, a horizon length, and an axiom-consistent operator."""
    rng = random.Random(seed)
    depth = rng.randint(1, max_depth)
    v0 = 0.0 if rng.random() < 0.5 else rng.uniform(-5.0, 5.0)
    market = random_market(rng, depth, d=1, inc=10.0, v0=v0)
    base = random_policy(rng, market.tree, 1, label="base")
    space = stopping_time_space(market.tree, base)
    m = rng.randint(1, depth + 1)
    op = random_operator(rng)
    return market, base, space, m, op


# ---------------------------------------------------------------- oracles


def subtree_weights(tree: ScenarioTree, node_id: str, s: int) -> dict[str, float]:
    """Conditional probabilities of the time-s descendants of a node,
    computed by multiplying branch probabilities down every path."""
    weights = {node_id: 1.0}
    node_time = tree.node(node_id).time
    for _ in range(s - node_time):
        nxt = {}
        for nid, w in weights.items():
            for c in tree.children(nid):
                nxt[c] = w * tree.node(c).branch_prob
        weights = nxt
    return weights


def conditional_expectation_oracle(tree: ScenarioTree, q: Slice, t: int) -> Slice:
    vals = {}
    for nid in tree.nodes_at(t):
        weights = subtree_weights(tree, nid, q.time)
        vals[nid] = math.fsum(w * q[d] for d, w in weights.items())
    return Slice(t, vals)


def entropic_oracle(
    tree: ScenarioTree, q: Slice, t: int, gamma: float, kappa: float
) -> Slice:
    vals = {}
    for nid in tree.nodes_at(t):
        weights = subtree_weights(tree, nid, q.time)
        mean = math.fsum(w * math.exp(-q[d] / gamma) for d, w in weights.items())
        vals[nid] = -kappa * math.log(mean)
    return Slice(t, vals)


def pathwise_terminal_wealth(market: MarketModel, policy: Policy) -> dict[str, float]:
    """Wealth at each leaf as the explicit sum of allocation-weighted price
    increments along the root-to-leaf path."""
    tree = market.tree
    out = {}
    for leaf in tree.leaves():
        path = [leaf]
        while tree.parent(path[-1]) is not None:
            path.append(tree.parent(path[-1]))
        path.reverse()
        total = market.initial_wealth
        for t in range(len(path) - 1):
            x = policy.allocations.at(t)[path[t]]
            s_now = market.prices.at(t)[path[t]]
            s_next = market.prices.at(t + 1)[path[t + 1]]
            total += sum(xi * (b - a) for xi, a, b in zip(x, s_now, s_next))
        out[leaf] = total
    return out


def scalar_wealth(market: MarketModel, policy: Policy) -> dict[str, float]:
    """Wealth at every node by the scalar self-financing recursion, each
    gain summed over the assets in index order."""
    tree = market.tree
    wealth = {tree.root: market.initial_wealth}
    for t in range(tree.horizon):
        for nid in tree.nodes_at(t):
            x = policy.allocations.at(t)[nid]
            s_now = market.prices.at(t)[nid]
            for c in tree.children(nid):
                s_next = market.prices.at(t + 1)[c]
                gain = sum(x[i] * (s_next[i] - s_now[i]) for i in range(len(x)))
                wealth[c] = wealth[nid] + gain
    return wealth
