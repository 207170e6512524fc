"""Seeded random instances and independent oracles shared by the tests.

The oracles here recompute quantities by direct enumeration over paths or
descendants, deliberately avoiding the library's folding code paths. The
per-node dict oracles at the end are the scalar forms of the library's
array paths, kept to check those paths exactly.
"""

import decimal
import math
import random

import numpy as np

from horizonrisk import (
    AdaptedProcess,
    AxiomReport,
    AxiomVerdict,
    BellmanAdditive,
    EmptyConditionalSpace,
    Event,
    ExpectationOperator,
    MarketModel,
    ModifiedHorizon,
    NoUniformMaximizer,
    Policy,
    PolicySpace,
    ScenarioTree,
    SimpleHorizon,
    Slice,
    build_tree,
    evaluate,
    paste,
    stopping_time_space,
    truncate,
    value,
    value_process,
    wealth_process,
)
from horizonrisk.market import prefix_classes


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
        t: Slice.from_map(t, {n: prices[n] for n in tree.nodes_at(t)})
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


def chain_market(T: int) -> MarketModel:
    """A one-asset market on a T-step chain, one node c<t> per time, whose
    price alternates between 10 and 11."""
    nodes = [{"id": "c0", "time": 0, "parent": None}] + [
        {"id": f"c{t}", "time": t, "parent": f"c{t - 1}", "p": 1.0} for t in range(1, T + 1)
    ]
    tree = build_tree({"T": T, "nodes": nodes})
    slices = {t: Slice.from_map(t, {f"c{t}": (10.0 + t % 2,)}) for t in range(T + 1)}
    return MarketModel(tree, 1, AdaptedProcess(slices))


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


def ancestor_at(tree: ScenarioTree, node_id: str, t: int) -> str:
    """The time-t node on the path from the root to `node_id`, found by
    walking up the parents one node at a time."""
    node = tree.node(node_id)
    while node.time > t:
        node = tree.node(node.parent)
    return node.id


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
    return Slice.from_map(t, vals)


def entropic_oracle(
    tree: ScenarioTree, q: Slice, t: int, gamma: float, kappa: float
) -> Slice:
    vals = {}
    for nid in tree.nodes_at(t):
        weights = subtree_weights(tree, nid, q.time)
        mean = math.fsum(w * math.exp(-q[d] / gamma) for d, w in weights.items())
        vals[nid] = -kappa * math.log(mean)
    return Slice.from_map(t, vals)


def decimal_entropic(
    tree: ScenarioTree, q: Slice, t: int, gamma: float, kappa: float
) -> dict[str, float]:
    """-kappa ln E[exp(-q/gamma) | F_t] at each time-t node in 60-digit
    decimal arithmetic over the exact float branch probabilities, rounded
    to float once at the end. It is taken from the least finite value low,
    as (kappa/gamma) low - kappa ln E[exp(-(q - low)/gamma) | F_t], so that
    no exponent leaves decimal's range, even where q/gamma is past 1e308.
    +-inf and NaN follow decimal's rules: exp(inf) is inf, exp(-inf) is 0,
    ln 0 is -inf and NaN propagates."""
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        g, k = decimal.Decimal(gamma), decimal.Decimal(kappa)
        out = {}
        for nid in tree.nodes_at(t):
            weights = {nid: decimal.Decimal(1)}
            for _ in range(q.time - t):
                weights = {
                    c: w * decimal.Decimal(tree.node(c).branch_prob)
                    for n, w in weights.items()
                    for c in tree.children(n)
                }
            vals = {d: decimal.Decimal(q[d]) for d in weights}
            low = min((v for v in vals.values() if v.is_finite()), default=decimal.Decimal(0))
            mean = sum(w * (-(vals[d] - low) / g).exp() for d, w in weights.items())
            out[nid] = float(k * low / g - k * mean.ln())
    return out


def pathwise_terminal_wealth(market: MarketModel, policy: Policy) -> dict[str, float]:
    """Wealth at each leaf as the explicit sum of allocation-weighted price
    increments along the root-to-leaf path."""
    tree = market.tree
    out = {}
    for leaf in tree.nodes_at(tree.horizon):
        path = [leaf]
        while tree.node(path[-1]).parent is not None:
            path.append(tree.node(path[-1]).parent)
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


# ------------------------------------------------- per-node dict oracles


def float_bits(values) -> dict[str, str]:
    """{node: value} as exact hex strings, so that -0.0 differs from 0.0."""
    return {n: float(v).hex() for n, v in values.items()}


def fsum_fold(tree: ScenarioTree, vals: dict[str, float], s: int, t: int) -> dict[str, float]:
    """E[vals | F_t] for a time-s node map, one step at a time, each parent
    the math.fsum of its children's probability-weighted values."""
    for u in range(s, t, -1):
        vals = {
            nid: math.fsum(tree.node(c).branch_prob * vals[c] for c in tree.children(nid))
            for nid in tree.nodes_at(u - 1)
        }
    return vals


def dict_evaluate(op: ExpectationOperator, tree: ScenarioTree, q: Slice, t: int) -> dict:
    """E(q | F_t) by the per-node fold, one scalar exp and log per node,
    rounded as numpy rounds them (see the kernel's rounding contract)."""
    vals = {n: q[n] for n in tree.nodes_at(q.time)}
    if op.kind == "linear":
        return fsum_fold(tree, vals, q.time, t)
    transformed = {n: float(np.exp(-v / op.gamma)) for n, v in vals.items()}
    folded = fsum_fold(tree, transformed, q.time, t)
    return {n: -op.kappa * float(np.log(m)) for n, m in folded.items()}


def dict_bellman_value(vf: BellmanAdditive, market: MarketModel, policy: Policy, t: int) -> dict:
    """The Bellman recursion with one math.fsum per node."""
    tree = market.tree
    vals = {n: 0.0 for n in tree.nodes_at(tree.horizon)}
    for u in range(tree.horizon - 1, t - 1, -1):
        alloc = policy.allocations.at(u)
        vals = {
            n: vf.payoff(n, alloc[n])
            + math.fsum(tree.node(c).branch_prob * vals[c] for c in tree.children(n))
            for n in tree.nodes_at(u)
        }
    return vals


def per_time_member_value(vf, market: MarketModel, x, t: int, wealth_cache: dict) -> Slice:
    """The time-t values of a policy, (N_t,), or of a space, (P, N_t), by the
    per-time path: the Bellman recursion rerun from T-1 down to t with one
    payoff call per (member, node), else the operator on the wealth at t+m
    (Simple) or T, read through the `.key` wealth memo."""
    tree = market.tree
    T = tree.horizon
    if isinstance(vf, BellmanAdditive):
        members = (len(x),) if isinstance(x, PolicySpace) else ()
        vals = np.zeros(members + (len(tree.sorted_nodes_at(T)),))
        for u in range(T - 1, t - 1, -1):
            level, a = tree.sorted_nodes_at(u), x.levels[u]
            rows = a.reshape(-1, a.shape[-1]).tolist()  # member by member, each in node order
            nodes = level * (len(rows) // len(level))
            payoffs = [vf.payoff(n, tuple(row)) for n, row in zip(nodes, rows)]
            vals = np.array(payoffs, dtype=float).reshape(a.shape[:-1]) + tree.fold(u + 1, vals)
        return Slice(t, tree.sorted_nodes_at(t), vals)
    wealth = wealth_cache.get(x.key)
    if wealth is None:
        wealth = wealth_cache[x.key] = wealth_process(market, x)
    s = min(t + vf.m, T) if isinstance(vf, SimpleHorizon) else T
    return evaluate(vf.op, tree, wealth.at(s), t)


def truncation_order(vf, members: tuple[Policy, ...], t: int) -> list[tuple]:
    """The tie-break order by truncating every member: for SimpleHorizon,
    (first index with an equal truncation at t+m, 0 if the member equals
    its truncation else 1, index); otherwise the index."""
    if not isinstance(vf, SimpleHorizon):
        return [(i,) for i in range(len(members))]
    first_seen: dict[bytes, int] = {}
    order = []
    for i, p in enumerate(members):
        trunc_key = truncate(p, t + vf.m).key
        order.append((first_seen.setdefault(trunc_key, i), 0 if p.key == trunc_key else 1, i))
    return order


def loop_maximize(vf, market: MarketModel, feasible: PolicySpace, t: int, tol: float) -> Policy:
    """The uniform maximiser by per-node argmax over node maps, pasting of
    the per-node winners, and a dominating-member fallback."""
    tree = market.tree
    members = feasible.policies
    slices = [value(vf, market, p, t) for p in members]
    level = tree.nodes_at(t)
    order = truncation_order(vf, members, t)
    best, chosen = {}, {}
    for n in level:
        top = max(sl[n] for sl in slices)
        best[n] = top
        chosen[n] = min(
            (i for i, sl in enumerate(slices) if sl[n] >= top - tol), key=order.__getitem__
        )
    picked = set(chosen.values())
    if len(picked) == 1:
        return members[picked.pop()]
    winners = sorted(picked)
    pasted = members[winners[0]]
    if all(pasted.agrees_before(members[j], t) for j in winners[1:]):
        for j in winners[1:]:
            event = Event(t, frozenset(n for n in level if chosen[n] == j))
            pasted = paste(tree, event, members[j], pasted)
        keys = {p.key: p for p in members}
        if pasted.key in keys:
            return keys[pasted.key]
    for i, sl in enumerate(slices):
        if all(sl[n] >= best[n] - tol for n in level):
            return members[i]
    raise NoUniformMaximizer("no member dominates")


def loop_monotonicity(vf, market: MarketModel, space: PolicySpace, tol: float):
    """The monotonicity sweep pair by pair over each member's own value
    slices: (ok, pairs checked, None or (t, s, i, j, node)) for the first
    breach in (t, s, pair) order."""
    tree = market.tree
    members = space.policies
    vals = [[value(vf, market, p, t).values for t in range(tree.horizon)] for p in members]

    def dominates(i: int, j: int, u: int) -> bool:
        return all(vals[i][u][n] - vals[j][u][n] >= -tol for n in tree.nodes_at(u))

    pairs = 0
    for t in range(1, tree.horizon):
        agreeing = [
            (i, j)
            for i in range(len(members))
            for j in range(len(members))
            if i != j and members[i].agrees_before(members[j], t)
        ]
        for s in range(t):
            pairs += len(agreeing)
            for i, j in agreeing:
                if dominates(i, j, t) and not dominates(i, j, s):
                    level = tree.nodes_at(s)
                    node = next(n for n in level if vals[i][s][n] < vals[j][s][n] - tol)
                    return False, pairs, (t, s, i, j, node)
    return True, pairs, None


def outer_difference_dominance(values: np.ndarray, tol: float) -> np.ndarray:
    """dom[i, j]: row i of the (P, N) values is at least row j minus tol at
    every column, from one P x P float difference per column."""
    return np.all([c[:, None] - c[None, :] >= -tol for c in values.T], axis=0)


def dense_monotonicity(vf, market: MarketModel, space: PolicySpace, tol: float):
    """The monotonicity sweep over P x P float dominance matrices, one per
    time from `outer_difference_dominance`: (ok, pairs checked, None or
    (t, s, i, j, node)) for the first breach in (t, s, pair) order."""
    tree = market.tree
    T = tree.horizon
    process = value_process(vf, market, space, range(T))
    dom = [outer_difference_dominance(process[t], tol) for t in range(T)]
    pairs = 0
    for t in range(1, T):
        classes = prefix_classes(space, t)
        agree = classes[:, None] == classes[None, :]
        np.fill_diagonal(agree, False)
        agreeing = int(agree.sum())
        for s in range(t):
            pairs += agreeing
            breach = agree & dom[t] & ~dom[s]
            if breach.any():
                i, j = map(int, np.argwhere(breach)[0])
                below = process[s][i] < process[s][j] - tol
                node = next(n for n in tree.nodes_at(s) if below[tree.row(n)])
                return False, pairs, (t, s, i, j, node)
    return True, pairs, None


def loop_truncation_closed(space: PolicySpace, m: int):
    """Truncation closure by one conditional space per distinct past:
    (True, None) or (False, (t, past, member)) for the first member whose
    truncation at t+m leaves its conditional space."""
    for t in range(len(space.nodes)):
        seen = set()
        for past in space.policies:
            if past.prefix(t) in seen:
                continue
            seen.add(past.prefix(t))
            cond = oracle_conditional_space(space, t, past)
            keys = {p.key for p in cond.policies}
            for member in cond.policies:
                if truncate(member, t + m).key not in keys:
                    return False, (t, past, member)
    return True, None


# ------------------------------------------ Policy/PolicySpace oracles


def truncated_key(policy: Policy, cutoff: int) -> bytes:
    """The key of truncate(policy, cutoff) without building it: the prefix
    before the cutoff, then the zero bytes of +0.0 (a -0.0 tail differs).
    A cutoff past the last decision time keeps the whole policy."""
    prefix = policy.prefix(min(cutoff, len(policy.levels)))
    return prefix + bytes(len(policy.key) - len(prefix))


def oracle_prefix_classes(policies: tuple[Policy, ...], t: int) -> list[int]:
    """For each policy, the index of the first policy with the same prefix(t);
    a t past the last decision time compares whole keys."""
    first: dict[bytes, int] = {}
    return [first.setdefault(p.prefix(min(t, len(p.levels))), i) for i, p in enumerate(policies)]


def oracle_conditional_space(space: PolicySpace, t: int, past: Policy | None) -> PolicySpace:
    """The members agreeing with `past` before t, as a new space."""
    if t <= 0:
        return space
    prefix = past.prefix(t)
    members = [p for p in space.policies if p.prefix(t) == prefix]
    if not members:
        raise EmptyConditionalSpace(
            f"no member of {space.label!r} agrees with {past.label!r} before t={t}"
        )
    return PolicySpace.from_policies(tuple(members), label=f"{space.label}|t{t}")


def oracle_feasible_set(vf, space: PolicySpace, t: int, past: Policy | None) -> PolicySpace:
    """The conditional space, for ModifiedHorizon each prefix class at t+m
    truncated once, as a new space."""
    cond = oracle_conditional_space(space, t, past)
    if isinstance(vf, ModifiedHorizon):
        cut = t + vf.m
        classes = oracle_prefix_classes(cond.policies, cut)
        return PolicySpace.from_policies(
            tuple(truncate(p, cut) for i, p in enumerate(cond.policies) if classes[i] == i),
            label=f"{cond.label}|cut{cut}",
        )
    return cond


def oracle_stopping_rules(tree: ScenarioTree) -> list[frozenset[str]]:
    """Every stop rule as its set of first-stop nodes, in the order of the
    nested loops the engine's enumeration follows: at each node "stop
    here" first, then the children's rules with the first child varying
    slowest. Built level by level from T up to the root, so that a long
    chain does not recurse."""
    rules: dict[str, list[frozenset[str]]] = {}
    for t in range(tree.horizon, -1, -1):
        for n in tree.nodes_at(t):
            children = tree.children(n)
            combos = [frozenset()] if children else []
            for c in children:
                below = rules.pop(c)
                combos = [a | b for a in combos for b in below]
            rules[n] = [frozenset((n,))] + combos
    return rules[tree.root]


def first_stop_sets(tree: ScenarioTree, first: np.ndarray) -> list[frozenset[str]]:
    """The rows of an `enumerate_stopping_times` matrix read as node-id
    sets: its columns are the sorted node ids of times 0..T in turn."""
    ids = [n for t in range(tree.horizon + 1) for n in tree.sorted_nodes_at(t)]
    assert first.shape[1:] == (len(ids),) and first.dtype == bool
    return [frozenset(ids[c] for c in np.flatnonzero(row)) for row in first]


def oracle_stopping_time_space(tree: ScenarioTree, base: Policy) -> PolicySpace:
    """stopping_time_space member by member: one Policy per stop rule of
    `oracle_stopping_rules`, its allocations zeroed at and below the rule's
    first-stop nodes, and the first member of each key kept. A node is
    stopped when the rule names it or a node above it."""
    path = {}  # each node and the nodes above it, one walk up its parents
    for n in tree.node_ids:
        up, node = [n], tree.node(n)
        while node.parent is not None:
            up.append(node.parent)
            node = tree.node(node.parent)
        path[n] = frozenset(up)
    kept, seen = [], set()
    for rule in oracle_stopping_rules(tree):
        levels = []
        for ids, a in zip(base.nodes, base.levels):
            stopped = [not rule.isdisjoint(path[n]) for n in ids]
            levels.append(np.where(np.array(stopped, dtype=bool)[:, None], 0.0, a))
        p = Policy(base.nodes, tuple(levels), f"{base.label}|stop@{','.join(sorted(rule))}")
        if p.key not in seen:
            seen.add(p.key)
            kept.append(p)
    return PolicySpace.from_policies(kept, label=f"stopping({base.label})")


def feasible_space(vf, space: PolicySpace, t: int, rows) -> PolicySpace:
    """The members that feasible-set rows stand for, truncated at t+m for
    ModifiedHorizon, as a new space."""
    members = (space.policies[r] for r in rows)
    if isinstance(vf, ModifiedHorizon):
        members = (truncate(p, t + vf.m) for p in members)
    return PolicySpace.from_policies(tuple(members))


def oracle_selection_keys(vf, members: tuple[Policy, ...], t: int) -> list[tuple]:
    """The tie-break order by keys: for SimpleHorizon (first index with the
    same prefix at t+m, 0 if the member equals its truncation else 1,
    index); otherwise the index."""
    if not isinstance(vf, SimpleHorizon):
        return [(i,) for i in range(len(members))]
    cut = t + vf.m
    classes = oracle_prefix_classes(members, cut)
    return [
        (cls, 0 if p.key == truncated_key(p, cut) else 1, i)
        for i, (cls, p) in enumerate(zip(classes, members))
    ]


def oracle_maximize(vf, market: MarketModel, feasible: PolicySpace, t: int, tol: float,
                    values: np.ndarray) -> tuple[Policy, Slice]:
    """Per-node argmax over `values`, then the paste of the winners by
    sequential `paste` calls over Event sets, looked up by key, else the
    first dominating member."""
    tree = market.tree
    level = tree.sorted_nodes_at(t)
    members = feasible.policies
    near = values >= values.max(axis=0) - tol
    order = oracle_selection_keys(vf, members, t)
    ranks = np.empty(len(members), dtype=np.intp)
    ranks[sorted(range(len(members)), key=order.__getitem__)] = np.arange(len(members))
    chosen = np.where(near, ranks[:, None], len(members)).argmin(axis=0)
    winners = sorted(set(chosen.tolist()))
    i = winners[0] if len(winners) == 1 else None
    pasted = members[winners[0]]
    if i is None and all(pasted.agrees_before(members[j], t) for j in winners[1:]):
        for j in winners[1:]:
            event = Event(t, frozenset(level[k] for k in np.flatnonzero(chosen == j)))
            pasted = paste(tree, event, members[j], pasted)
        i = {p.key: k for k, p in enumerate(members)}.get(pasted.key)
    if i is None:
        dominating = np.flatnonzero(near.all(axis=1))
        if not dominating.size:
            raise NoUniformMaximizer(
                "per-node argmax pastes to a policy outside the space and no member dominates"
            )
        i = int(dominating[0])
    return members[i], Slice(t, level, values[i])


def oracle_run(vf, market: MarketModel, space: PolicySpace, tol: float = 1e-9):
    """The sequential run over new spaces per decision time, each valued by
    the per-time path: (chosen policies, value slices)."""
    chosen, values, past = [], [], None
    for t in range(market.tree.horizon):
        try:
            feas = oracle_feasible_set(vf, space, t, past)
            vals = per_time_member_value(vf, market, feas, t, {}).array
            x_t, v_t = oracle_maximize(vf, market, feas, t, tol, vals)
        except (EmptyConditionalSpace, NoUniformMaximizer) as exc:
            raise type(exc)(f"{exc} (decision time {t})") from exc
        chosen.append(x_t)
        values.append(v_t)
        past = x_t
    return chosen, values


def _record_trial(verdict: AxiomVerdict, violation: float, example, bound: float) -> None:
    verdict.worst_violation = max(verdict.worst_violation, violation)
    if violation > bound and verdict.counterexample is None:
        verdict.passed = False
        verdict.counterexample = example()


def _oracle_mask(tree: ScenarioTree, sl: Slice, event_time: int, event_nodes) -> Slice:
    inside = [ancestor_at(tree, n, event_time) in event_nodes for n in sl.nodes]
    return Slice(sl.time, sl.nodes, np.where(inside, sl.array, 0.0))


def _oracle_gaps(a: Slice, b: Slice) -> list[float]:
    """a - b nodewise, 0 where the two are equal (also two equal infinities)."""
    return [0.0 if x == y else x - y for x, y in zip(a.array.tolist(), b.array.tolist())]


def _oracle_max_gap(a: Slice, b: Slice) -> float:
    return max(map(abs, _oracle_gaps(a, b)))


def _oracle_bound(tol: float, floor: float, a: Slice, b: Slice) -> float:
    """tol plus 4 ulps of the largest magnitude on either side, or of floor;
    just tol if that magnitude is infinite or NaN."""
    size = max([floor, *map(abs, a.array.tolist() + b.array.tolist())])
    return tol + 4 * math.ulp(size) if math.isfinite(size) else tol


def oracle_axioms_check(
    op: ExpectationOperator, tree: ScenarioTree, trials: int, seed: int, tol: float = 1e-9
) -> AxiomReport:
    """The axiom suite one trial at a time, eight `evaluate` calls per trial:
    the same draws, report and counterexamples as `axioms_check`."""
    rng = random.Random(seed)
    report = AxiomReport(trials=trials, seed=seed, tol=tol)
    scale = 3.0 * op.gamma if op.kind == "entropic" else 10.0
    floor = op.kappa if op.kind == "entropic" else 0.0
    T = tree.horizon
    ties = 0

    for trial in range(trials):
        s = rng.randint(0, T)
        t = rng.randint(0, s)
        draws = {n: rng.uniform(-scale, scale) for n in tree.nodes_at(s)}
        q = Slice.from_map(s, draws)

        q2 = Slice.from_map(s, {n: v - rng.uniform(0.0, scale / 2) for n, v in draws.items()})
        e_q = evaluate(op, tree, q, t)
        e_q2 = evaluate(op, tree, q2, t)
        _record_trial(
            report.monotonicity,
            max(_oracle_gaps(e_q2, e_q)),
            lambda: {"trial": trial, "s": s, "t": t, "q": q.values, "q_prime": q2.values},
            _oracle_bound(tol, floor, e_q2, e_q),
        )
        if _oracle_max_gap(e_q, e_q2) <= tol:
            ties += 1

        c = Slice.from_map(t, {n: rng.uniform(-scale, scale) for n in tree.nodes_at(t)})
        e_c = evaluate(op, tree, c, t)
        _record_trial(
            report.constant_invariance,
            _oracle_max_gap(e_c, c),
            lambda: {"trial": trial, "t": t, "q": c.values, "result": e_c.values},
            _oracle_bound(tol, floor, e_c, c),
        )

        u = rng.randint(t, s)
        nested = evaluate(op, tree, evaluate(op, tree, q, u), t)
        direct = evaluate(op, tree, q, t)
        _record_trial(
            report.recursivity,
            _oracle_max_gap(nested, direct),
            lambda: {
                "trial": trial,
                "s": s,
                "u": u,
                "t": t,
                "q": q.values,
                "nested": nested.values,
                "direct": direct.values,
            },
            _oracle_bound(tol, floor, nested, direct),
        )

        event_nodes = frozenset(n for n in tree.nodes_at(t) if rng.random() < 0.5)
        lhs = evaluate(op, tree, _oracle_mask(tree, q, t, event_nodes), t)
        rhs = _oracle_mask(tree, evaluate(op, tree, q, t), t, event_nodes)
        _record_trial(
            report.zero_one_law,
            _oracle_max_gap(lhs, rhs),
            lambda: {
                "trial": trial,
                "s": s,
                "t": t,
                "q": q.values,
                "event": sorted(event_nodes),
                "lhs": lhs.values,
                "rhs": rhs.values,
            },
            _oracle_bound(tol, floor, lhs, rhs),
        )

    if ties:
        report.monotonicity.note = (
            f"strictness not enforced: {ties} trial(s) produced equal values for distinct slices"
        )
    return report
