"""Built-in demonstration instances, keyed by the names the CLI accepts."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .files import load_market
from .market import MarketModel, Policy, PolicySpace, constant_policy, stopping_time_space


@dataclass(frozen=True)
class ExampleInstance:
    name: str
    market: MarketModel
    base_policy: Policy

    @cached_property
    def space(self) -> PolicySpace:
        """The stopping-time space over the base policy, built on first read."""
        return stopping_time_space(self.market.tree, self.base_policy)


def three_period_market_spec() -> dict:
    """File-shaped description of the regression instance: a three-period
    non-recombining binomial tree with even branch odds, one asset starting
    at 20 with increments (+1, -0.1), (+0.1, -10), (+100, -0.1), and zero
    initial wealth."""
    increments = [(1.0, -0.1), (0.1, -10.0), (100.0, -0.1)]
    nodes = [{"id": "r", "time": 0, "parent": None, "p": None}]
    prices = {"r": [20.0]}
    level = ["r"]
    for t, (up, down) in enumerate(increments):
        nxt = []
        for nid in level:
            for tag, move in (("u", up), ("d", down)):
                cid = nid + tag
                nodes.append({"id": cid, "time": t + 1, "parent": nid, "p": 0.5})
                prices[cid] = [prices[nid][0] + move]
                nxt.append(cid)
        level = nxt
    return {"T": 3, "nodes": nodes, "d": 1, "v0": 0.0, "prices": prices}


def _three_period() -> ExampleInstance:
    market = load_market(three_period_market_spec())
    base = constant_policy(market.tree, market.num_assets, 1.0, "hold")
    return ExampleInstance("s4", market, base)


_BUILDERS = {"s4": _three_period}


def example_names() -> tuple[str, ...]:
    return tuple(sorted(_BUILDERS))


def builtin_example(name: str) -> ExampleInstance:
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise ValueError(f"unknown example {name!r}; available: {', '.join(example_names())}") from None
    return builder()
