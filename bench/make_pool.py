"""Build stop_d4_pool.json, the market pool the stop-d4 workload draws from.

    python3 bench/make_pool.py

How much work a stop-d4 market costs depends on where the chosen
policies stop: a run that stops at the root maximises over about 680
members in all, one that continues over 1,355 to 2,234. Twelve markets
drawn freely changed a pass's work by about 30% from seed to seed.

So each slot (operator i mod 4, m = 1 + i mod 3) scans CANDIDATES
market seeds and records each one's work signature: the members
maximised over by the simple, modified, Terminal and Bellman runs. It keeps
only markets on which the simple, Terminal and Bellman runs continue past
the root, so the runs paste over large conditional spaces. Among those it
takes the signature with the most neighbours within TOLERANCE in every
component, and pools the seeds of those neighbours whose Terminal value
is monotone. A benchmark seed then picks one pool seed per slot: the
markets differ between seeds, the work of a pass barely does.
"""

from __future__ import annotations

import json
import sys

from worker import import_library

MODES = ("simple", "modified", "terminal", "bellman")
ROOT_ONLY = 680  # members maximised over by a run that stops at the root
TOLERANCE = 0.03
CANDIDATES = 150  # market seeds scanned per slot


def signature(market, space, value_functions, tracing, hr) -> tuple[int, ...]:
    sig = []
    for mode in MODES:
        tracer = tracing.Tracer()
        tracer.install()
        try:
            hr.run_policy_choice(value_functions[mode], market, space)
        finally:
            tracer.uninstall()
        sig.append(int(tracer.counts["horizon._maximize.members"]))
    return tuple(sig)


def near(a: tuple, b: tuple) -> bool:
    return all(abs(x - y) <= TOLERANCE * y for x, y in zip(a, b))


def main() -> int:
    import_library()
    import horizonrisk as hr
    import tracing
    import workloads

    slots = []
    for i in range(workloads.STOP_SLOTS):
        opname, m = workloads.stop_slot(i)
        found: dict[int, tuple] = {}
        for k in range(CANDIDATES):
            market_seed = workloads.STOP_SEED_STRIDE * i + k
            market, _, space, value_functions = workloads.stop_market(market_seed, opname, m)
            sig = signature(market, space, value_functions, tracing, hr)
            if min(sig[0], sig[2], sig[3]) > ROOT_ONLY:
                found[market_seed] = sig
        if not found:
            raise SystemExit(f"slot {i}: no candidate continues past the root")
        target = max(found.values(), key=lambda c: sum(near(s, c) for s in found.values()))
        seeds = []
        for market_seed, sig in found.items():
            if not near(sig, target):
                continue
            market, _, space, _ = workloads.stop_market(market_seed, opname, m)
            op = workloads.OPERATORS[opname].build()
            if hr.intertemporal_monotonicity(hr.Terminal(op), market, space).ok:
                seeds.append(market_seed)
        print(f"slot {i} {opname} m={m}: {len(seeds)} of {CANDIDATES} near {target}", flush=True)
        slots.append(
            {"operator": opname, "m": m, "signature": list(target), "market_seeds": seeds}
        )
    workloads.POOL_PATH.write_text(json.dumps({"slots": slots}, indent=1) + "\n")
    print(workloads.POOL_PATH)
    return 0


if __name__ == "__main__":
    sys.exit(main())
