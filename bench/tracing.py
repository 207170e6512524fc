"""Per-layer tracing of horizonrisk from outside the library.

`Tracer.install` replaces each traced entry point by a wrapper in every
horizonrisk module that bound it (`from .market import wealth_process`
binds a second name in `horizon`), and `uninstall` puts the originals
back. A span wrapper records calls, self time (span time minus the time of
the traced spans it contains) and the counts listed in LAYER_METRICS. A
count-only wrapper opens no span, so its time stays with its caller.
"""

from __future__ import annotations

import os
import sys
from collections import defaultdict
from collections.abc import Mapping
from time import perf_counter

# (name, unit, better) of every per-layer metric, in report order; calls,
# self time and counts are per pass over the workload's op list
LAYER_METRICS = [
    ("tree.conditional_expectation.calls", "calls/pass", "lower"),
    ("tree.conditional_expectation.self_s", "s/pass", "lower"),
    ("tree.conditional_expectation.nodes", "nodes/pass", "lower"),
    ("tree.build_tree.self_s", "s/pass", "lower"),
    ("expectations.evaluate.calls", "calls/pass", "lower"),
    ("expectations.evaluate.self_s", "s/pass", "lower"),
    ("expectations.evaluate.entropic_frac", "ratio", "lower"),
    ("expectations.axioms_check.self_s", "s/pass", "lower"),
    ("market.wealth_process.calls", "calls/pass", "lower"),
    ("market.wealth_process.self_s", "s/pass", "lower"),
    ("market.wealth_process.nodes", "nodes/pass", "lower"),
    ("market.stopping_time_space.calls", "calls/pass", "lower"),
    ("market.stopping_time_space.self_s", "s/pass", "lower"),
    ("market.stopping_time_space.members", "members/pass", "lower"),
    ("market.enumerate_stopping_times.self_s", "s/pass", "lower"),
    ("market.PolicySpace.calls", "calls/pass", "lower"),
    ("market.PolicySpace.self_s", "s/pass", "lower"),
    ("market.PolicySpace.kept_ratio", "ratio", "higher"),
    ("market.truncate.calls", "calls/pass", "lower"),
    ("market.truncate.self_s", "s/pass", "lower"),
    ("market.conditional_space.self_s", "s/pass", "lower"),
    ("horizon._maximize.calls", "calls/pass", "lower"),
    ("horizon._maximize.self_s", "s/pass", "lower"),
    ("horizon._maximize.members", "members/pass", "lower"),
    ("horizon._selection_keys.self_s", "s/pass", "lower"),
    ("horizon.feasible_set.self_s", "s/pass", "lower"),
    ("horizon.run_policy_choice.self_s", "s/pass", "lower"),
    ("horizon.wealth_cache.hit_ratio", "ratio", "higher"),
    ("consistency.intertemporal_monotonicity.self_s", "s/pass", "lower"),
    ("consistency.intertemporal_monotonicity.pairs", "pairs/pass", "lower"),
    ("consistency.check_time_consistency.self_s", "s/pass", "lower"),
    ("consistency.check_dependability.self_s", "s/pass", "lower"),
    ("consistency.acceptability_check.self_s", "s/pass", "lower"),
    ("files.load_market.self_s", "s/pass", "lower"),
    ("files.load_space.self_s", "s/pass", "lower"),
    ("files.bytes_read", "B/pass", "lower"),
    ("cli.main.calls", "calls/pass", "lower"),
    ("cli.main.self_s", "s/pass", "lower"),
    ("cli.bytes_out", "B/pass", "lower"),
    ("instances.builtin_example.self_s", "s/pass", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
]


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _fold_nodes(args, kwargs, result, pre):
    tree, q, t = _arg(args, kwargs, 0, "tree"), _arg(args, kwargs, 1, "q"), _arg(args, kwargs, 2, "t")
    return {"nodes": sum(len(tree.nodes_at(u)) for u in range(t + 1, q.time + 1))}


def _entropic(args, kwargs, result, pre):
    return {"entropic": 1 if _arg(args, kwargs, 0, "op").kind == "entropic" else 0}


def _wealth_nodes(args, kwargs, result, pre):
    return {"nodes": len(_arg(args, kwargs, 0, "market").tree)}


def _members(args, kwargs, result, pre):
    return {"members": len(result)}


def _feasible_members(args, kwargs, result, pre):
    return {"members": len(_arg(args, kwargs, 2, "feasible"))}


def _pairs(args, kwargs, result, pre):
    return {"pairs": result.pairs_checked}


def _space_input(args, kwargs):
    return len(args[0].policies)


def _space_kept(args, kwargs, result, pre):
    return {"offered": pre, "kept": len(args[0].policies)}


def _stdout_position(args, kwargs):
    try:
        return sys.stdout.tell()
    except (AttributeError, OSError, ValueError):
        return None


def _stdout_bytes(args, kwargs, result, pre):
    if pre is None:
        return {}
    return {"bytes_out": sys.stdout.tell() - pre}


def _bytes_read(args, kwargs, result, pre):
    source = _arg(args, kwargs, 0, "source")
    return {} if isinstance(source, Mapping) else {"bytes_read": os.path.getsize(source)}


# (module, attribute, counter, pre-call hook); each becomes a span
SPANS = [
    ("tree", "conditional_expectation", _fold_nodes, None),
    ("tree", "build_tree", None, None),
    ("expectations", "evaluate", _entropic, None),
    ("expectations", "axioms_check", None, None),
    ("market", "wealth_process", _wealth_nodes, None),
    ("market", "stopping_time_space", _members, None),
    ("market", "enumerate_stopping_times", None, None),
    ("market", "truncate", None, None),
    ("market", "conditional_space", None, None),
    ("horizon", "_maximize", _feasible_members, None),
    ("horizon", "_selection_keys", None, None),
    ("horizon", "feasible_set", None, None),
    ("horizon", "run_policy_choice", None, None),
    ("consistency", "intertemporal_monotonicity", _pairs, None),
    ("consistency", "check_time_consistency", None, None),
    ("consistency", "check_dependability", None, None),
    ("consistency", "acceptability_check", None, None),
    ("files", "load_market", None, None),
    ("files", "load_space", None, None),
    ("cli", "main", _stdout_bytes, _stdout_position),
    ("instances", "builtin_example", None, None),
]


class Tracer:
    """Spans and counts at the boundaries of horizonrisk's modules.

    Calls, self time and counts accumulate for as long as the wrappers are
    installed. Span records (id, parent id, name, start, end, op key) are
    kept in memory up to `keep_spans`; later spans are only counted.
    """

    def __init__(self, keep_spans: int = 0):
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.spans: list[tuple] = []
        self.keep_spans = keep_spans
        self.spans_dropped = 0
        self.op_key: str | None = None
        self._stack: list[list] = []  # open spans: [name, child seconds, span id]
        self._next_id = 0
        self._member_depth = 0
        self._restore: list[tuple[object, str, object]] = []

    # ---------------------------------------------------------- wrappers

    def _span(self, name, fn, counter, pre_hook):
        tracer = self

        def wrapper(*args, **kwargs):
            pre = pre_hook(args, kwargs) if pre_hook else None
            stack = tracer._stack
            tracer._next_id += 1
            frame = [name, 0.0, tracer._next_id]
            parent_id = stack[-1][2] if stack else None
            if name == "market.wealth_process" and tracer._member_depth:
                tracer.counts["wealth_process.under_member_value"] += 1
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                tracer.calls[name] += 1
                tracer.self_s[name] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                if len(tracer.spans) < tracer.keep_spans:
                    tracer.spans.append((frame[2], parent_id, name, start, end, tracer.op_key))
                else:
                    tracer.spans_dropped += 1
            if counter:
                for key, amount in counter(args, kwargs, result, pre).items():
                    tracer.counts[f"{name}.{key}"] += amount
            return result

        return wrapper

    def _member_value(self, fn):
        from horizonrisk.horizon import BellmanAdditive

        tracer = self

        def wrapper(vf, *args, **kwargs):
            if not isinstance(vf, BellmanAdditive):
                tracer.counts["member_value.non_bellman"] += 1
            tracer._member_depth += 1
            try:
                return fn(vf, *args, **kwargs)
            finally:
                tracer._member_depth -= 1

        return wrapper

    def _as_mapping(self, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            for key, amount in _bytes_read(args, kwargs, None, None).items():
                tracer.counts[f"files.{key}"] += amount
            return fn(*args, **kwargs)

        return wrapper

    # ---------------------------------------------------------- install

    def install(self) -> None:
        from horizonrisk import files, horizon, market

        if self._restore:
            raise RuntimeError("tracer is already installed")
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == "horizonrisk" or n.startswith("horizonrisk."))
        ]
        replacements = []
        for module, attr, counter, pre_hook in SPANS:
            original = getattr(sys.modules[f"horizonrisk.{module}"], attr)
            replacements.append(
                (original, self._span(f"{module}.{attr}", original, counter, pre_hook))
            )
        replacements.append((horizon._member_value, self._member_value(horizon._member_value)))
        replacements.append((files._as_mapping, self._as_mapping(files._as_mapping)))
        for original, wrapper in replacements:
            for module in modules:
                for name, bound in list(vars(module).items()):
                    if bound is original:
                        setattr(module, name, wrapper)
                        self._restore.append((module, name, original))

        cls = market.PolicySpace
        post_init = cls.__post_init__
        cls.__post_init__ = self._span("market.PolicySpace", post_init, _space_kept, _space_input)
        self._restore.append((cls, "__post_init__", post_init))

    def uninstall(self) -> None:
        while self._restore:
            owner, name, original = self._restore.pop()
            setattr(owner, name, original)

    # ---------------------------------------------------------- metrics

    def layer_metrics(self, passes: int, overhead_frac: float) -> dict[str, float]:
        """Every LAYER_METRICS value, calls, times and counts per pass."""

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        c = self.counts
        values = {}
        for name, _unit, _better in LAYER_METRICS:
            layer, _, stat = name.rpartition(".")
            if name == "trace.overhead_frac":
                values[name] = overhead_frac
            elif stat == "calls":
                values[name] = self.calls[layer] / passes
            elif stat == "self_s":
                values[name] = self.self_s[layer] / passes
            elif name == "expectations.evaluate.entropic_frac":
                values[name] = ratio(c["expectations.evaluate.entropic"], self.calls[layer])
            elif name == "market.PolicySpace.kept_ratio":
                values[name] = ratio(c["market.PolicySpace.kept"], c["market.PolicySpace.offered"])
            elif name == "horizon.wealth_cache.hit_ratio":
                non_bellman = c["member_value.non_bellman"]
                misses = c["wealth_process.under_member_value"]
                values[name] = 1.0 - misses / non_bellman if non_bellman else 0.0
            elif name == "cli.bytes_out":
                values[name] = c["cli.main.bytes_out"] / passes
            else:
                values[name] = c[name] / passes
        return values
