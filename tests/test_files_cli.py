import contextlib
import hashlib
import io
import json
import math
import os
import random
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import horizonrisk
from horizonrisk import (
    HorizonRiskError,
    builtin_example,
    load_market,
    load_policy,
    load_space,
    load_tree,
)
from horizonrisk.cli import main
from horizonrisk.files import load_payoff
from horizonrisk.instances import three_period_market_spec


@pytest.fixture()
def market_file(tmp_path):
    path = tmp_path / "market.json"
    path.write_text(json.dumps(three_period_market_spec()))
    return str(path)


@pytest.fixture()
def hold_policy_entry():
    return s4_documents()["policy"]


def s4_documents() -> dict[str, dict]:
    """The s4 market, its stopping-time space over always-hold, the
    always-hold policy and a Bellman payoff, as the CLI reads them."""
    market = three_period_market_spec()
    decisions = [n["id"] for n in market["nodes"] if n["time"] < market["T"]]
    hold = {"label": "hold", "alloc": {n: [1.0] for n in decisions}}
    docs = {
        "market": market,
        "space": {"label": "stopping(hold)", "stopping_space_of": hold},
        "policy": hold,
        "payoff": {"coefficients": {n: [0.5] for n in decisions}},
    }
    return json.loads(json.dumps(docs))  # no part shares a list with another


def two_asset_documents() -> dict[str, dict]:
    """s4_documents with a second asset: a constant price 1, held at 0."""
    docs = s4_documents()
    docs["market"]["d"] = 2
    for section, extra in (
        (docs["market"]["prices"], 1.0),
        (docs["space"]["stopping_space_of"]["alloc"], 0.0),
        (docs["policy"]["alloc"], 0.0),
        (docs["payoff"]["coefficients"], 0.0),
    ):
        for vec in section.values():
            vec.append(extra)
    return docs


def write_documents(docs: dict, workdir: Path) -> dict[str, str]:
    paths = {}
    for part, doc in docs.items():
        paths[part] = str(workdir / f"s4-{part}.json")
        Path(paths[part]).write_text(json.dumps(doc, sort_keys=True))
    return paths


S4_FLAGS = {
    "linear": ["--operator", "linear"],
    "entropic10": ["--operator", "entropic", "--gamma", "10"],
    "paper10": ["--paper10"],
}
#: every op of bench/reference/s4-cli.json
S4_REFERENCE_KEYS = [
    *(f"run:{mode}:{op}" for op in S4_FLAGS for mode in ("simple", "modified", "terminal", "bellman")),
    *(f"{command}:{op}" for op in S4_FLAGS for command in ("acceptability", "check_axioms")),
    *(f"{op}:paper10:files" for op in ("run:modified", "acceptability", "check_axioms")),
]


def _s4_reference_argv(key: str, workdir: Path) -> list[str]:
    """The argv of an s4-cli reference op. A ':files' op reads the s4
    market, space and policy from files written to workdir; the others
    take --example s4. check-axioms takes the benchmark's default seed."""
    command, *mode, op = key.removesuffix(":files").split(":")
    command = command.replace("_", "-")
    if key.endswith(":files"):
        paths = write_documents(s4_documents(), workdir)
        source = {
            "run": ["--market", paths["market"], "--space", paths["space"]],
            "acceptability": ["--market", paths["market"], "--policy", paths["policy"]],
            "check-axioms": ["--tree", paths["market"]],
        }[command]
    else:
        source = ["--example", "s4"]
    seed = ["--seed", str(random.Random(0).randrange(10**6))] if command == "check-axioms" else []
    mode = ["--mode", *mode] if mode else []
    return [command, *source, *mode, *S4_FLAGS[op], *seed, "--format", "structured"]


#: payoff coefficients that are refused, and the node each error names
BAD_PAYOFFS = [
    ({"r": [1.0, 5.0], "ru": []}, "'r'"),
    ({"r": [1.0], "ru": [1.0]}, "'rd'"),
    ({"r": [1.0], "ru": [1.0], "rd": [float("nan")]}, "'rd'"),
    ({"zz": [1.0]}, "'zz'"),
]


class TestLoaders:
    def test_market_round_trip(self, market_file):
        market = load_market(market_file)
        assert market.tree.horizon == 3
        assert market.num_assets == 1
        assert market.initial_wealth == 0.0
        assert market.prices.at(0)["r"] == (20.0,)
        assert market.prices.at(3)["ruuu"] == (20.0 + 1 + 0.1 + 100,)

    def test_tree_loader_rejects_bad_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ValueError):
            load_tree(str(bad))

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            load_market(str(tmp_path / "absent.json"))

    def test_unknown_example_rejected(self):
        with pytest.raises(ValueError, match="unknown example 'nope'; available: s4"):
            builtin_example("nope")

    def test_example_space_is_built_on_first_read(self):
        example = builtin_example("s4")
        assert "space" not in vars(example)
        assert len(example.space) == 26
        assert example.space is vars(example)["space"]

    def test_missing_price_rejected(self, tmp_path):
        spec = three_period_market_spec()
        del spec["prices"]["ruu"]
        with pytest.raises(ValueError):
            load_market(spec)

    @pytest.mark.parametrize("field", ["price", "v0"])
    def test_non_finite_market_numbers_rejected(self, field):
        spec = three_period_market_spec()
        if field == "price":
            spec["prices"]["rud"] = [float("nan")]
        else:
            spec["v0"] = float("inf")
        with pytest.raises(ValueError, match="rud" if field == "price" else "wealth"):
            load_market(spec)

    def test_non_finite_allocation_rejected(self, market_file, hold_policy_entry):
        market = load_market(market_file)
        hold_policy_entry["alloc"]["ru"] = [float("nan")]
        with pytest.raises(ValueError, match="'ru'"):
            load_policy(hold_policy_entry, market.tree, 1)

    def test_space_file_with_explicit_policies(self, market_file, hold_policy_entry):
        market = load_market(market_file)
        space = load_space(
            {"policies": [hold_policy_entry, hold_policy_entry]}, market.tree, 1
        )
        assert len(space) == 1  # nodewise duplicates collapse

    def test_space_file_with_stopping_generator(self, market_file, hold_policy_entry):
        market = load_market(market_file)
        space = load_space({"stopping_space_of": hold_policy_entry}, market.tree, 1)
        assert len(space) == 26

    def test_policy_arity_checked(self, market_file, hold_policy_entry):
        market = load_market(market_file)
        hold_policy_entry["alloc"]["r"] = [1.0, 2.0]
        with pytest.raises(ValueError):
            load_policy(hold_policy_entry, market.tree, 1)


class TestRunCommand:
    def test_simple_mode_reports_inconsistency(self, capsys):
        code = main(["run", "--example", "s4", "--paper10", "--mode", "simple"])
        out = capsys.readouterr().out
        assert code == 1
        assert "0.1889" in out
        assert "-2.4926" in out
        assert "INCONSISTENT" in out

    def test_modified_mode_reports_dependability(self, capsys):
        code = main(["run", "--example", "s4", "--paper10", "--mode", "modified"])
        out = capsys.readouterr().out
        assert code == 0
        assert "0.1889" in out
        assert "0.4741" in out
        assert "DEPENDABLE" in out

    def test_operator_preset_spelling(self, capsys):
        # --paper10 is the preset's one spelling: --operator has no paper10 choice
        code = main(["run", "--example", "s4", "--paper10", "--mode", "simple"])
        assert code == 1
        with pytest.raises(SystemExit) as exc:
            main(["run", "--example", "s4", "--operator", "paper10", "--mode", "simple"])
        assert exc.value.code == 2

    def test_singleton_space_is_consistent(self, capsys, tmp_path, market_file, hold_policy_entry):
        space_path = tmp_path / "space.json"
        space_path.write_text(json.dumps({"policies": [hold_policy_entry]}))
        code = main(
            ["run", "--market", market_file, "--space", str(space_path), "--paper10"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "CONSISTENT" in out

    def test_terminal_mode(self, capsys):
        code = main(["run", "--example", "s4", "--mode", "terminal", "--gamma", "10"])
        out = capsys.readouterr().out
        assert code == 0
        assert "CONSISTENT" in out

    def test_bellman_mode_with_payoff_file(self, capsys, tmp_path, market_file, hold_policy_entry):
        inst = builtin_example("s4")
        coeffs = {n: [1.0] for n in inst.market.tree.node_ids}
        payoff_path = tmp_path / "payoff.json"
        payoff_path.write_text(json.dumps({"coefficients": coeffs}))
        space_path = tmp_path / "space.json"
        space_path.write_text(json.dumps({"stopping_space_of": hold_policy_entry}))
        code = main(
            [
                "run", "--market", market_file, "--space", str(space_path),
                "--mode", "bellman", "--payoff", str(payoff_path),
            ]
        )
        assert code == 0
        assert "CONSISTENT" in capsys.readouterr().out

    def test_structured_output_is_deterministic(self, capsys):
        argv = ["run", "--example", "s4", "--paper10", "--mode", "modified",
                "--format", "structured", "--seed", "3"]
        main(argv)
        first = capsys.readouterr().out
        main(argv)
        second = capsys.readouterr().out
        assert first == second
        payload = json.loads(first)
        assert payload["schema_version"] == 1
        assert payload["verdict"] == "DEPENDABLE"
        assert payload["per_time"][0]["planned_value"]["r"] == pytest.approx(
            0.1889, abs=5e-5
        )

    def test_missing_inputs_exit_2(self, capsys):
        assert main(["run"]) == 2
        assert "error" in capsys.readouterr().err

    def test_unreadable_market_exit_2(self, capsys, tmp_path):
        assert main(["run", "--market", str(tmp_path / "x.json"), "--space", "y"]) == 2

    def test_nan_price_exit_2(self, capsys, tmp_path, hold_policy_entry):
        spec = three_period_market_spec()
        spec["prices"]["rdd"] = [float("nan")]
        market_path = tmp_path / "market.json"
        market_path.write_text(json.dumps(spec))
        space_path = tmp_path / "space.json"
        space_path.write_text(json.dumps({"stopping_space_of": hold_policy_entry}))
        code = main(["run", "--market", str(market_path), "--space", str(space_path)])
        assert code == 2
        assert "rdd" in capsys.readouterr().err

    @pytest.mark.parametrize("defect", ["ragged", "d"])
    def test_bad_price_vector_exit_2(self, capsys, tmp_path, hold_policy_entry, defect):
        spec = three_period_market_spec()
        if defect == "ragged":
            spec["prices"]["rud"] = [1.0, 2.0]
        else:
            spec["d"] = 2
        market_path = tmp_path / "market.json"
        market_path.write_text(json.dumps(spec))
        space_path = tmp_path / "space.json"
        space_path.write_text(json.dumps({"stopping_space_of": hold_policy_entry}))
        code = main(["run", "--market", str(market_path), "--space", str(space_path)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1
        assert ("'rud'" if defect == "ragged" else "'r'") in err

    @pytest.mark.parametrize(
        "defect, named",
        [
            ("bare_price", "'rud'"),
            ("bare_allocation", "'ru'"),
            ("null_d", "'d'"),
            ("null_v0", "'v0'"),
            ("prices_number", "'prices'"),
            ("alloc_number", "'alloc'"),
            ("string_nodes", "'nodes'"),
            ("node_without_id", "'id'"),
            ("policies_object", "'policies'"),
            ("stopping_space_of_list", "'stopping_space_of'"),
            ("huge_T", "'T'"),
            ("fractional_T", "'T'"),
            ("huge_time", "'time'"),
            ("fractional_d", "'d'"),
        ],
    )
    def test_malformed_file_shape_exit_2(
        self, capsys, tmp_path, hold_policy_entry, defect, named
    ):
        market = three_period_market_spec()
        space = {"stopping_space_of": hold_policy_entry}
        if defect == "bare_price":
            market["prices"]["rud"] = 20.0
        elif defect == "bare_allocation":
            hold_policy_entry["alloc"]["ru"] = 1.0
        elif defect == "null_d":
            market["d"] = None
        elif defect == "null_v0":
            market["v0"] = None
        elif defect == "prices_number":
            market["prices"] = 5
        elif defect == "alloc_number":
            hold_policy_entry["alloc"] = 5
        elif defect == "string_nodes":
            market["nodes"] = "x"
        elif defect == "node_without_id":
            del market["nodes"][3]["id"]
        elif defect == "policies_object":
            space = {"policies": {"hold": hold_policy_entry}}
        elif defect == "huge_T":
            market["T"] = 1e400
        elif defect == "fractional_T":
            market["T"] = 3.5
        elif defect == "huge_time":
            market["nodes"][3]["time"] = 1e400
        elif defect == "fractional_d":
            market["d"] = 1.9
        else:
            space = {"stopping_space_of": [hold_policy_entry]}
        market_path = tmp_path / "market.json"
        market_path.write_text(json.dumps(market))
        space_path = tmp_path / "space.json"
        space_path.write_text(json.dumps(space))
        code = main(["run", "--market", str(market_path), "--space", str(space_path)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1
        assert named in err

    @pytest.mark.parametrize(
        "part, path, value, named",
        [
            ("market", ("nodes", 1, "p"), [0.5], "'ru'"),
            ("market", ("nodes", 0, "p"), [1.0], "'r'"),
            ("market", ("nodes", 1, "p"), "half", "'ru'"),
            ("market", ("nodes", 1, "p"), True, "'ru'"),
            ("market", ("T",), True, "'T'"),
            ("market", ("d",), True, "'d'"),
            ("market", ("prices", "rud"), "12", "'rud'"),
            ("market", ("prices", "rud"), [True, 1.0], "'rud'"),
            ("space", ("stopping_space_of", "alloc", "ru"), "10", "'ru'"),
            ("space", ("stopping_space_of", "alloc", "ru"), [1.0, True], "'ru'"),
            ("payoff", ("coefficients", "rd"), "12", "'rd'"),
        ],
    )
    def test_one_bad_value_exits_2_naming_it(self, capsys, tmp_path, part, path, value, named):
        # two assets, so that a digit string such as "12" has the length of
        # a price; a boolean is not a number, nor a string a list of digits
        docs = two_asset_documents()
        docs[part] = _replaced(docs[part], path, value)
        paths = write_documents(docs, tmp_path)
        code = main(["run", "--market", paths["market"], "--space", paths["space"],
                     "--mode", "bellman", "--payoff", paths["payoff"]])
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1 and named in err
        if part != "payoff":
            with pytest.raises((ValueError, HorizonRiskError), match=named):
                market = load_market(docs["market"])
                load_space(docs["space"], market.tree, market.num_assets)

    @pytest.mark.parametrize("coefficients, node", BAD_PAYOFFS)
    def test_bad_payoff_file_exit_2(self, capsys, tmp_path, coefficients, node):
        payoff_path = tmp_path / "payoff.json"
        payoff_path.write_text(json.dumps({"coefficients": coefficients}))
        code = main(["run", "--example", "s4", "--mode", "bellman", "--payoff", str(payoff_path)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1
        assert node in err

    @pytest.mark.parametrize("coefficients, node", BAD_PAYOFFS)
    def test_load_payoff_refuses_a_bad_payoff_naming_the_node(self, coefficients, node):
        market = builtin_example("s4").market
        for doc in ({"coefficients": coefficients}, coefficients):
            with pytest.raises(ValueError, match=re.escape(node)):
                load_payoff(doc, market)

    def test_load_payoff_names_one_of_unknown_keys_of_mixed_types(self):
        # a library mapping may mix key types: the first in string order is named
        market = builtin_example("s4").market
        with pytest.raises(ValueError, match="^payoff names 1, which is not a node of the tree$"):
            load_payoff({1: [1.0], "zz": [1.0]}, market)

    def test_load_payoff_reads_every_decision_node_and_ignores_the_horizon(self):
        market = builtin_example("s4").market
        tree = market.tree
        coeffs = {n: [float(i)] for i, n in enumerate(tree.node_ids)}
        got = load_payoff({"coefficients": coeffs}, market)
        decisions = {n for t in range(tree.horizon) for n in tree.nodes_at(t)}
        assert got == {n: tuple(coeffs[n]) for n in decisions}
        assert load_payoff(coeffs, market) == got

    @pytest.mark.parametrize(
        "argv",
        [
            ["check-axioms", "--example", "s4", "--gamma", "nan", "--trials", "20"],
            ["run", "--example", "s4", "--gamma", "inf", "--mode", "terminal"],
            ["run", "--example", "s4", "--kappa", "nan"],
        ],
    )
    def test_non_finite_operator_parameter_exit_2(self, capsys, argv):
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.count("\n") == 1 and "finite" in err

    def test_bad_m_exit_2(self, capsys):
        assert main(["run", "--example", "s4", "--m", "0"]) == 2


class TestCheckAxiomsCommand:
    def test_standard_entropic_passes(self, capsys):
        code = main(
            ["check-axioms", "--example", "s4", "--operator", "entropic",
             "--gamma", "10", "--trials", "200", "--seed", "11"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("PASS") == 4

    def test_base10_preset_fails_with_counterexample(self, capsys):
        code = main(
            ["check-axioms", "--example", "s4", "--paper10", "--trials", "200", "--seed", "11"]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "constant_invariance: FAIL" in out
        assert "recursivity: FAIL" in out
        assert "counterexample" in out

    def test_large_kappa_over_gamma_fails_only_the_axioms_it_breaks(self, capsys):
        # the nested E(q|F_u) reaches |q|/gamma ~ 900: valued, not refused
        code = main(["check-axioms", "--example", "s4", "--gamma", "1", "--kappa", "300"])
        out = capsys.readouterr().out
        assert code == 1
        for name, verdict in (("monotonicity", "PASS"), ("constant_invariance", "FAIL"),
                              ("recursivity", "FAIL"), ("zero_one_law", "PASS")):
            assert f"{name}: {verdict}" in out

    def test_large_gamma_passes_despite_round_off(self, capsys):
        # worst violations of 3.7e-9 are round-off on draws from +-3e7
        code = main(["check-axioms", "--example", "s4", "--gamma", "1e7"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("PASS") == 4

    def test_linear_passes(self, capsys):
        code = main(["check-axioms", "--example", "s4", "--operator", "linear",
                     "--trials", "100"])
        assert code == 0

    def test_tree_file_input(self, capsys, tmp_path):
        tree_path = tmp_path / "tree.json"
        spec = three_period_market_spec()
        tree_path.write_text(json.dumps({"T": spec["T"], "nodes": spec["nodes"]}))
        code = main(["check-axioms", "--tree", str(tree_path), "--operator", "linear",
                     "--trials", "50"])
        assert code == 0

    def test_nan_probability_exit_2(self, capsys, tmp_path):
        spec = three_period_market_spec()
        spec["nodes"][1]["p"] = float("nan")
        tree_path = tmp_path / "tree.json"
        tree_path.write_text(json.dumps({"T": spec["T"], "nodes": spec["nodes"]}))
        assert main(["check-axioms", "--tree", str(tree_path)]) == 2
        assert "ru" in capsys.readouterr().err

    def test_missing_tree_exit_2(self, capsys):
        assert main(["check-axioms", "--operator", "linear"]) == 2

    def test_no_trials_exit_2(self, capsys):
        assert main(["check-axioms", "--example", "s4", "--trials", "0"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == "error: trials must be >= 1, got 0\n"

    def test_text_output_prints_the_note(self, capsys):
        # a tol this wide makes every monotonicity trial a tie
        code = main(["check-axioms", "--example", "s4", "--operator", "linear",
                     "--trials", "5", "--tol", "100"])
        lines = capsys.readouterr().out.splitlines()
        assert code == 0
        assert lines[1:3] == [
            "monotonicity: PASS (worst violation 0.000e+00)",
            "    note: strictness not enforced: "
            "5 trial(s) produced equal values for distinct slices",
        ]

    def test_overflowing_draw_scale_exit_2(self, capsys):
        # draws from +-3 gamma overflow; before, NaN slices passed all four axioms
        code = main(["check-axioms", "--example", "s4", "--operator", "entropic",
                     "--gamma", "1e308", "--trials", "20"])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and "gamma" in err

    @pytest.mark.parametrize("key", S4_REFERENCE_KEYS)
    def test_structured_output_matches_benchmark_reference(self, capsys, tmp_path, key):
        # the benchmark's recorded exit code and stdout sha256 for its
        # default seed, for every s4-cli op; this file is read, never written
        reference_path = Path(__file__).resolve().parents[1] / "bench/reference/s4-cli.json"
        reference = json.loads(reference_path.read_text())
        assert sorted(reference) == sorted(S4_REFERENCE_KEYS)
        code = main(_s4_reference_argv(key, tmp_path))
        out = capsys.readouterr().out
        assert {"exit": code, "sha256": hashlib.sha256(out.encode()).hexdigest()} == reference[key]

    @pytest.mark.parametrize("key", S4_REFERENCE_KEYS)
    def test_text_output_matches_its_reference(self, capsys, tmp_path, key):
        # exit code and stdout sha256 of each s4-cli op in text format,
        # recorded before the text and structured output shared one walk
        reference_path = Path(__file__).resolve().parent / "reference/s4-cli-text.json"
        reference = json.loads(reference_path.read_text())
        assert sorted(reference) == sorted(S4_REFERENCE_KEYS)
        argv = _s4_reference_argv(key, tmp_path)
        assert argv[-2:] == ["--format", "structured"]
        code = main(argv[:-2])
        out = capsys.readouterr().out
        assert {"exit": code, "sha256": hashlib.sha256(out.encode()).hexdigest()} == reference[key]


class TestAcceptabilityCommand:
    def test_example_candidate(self, capsys):
        code = main(["acceptability", "--example", "s4", "--paper10"])
        out = capsys.readouterr().out
        assert code == 0
        assert "0.4741" in out
        assert "0.1889" in out
        assert "holds" in out

    def test_zero_candidate(self, capsys, market_file, tmp_path):
        inst = builtin_example("s4")
        alloc = {n: [0.0] for t in range(3) for n in inst.market.tree.nodes_at(t)}
        policy_path = tmp_path / "zero.json"
        policy_path.write_text(json.dumps({"label": "zero", "alloc": alloc}))
        code = main(
            ["acceptability", "--market", market_file, "--policy", str(policy_path),
             "--gamma", "10"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "0.0000" in out

    def test_enumeration_cap_message(self, capsys, tmp_path):
        # a six-period binary tree admits ~2.1e11 stopping times
        nodes = [{"id": "r", "time": 0, "parent": None}]
        prices = {"r": [10.0]}
        level = ["r"]
        for t in range(1, 7):
            nxt = []
            for nid in level:
                for tag in "ud":
                    cid = nid + tag
                    nodes.append({"id": cid, "time": t, "parent": nid, "p": 0.5})
                    prices[cid] = [10.0]
                    nxt.append(cid)
            level = nxt
        market_path = tmp_path / "deep.json"
        market_path.write_text(
            json.dumps({"T": 6, "nodes": nodes, "d": 1, "v0": 0.0, "prices": prices})
        )
        alloc = {n["id"]: [1.0] for n in nodes if n["time"] < 6}
        policy_path = tmp_path / "hold.json"
        policy_path.write_text(json.dumps({"label": "hold", "alloc": alloc}))
        code = main(
            ["acceptability", "--market", str(market_path), "--policy", str(policy_path)]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert "cap" in err

    def test_nan_allocation_exit_2(self, capsys, market_file, tmp_path, hold_policy_entry):
        hold_policy_entry["alloc"]["rd"] = [float("nan")]
        policy_path = tmp_path / "nan.json"
        policy_path.write_text(json.dumps(hold_policy_entry))
        code = main(["acceptability", "--market", market_file, "--policy", str(policy_path)])
        assert code == 2
        assert "rd" in capsys.readouterr().err

    def test_structured_output(self, capsys):
        code = main(["acceptability", "--example", "s4", "--paper10",
                     "--format", "structured"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["chain_ok"] and payload["acceptable"]
        assert payload["space_size"] == 26

    def test_seed_flag_is_not_accepted(self):
        with pytest.raises(SystemExit) as exc:
            main(["acceptability", "--example", "s4", "--seed", "3"])
        assert exc.value.code == 2


def test_text_output_prints_negative_zero_as_zero(capsys, tmp_path, market_file):
    # the entropic value of zero wealth is -kappa * ln 1 = -0.0
    assert main(["acceptability", "--example", "s4"]) == 0
    out = capsys.readouterr().out
    assert "threshold 0.0000" in out and "-0.0000" not in out
    inst = builtin_example("s4")
    zero = {n: [0.0] for t in range(3) for n in inst.market.tree.nodes_at(t)}
    space_path = tmp_path / "space.json"
    space_path.write_text(json.dumps({"policies": [{"label": "zero", "alloc": zero}]}))
    argv = ["run", "--market", market_file, "--space", str(space_path), "--mode", "terminal"]
    assert main([*argv, "--tol", "-0.0"]) == 0
    out = capsys.readouterr().out
    assert "planned  {r: 0.0000}" in out and "-0.0000" not in out and "tol=0 " in out
    # structured output keeps the value's sign
    main(["acceptability", "--example", "s4", "--format", "structured"])
    assert '"null_value": -0.0' in capsys.readouterr().out
    main([*argv, "--format", "structured"])
    assert '"r": -0.0' in capsys.readouterr().out


@pytest.mark.parametrize(
    "command",
    [
        ["run", "--example", "s4", "--mode", "terminal"],
        ["acceptability", "--example", "s4"],
        ["check-axioms", "--example", "s4", "--trials", "20"],
    ],
)
@pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
def test_bad_tol_exit_2(capsys, command, tol):
    assert main([*command, "--tol", tol]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1 and "--tol" in err


@pytest.mark.parametrize(
    "command",
    [
        ["run", "--example", "s4", "--mode", "terminal"],
        ["acceptability", "--example", "s4"],
        ["check-axioms", "--example", "s4", "--trials", "20"],
    ],
)
def test_negative_zero_tol_is_written_as_zero(capsys, command):
    main([*command, "--tol", "-0.0", "--format", "structured"])
    payload = json.loads(capsys.readouterr().out)
    assert math.copysign(1.0, payload["tol"]) == 1.0
    main([*command, "--tol", "-0.0"])
    out = capsys.readouterr().out
    assert "tol=-0" not in out
    if command[0] != "acceptability":  # the only command without tol in its text header
        assert "tol=0" in out.split()


@pytest.mark.parametrize(
    "command",
    [
        ["run", "--example", "s4", "--mode", "terminal"],
        ["acceptability", "--example", "s4"],
        ["check-axioms", "--example", "s4", "--trials", "20"],
    ],
)
@pytest.mark.parametrize(
    "flags, named",
    [
        (["--operator", "linear", "--paper10"], "--operator"),
        (["--operator", "entropic", "--paper10"], "--operator"),
        (["--paper10", "--gamma", "5"], "--gamma"),
        (["--paper10", "--kappa", "2"], "--kappa"),
        (["--operator", "linear", "--gamma", "5", "--kappa", "2"], "--gamma"),
        (["--operator", "linear", "--kappa", "2"], "--kappa"),
    ],
)
def test_operator_flag_the_operator_would_ignore_exit_2(capsys, command, flags, named):
    assert main([*command, *flags]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1 and named in err


@pytest.mark.parametrize(
    "flags, described",
    [
        ([], "entropic(gamma=10, kappa=10)"),
        (["--gamma", "5"], "entropic(gamma=5, kappa=5)"),
        (["--kappa", "3"], "entropic(gamma=10, kappa=3)"),
        (["--operator", "entropic", "--gamma", "5", "--kappa", "3"], "entropic(gamma=5, kappa=3)"),
    ],
)
def test_entropic_flags_fill_in_their_defaults(capsys, flags, described):
    main(["check-axioms", "--example", "s4", "--trials", "20", *flags])
    assert capsys.readouterr().out.startswith(f"operator={described} ")


@pytest.mark.parametrize("case", ["digits", "bytes", "nesting"])
def test_unreadable_json_exit_2_naming_the_file(capsys, tmp_path, case):
    path = tmp_path / "market.json"
    if case == "digits":  # past Python's int conversion limit
        text = json.dumps(three_period_market_spec()).replace('"v0": 0.0', '"v0": ' + "1" * 5000)
        path.write_text(text)
    elif case == "bytes":  # not UTF-8
        path.write_bytes(b"\xff" + json.dumps(three_period_market_spec()).encode())
    else:  # past the decoder's recursion limit
        path.write_text("[" * 100_000)
    assert main(["check-axioms", "--tree", str(path), "--trials", "20"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1 and f"{path} is not valid JSON" in err


@pytest.mark.parametrize(
    "part, doc, named",
    [
        ("market", "no_d", "'d'"),
        ("market", "no_prices", "'prices'"),
        ("space", {"policies": [5]}, "policy entry"),
        ("space", {"policies": [{"label": "hold"}]}, "'alloc'"),
        ("space", {"policies": []}, "no policies"),
        ("space", {"label": "s"}, "'stopping_space_of'"),
        ("acceptability", None, "--market"),
    ],
)
def test_refused_input_exit_2_naming_the_key(capsys, tmp_path, part, doc, named):
    docs = s4_documents()
    if part == "market":
        del docs["market"][doc.removeprefix("no_")]
    elif part == "space":
        docs["space"] = doc
    paths = write_documents(docs, tmp_path)
    if part == "acceptability":
        argv = ["acceptability", "--policy", paths["policy"]]
    else:
        argv = ["run", "--market", paths["market"], "--space", paths["space"]]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1 and named in err


@pytest.mark.parametrize(
    "bad, named",
    [
        ({"label": "b"}, "space file key 'policies' entry 1: policy 'b' is missing 'alloc'"),
        (7, "space file key 'policies' entry 1: a policy entry must be an object, got 7"),
    ],
    ids=["no-alloc", "not-an-object"],
)
def test_bad_space_entry_names_its_index_and_label(capsys, tmp_path, bad, named):
    docs = s4_documents()
    docs["space"] = {"policies": [docs["policy"], bad, docs["policy"]]}
    paths = write_documents(docs, tmp_path)
    assert main(["run", "--market", paths["market"], "--space", paths["space"]]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {named}\n"


@pytest.mark.parametrize(
    "case, refusal",
    [
        ("price", "market file key 'prices' names 'ghost', which is not a node of the tree"),
        ("policy", "policy 'hold' key 'alloc' names 'typo', which is not a node of the tree"),
        ("space-entry", "space file key 'policies' entry 1: policy 'hold' key 'alloc' "
                        "names 'typo', which is not a node of the tree"),
        ("two-keys", "space file takes 'policies' or 'stopping_space_of', not both"),
    ],
    ids=["price", "policy", "space-entry", "two-keys"],
)
def test_unknown_node_or_second_space_key_exit_2(capsys, tmp_path, case, refusal):
    # a key that is not a node of the tree is refused in every section; a
    # time-T key ("ruuu") in an allocation is ignored, as in a payoff
    docs = s4_documents()
    hold = docs["policy"]
    stray = {**hold, "alloc": {**hold["alloc"], "typo": [1.0], "ruuu": [1.0]}}
    if case == "price":
        docs["market"]["prices"]["ghost"] = [20.0]
    elif case == "policy":
        docs["policy"] = stray
    elif case == "space-entry":
        docs["space"] = {"policies": [hold, stray]}
    else:
        docs["space"]["policies"] = [hold]
    paths = write_documents(docs, tmp_path)
    if case == "policy":
        argv = ["acceptability", "--market", paths["market"], "--policy", paths["policy"]]
    else:
        argv = ["run", "--market", paths["market"], "--space", paths["space"]]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {refusal}\n"


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["run", "--example", "s4", "--market", "{absent}", "--mode", "terminal"], "--market"),
        (["run", "--example", "s4", "--space", "{absent}"], "--space"),
        (["acceptability", "--example", "s4", "--market", "{absent}"], "--market"),
        (["check-axioms", "--example", "s4", "--tree", "{absent}"], "--tree"),
        *((["run", "--example", "s4", "--mode", mode, "--payoff", "{absent}"], "--payoff")
          for mode in ("simple", "modified", "terminal")),
    ],
    ids=["run-market", "run-space", "acceptability-market", "check-axioms-tree",
         "payoff-simple", "payoff-modified", "payoff-terminal"],
)
def test_input_file_the_command_never_reads_exit_2(capsys, tmp_path, argv, flag):
    # the file is refused unread: reading it would fail with "cannot read"
    absent = str(tmp_path / "absent.json")
    assert main([a.replace("{absent}", absent) for a in argv]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1 and flag in err and "cannot read" not in err


def test_example_reads_a_candidate_policy_file(capsys, tmp_path):
    paths = write_documents(s4_documents(), tmp_path)
    assert main(["acceptability", "--example", "s4", "--policy", paths["policy"]]) == 0
    assert "candidate=hold" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["run", "acceptability"])
def test_horizon_below_one_exit_2_naming_the_flag(capsys, command):
    assert main([command, "--example", "s4", "--m", "0"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: --m must be >= 1, got 0\n"


@pytest.mark.parametrize("where", ["everywhere", "ru"])
def test_overflowing_wealth_is_silent(capsys, tmp_path, where):
    # allocations of 1e308 carry wealth past float range: +-inf and NaN
    # values, valued without a warning
    docs = s4_documents()
    alloc = docs["policy"]["alloc"]
    for node in alloc:
        if where == "everywhere" or node == where:
            alloc[node] = [1e308]
    docs["space"]["stopping_space_of"] = docs["policy"]
    paths = write_documents(docs, tmp_path)
    market = ["--market", paths["market"]]
    argvs = [
        ["acceptability", *market, "--policy", paths["policy"]],
        ["acceptability", *market, "--policy", paths["policy"], "--operator", "linear"],
    ]
    for mode in ("simple", "modified", "terminal", "bellman"):
        for flags in ([], ["--operator", "linear"]):
            argvs.append(["run", *market, "--space", paths["space"], "--mode", mode, *flags])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for argv in argvs:
            assert main(argv) in (0, 1), argv
            assert capsys.readouterr().err == "", argv


def _value_paths(doc, path=()):
    """The path of every value in a JSON document, the document's own first."""
    yield path
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _value_paths(value, (*path, key))


S4_VALUE_PATHS = [(part, path) for part, doc in s4_documents().items() for path in _value_paths(doc)]

_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.sampled_from([10**400, 1e308, -1e308, 5e-324, math.nan, math.inf, -math.inf]),
    st.floats(),
    st.sampled_from(["0.5", "12", "10", "nan", "-inf", "half", "", "r", "ru"]),
    st.text(max_size=3),
)
REPLACEMENTS = st.one_of(
    _SCALARS,
    st.lists(_SCALARS, max_size=3),
    st.dictionaries(st.sampled_from(["r", "ru", "id", "p", "x"]), _SCALARS, max_size=2),
)


def _replaced(doc, path, value):
    if not path:
        return value
    doc = json.loads(json.dumps(doc))
    *head, last = path
    parent = doc
    for key in head:
        parent = parent[key]
    parent[last] = value
    return doc


@given(st.sampled_from(S4_VALUE_PATHS), REPLACEMENTS)
@example(("market", ("nodes", 1, "p")), [0.5])
@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_any_one_bad_value_in_an_input_file_exits_cleanly(tmp_path, where, value):
    # one value anywhere in the market, space, policy or payoff replaced:
    # the CLI ends with 0, 1 or 2, never a traceback, and exit 2 prints
    # exactly one line on stderr
    part, path = where
    docs = s4_documents()
    docs[part] = _replaced(docs[part], path, value)
    paths = write_documents(docs, tmp_path)
    for argv in (
        ["run", "--market", paths["market"], "--space", paths["space"], "--mode", "bellman",
         "--payoff", paths["payoff"]],
        ["acceptability", "--market", paths["market"], "--policy", paths["policy"]],
    ):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2), (argv, code)
        if code == 2:
            assert err.getvalue().count("\n") == 1, err.getvalue()


def test_readme_library_sketch_runs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme[readme.index("## Library sketch") :]
    sketch = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    env = dict(os.environ, PYTHONPATH=str(Path(horizonrisk.__file__).resolve().parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", sketch], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr


def test_module_run_as_a_script_exits_with_mains_code(capsys):
    argv = ["run", "--example", "s4", "--mode", "terminal"]
    assert main(argv) == 0
    want = capsys.readouterr().out
    env = dict(os.environ, PYTHONPATH=str(Path(horizonrisk.__file__).resolve().parents[1]))
    done = subprocess.run(
        [sys.executable, "-m", "horizonrisk.cli", *argv],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, want, "")


def test_main_calls_in_one_process_print_what_fresh_processes_print(capsys):
    # the parser is built once per process: a parse leaves no option of one
    # command to the next, nor a default changed
    env = dict(os.environ, PYTHONPATH=str(Path(horizonrisk.__file__).resolve().parents[1]))
    for argv in (
        ["run", "--example", "s4", "--mode", "modified", "--m", "1", "--format", "structured"],
        ["acceptability", "--example", "s4", "--paper10"],
        ["run", "--example", "s4", "--m", "0"],
        ["check-axioms", "--example", "s4", "--trials", "20"],
        ["run", "--example", "s4"],
    ):
        code = main(argv)
        out, err = capsys.readouterr()
        done = subprocess.run(
            [sys.executable, "-m", "horizonrisk.cli", *argv],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert (done.returncode, done.stdout, done.stderr) == (code, out, err), argv


@pytest.mark.parametrize("fmt", ["text", "structured"])
def test_closed_pipe_ends_without_a_traceback(fmt):
    # the reader has gone before the first write, as `| head -1` may be:
    # nothing on stderr, and the command's own exit code (1: paper10 fails)
    env = dict(os.environ, PYTHONPATH=str(Path(horizonrisk.__file__).resolve().parents[1]))
    argv = ["check-axioms", "--example", "s4", "--paper10", "--format", fmt]
    proc = subprocess.Popen(
        [sys.executable, "-m", "horizonrisk.cli", *argv],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    proc.stdout.close()
    try:
        err = proc.stderr.read()
    finally:
        proc.stderr.close()
        proc.wait(timeout=120)
    assert (proc.returncode, err) == (1, b"")
