import hashlib
import json
import math
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

import horizonrisk
from horizonrisk import (
    PAPER10_KAPPA,
    builtin_example,
    load_market,
    load_operator,
    load_policy,
    load_space,
    load_tree,
)
from horizonrisk.cli import main
from horizonrisk.instances import three_period_market_spec


@pytest.fixture()
def market_file(tmp_path):
    path = tmp_path / "market.json"
    path.write_text(json.dumps(three_period_market_spec()))
    return str(path)


@pytest.fixture()
def hold_policy_entry():
    inst = builtin_example("s4")
    alloc = {}
    for t in range(3):
        for n in inst.market.tree.nodes_at(t):
            alloc[n] = [1.0]
    return {"label": "hold", "alloc": alloc}


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

    def test_operator_configs(self):
        assert load_operator({"kind": "linear"}).kind == "linear"
        op = load_operator({"kind": "entropic", "gamma": 5.0})
        assert op.gamma == 5.0 and op.kappa == 5.0
        op = load_operator({"kind": "entropic", "gamma": 10.0, "kappa": "paper10"})
        assert op.kappa == pytest.approx(PAPER10_KAPPA, abs=1e-15)
        assert op.kappa == pytest.approx(10.0 / math.log(10.0), abs=1e-15)
        with pytest.raises(ValueError):
            load_operator({"kind": "quantile"})

    def test_non_finite_operator_config_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            load_operator({"kind": "entropic", "gamma": float("nan")})

    @pytest.mark.parametrize(
        "config, key",
        [
            ({"kind": "entropic", "gamma": None}, "'gamma'"),
            ({"kind": "entropic", "gamma": [10.0]}, "'gamma'"),
            ({"kind": "entropic", "gamma": 10.0, "kappa": {"v": 1.0}}, "'kappa'"),
        ],
    )
    def test_non_numeric_operator_config_rejected(self, config, key):
        with pytest.raises(ValueError, match=key):
            load_operator(config)


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
        code = main(["run", "--example", "s4", "--operator", "paper10", "--mode", "simple"])
        assert code == 1

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
        "coefficients, node",
        [
            ({"r": [1.0, 5.0], "ru": []}, "'r'"),
            ({"r": [1.0], "ru": [1.0]}, "'rd'"),
            ({"r": [1.0], "ru": [1.0], "rd": [float("nan")]}, "'rd'"),
            ({"zz": [1.0]}, "'zz'"),
        ],
    )
    def test_bad_payoff_file_exit_2(self, capsys, tmp_path, coefficients, node):
        payoff_path = tmp_path / "payoff.json"
        payoff_path.write_text(json.dumps({"coefficients": coefficients}))
        code = main(["run", "--example", "s4", "--mode", "bellman", "--payoff", str(payoff_path)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1
        assert node in err

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

    def test_overflowing_draw_scale_exit_2(self, capsys):
        # draws from +-3 gamma overflow; before, NaN slices passed all four axioms
        code = main(["check-axioms", "--example", "s4", "--operator", "entropic",
                     "--gamma", "1e308", "--trials", "20"])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and "gamma" in err

    @pytest.mark.parametrize(
        "name, flags",
        [
            ("linear", ["--operator", "linear"]),
            ("entropic10", ["--operator", "entropic", "--gamma", "10"]),
            ("paper10", ["--paper10"]),
        ],
    )
    def test_structured_output_matches_benchmark_reference(self, capsys, name, flags):
        # the benchmark's recorded exit code and stdout sha256 for its
        # default seed; this file is read, never written
        reference_path = Path(__file__).resolve().parents[1] / "bench/reference/s4-cli.json"
        expected = json.loads(reference_path.read_text())[f"check_axioms:{name}"]
        seed = random.Random(0).randrange(10**6)
        code = main(["check-axioms", "--example", "s4", *flags, "--seed", str(seed),
                     "--format", "structured"])
        out = capsys.readouterr().out
        assert {"exit": code, "sha256": hashlib.sha256(out.encode()).hexdigest()} == expected


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


def test_readme_library_sketch_runs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme[readme.index("## Library sketch") :]
    sketch = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    env = dict(os.environ, PYTHONPATH=str(Path(horizonrisk.__file__).resolve().parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", sketch], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
