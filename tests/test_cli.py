import argparse
import csv
import json
import math

import pytest

from treedet import (
    BINARY,
    Tree,
    TreeFamily,
    bernoulli_pair,
    chernoff_bound_report,
    cli,
    identity_map,
    rate_table,
    uniformize,
)
from treedet.cli import _build_parser, _naive_type_i, main
from treedet.topology import analyze_tree


def run(*argv):
    return main([str(a) for a in argv])


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def read_csv(path):
    with open(path) as fh:
        rows = [r for r in csv.reader(fh) if not r[0].startswith("#")]
    return rows[0], rows[1:]


class TestExponentCommand:
    def test_writes_report(self, tmp_path):
        assert run("exponent", "--pair", "bern75", "--out", tmp_path) == 0
        doc = read_json(tmp_path / "exponent.json")
        assert doc["parallel_exponent"] == pytest.approx(-0.5493061443340548, rel=1e-12)
        (fusion,) = doc["fusion"]
        assert fusion["arity"] == 2
        assert fusion["constant"] == pytest.approx(-0.45125127599055304, rel=1e-9)
        assert fusion["dominated"] is True

    def test_bernoulli_argument(self, tmp_path):
        assert run("exponent", "--pair", "bernoulli:0.9", "--out", tmp_path) == 0

    def test_bad_pair_exits_one(self, tmp_path):
        assert run("exponent", "--pair", "bernoulli:1.5", "--out", tmp_path) == 1

    def test_fused_masses_overshooting_one(self, tmp_path):
        # the and-gate's fused masses sum past 1 by an ulp before clamping
        path = tmp_path / "pair.json"
        path.write_text('{"alphabet": [0, 1, 2], "p0": [0.2, 0.2, 0.6], "p1": [0.6, 0.2, 0.2]}')
        assert run("exponent", "--pair", path, "--out", tmp_path) == 0
        (fusion,) = read_json(tmp_path / "exponent.json")["fusion"]
        expected = -(0.64 * math.log(4.0) + 0.36 * math.log(0.36 / 0.84)) / 2
        assert fusion["constant"] == pytest.approx(expected, rel=1e-12)

    def test_enumeration_blowup_exits_two(self, tmp_path):
        doc = {
            "alphabet": list(range(25)),
            "p0": [1.0 / 25] * 25,
            "p1": [1.0 / 25] * 25,
        }
        path = tmp_path / "pair.json"
        path.write_text(json.dumps(doc))
        assert run("exponent", "--pair", path, "--out", tmp_path) == 2


class TestRatesCommand:
    def test_rate_csv(self, tmp_path):
        code = run(
            "rates", "--pair", "bern75", "--gamma", "identity",
            "--thresholds", "0,0", "--out", tmp_path, "--no-timestamp",
        )
        assert code == 0
        header, rows = read_csv(tmp_path / "rates.csv")
        assert header == ["level", "threshold", "fa_rate", "miss_rate"]
        assert float(rows[0][2]) == pytest.approx(0.14384103622589028, rel=1e-9)
        assert float(rows[1][2]) == pytest.approx(0.07192051811294514, rel=1e-9)
        summary = read_json(tmp_path / "rates.json")
        assert "next_feasible_interval" in summary

    def test_bounds_with_tree(self, tmp_path):
        code = run(
            "rates", "--pair", "bern75", "--gamma", "identity",
            "--thresholds", "0,0", "--family", "two_relay", "--size", "100",
            "--out", tmp_path, "--no-timestamp",
        )
        assert code == 0
        header, rows = read_csv(tmp_path / "bounds.csv")
        assert header == [
            "node_id", "level", "leaf_count", "pred_count", "bound_type", "bound_value",
        ]
        for r in rows:
            float(r[5])
        root_rows = [r for r in rows if r[4] == "root_type1"]
        assert len(root_rows) == 1
        assert float(root_rows[0][5]) == pytest.approx(-0.05192051811294513, rel=1e-8)

    def test_non_uniform_tree_is_bounded_uniformized(self, tmp_path):
        # as simulate and fit evaluate it: both root bounds of the uniformized tree
        tree = TreeFamily("chain_plus_leaves", {"h": 2}).generate(6)
        assert not tree.is_uniform
        src = tmp_path / "tree.json"
        src.write_text(tree.to_json())
        argv = ("rates", "--pair", "bern75", "--thresholds", "0,0", "--tree", src, "--no-timestamp")
        assert run(*argv, "--out", tmp_path / "out") == 0
        doc = read_json(tmp_path / "out" / "rates.json")
        table = rate_table(bernoulli_pair(0.75), identity_map(BINARY), (0.0, 0.0))
        uniform = uniformize(tree).tree
        n_floor = int(uniform.shape_counts.fringe_degrees.min())
        want = {r.kind: r.value for r in chernoff_bound_report(uniform, table, n_floor).roots}
        assert len(want) == 2 and doc["root_bounds"] == pytest.approx(want, rel=1e-15)
        assert doc["n_floor"] == n_floor

    def test_infeasible_threshold_exits_two(self, tmp_path):
        assert run(
            "rates", "--pair", "bern75", "--gamma", "identity",
            "--thresholds", "0.9", "--out", tmp_path,
        ) == 2

    def test_default_leaf_map_is_identity(self, tmp_path):
        argv = ("rates", "--pair", "bern75", "--thresholds", "-0.2,0",
                "--family", "wide_uniform", "--params", '{"m": 4}', "--size", "5",
                "--no-timestamp")
        assert run(*argv, "--out", tmp_path / "default") == 0
        assert run(*argv, "--gamma", "identity", "--out", tmp_path / "identity") == 0
        names = sorted(p.name for p in (tmp_path / "default").iterdir())
        assert names == ["bounds.csv", "rates.csv", "rates.json"]
        for name in names:
            assert (tmp_path / "default" / name).read_bytes() == (
                tmp_path / "identity" / name
            ).read_bytes()

    def test_root_bound_needs_the_fringe_floor(self, tmp_path, capsys):
        argv = ("rates", "--pair", "bern75", "--thresholds=-0.2,-0.1", "--family", "wide_uniform",
                "--params", '{"m": 4}', "--size", "50", "--no-timestamp")
        assert run(*argv, "--out", tmp_path / "default") == 0
        assert "root miss bound per leaf" in capsys.readouterr().out
        doc = read_json(tmp_path / "default" / "rates.json")
        table = rate_table(bernoulli_pair(0.75), identity_map(BINARY), (-0.2, -0.1))
        tree = TreeFamily("wide_uniform", {"m": 4}).generate(50)
        roots = {r.kind: r.value for r in chernoff_bound_report(tree, table, 4).roots}
        # the floor is the smallest fringe, 4 leaves here
        assert doc["n_floor"] == 4
        assert doc["exponent_lower_bound"] == doc["root_bounds"]["root_type1"]
        assert doc["exponent_lower_bound"] == roots["root_type1"] == -table.rate1[-1] + 2 / 4

    def test_floor_is_the_least_fringe_degree(self, tmp_path):
        # one fringe node with 4 leaves, one with 5
        tree = Tree([-1, 0, 0] + [1] * 4 + [2] * 5)
        src = tmp_path / "tree.json"
        src.write_text(tree.to_json())
        assert run(*RATES, "--tree", src, "--out", tmp_path, "--no-timestamp") == 0
        doc = read_json(tmp_path / "rates.json")
        table = rate_table(bernoulli_pair(0.75), identity_map(BINARY), (0.0, 0.0))
        roots = {r.kind: r.value for r in chernoff_bound_report(tree, table, 4).roots}
        assert doc["n_floor"] == 4
        assert doc["root_bounds"] == roots
        assert set(roots) == {"root_type1", "root_type0"}
        assert doc["exponent_lower_bound"] == roots["root_type1"] == -table.rate1[-1] + 2 / 4


class TestAnalyzeCommand:
    def test_stats_for_family_tree(self, tmp_path):
        code = run(
            "analyze", "--family", "two_relay", "--size", "3", "--out", tmp_path,
        )
        assert code == 0
        doc = read_json(tmp_path / "analyze.json")
        assert doc["stats"]["n_nodes"] == 9
        assert doc["stats"]["n_leaves"] == 6
        assert doc["small_leaf_fraction"]["2"]["fraction"] == 0.0

    def test_growth_grid(self, tmp_path):
        code = run(
            "analyze", "--family", "increasing_leaves", "--sizes", "10,20,40",
            "--out", tmp_path, "--no-timestamp",
        )
        assert code == 0
        header, rows = read_csv(tmp_path / "growth.csv")
        assert header[0] == "size"
        assert len(rows) == 3
        assert "growth" in read_json(tmp_path / "analyze.json")

    def test_each_cap_computed_once(self, tmp_path, monkeypatch):
        calls = []

        def counted(tree, cap):
            calls.append(cap)
            return analyze_tree(tree, cap)

        monkeypatch.setattr(cli, "analyze_tree", counted)
        code = run(
            "analyze", "--family", "two_relay", "--size", "3",
            "--small-caps", "2,5", "--out", tmp_path,
        )
        assert code == 0
        assert calls == [2, 5]
        assert set(read_json(tmp_path / "analyze.json")["small_leaf_fraction"]) == {"2", "5"}


class TestUniformizeCommand:
    def test_round_trip(self, tmp_path):
        tree = TreeFamily("chain_plus_leaves", {"h": 2}).generate(6)
        src = tmp_path / "tree.json"
        src.write_text(tree.to_json())
        code = run(
            "uniformize", "--tree", src,
            "--out-tree", tmp_path / "u.json", "--out", tmp_path,
        )
        assert code == 0
        from treedet import Tree

        u = Tree.from_json((tmp_path / "u.json").read_text())
        assert u.is_uniform
        doc = read_json(tmp_path / "uniformize.json")
        assert doc["leaf_count_before"] == doc["leaf_count_after"]
        assert doc["was_uniform"] is False


class TestSimulateCommand:
    def test_exact_with_calibration(self, tmp_path):
        code = run(
            "simulate", "--pair", "bern75", "--family", "two_relay", "--size", "4",
            "--epsilon", "0.2", "--alpha", "0.25", "--out", tmp_path,
        )
        assert code == 0
        doc = read_json(tmp_path / "simulate.json")
        assert doc["exact"]["type_i"] <= 0.25
        assert doc["exact"]["method"] == "exact"

    def test_mc_runs_are_byte_identical(self, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        for out in (out_a, out_b):
            code = run(
                "simulate", "--pair", "bern75", "--family", "two_relay",
                "--size", "4", "--gamma", "identity", "--thresholds", "0",
                "--alpha", "0.25", "--method", "both",
                "--trials", "20000", "--seed", "11", "--out", out,
            )
            assert code == 0
        assert (out_a / "simulate.json").read_bytes() == (
            out_b / "simulate.json"
        ).read_bytes()
        doc = read_json(out_a / "simulate.json")
        exact, mc = doc["exact"], doc["monte_carlo"]
        se = math.sqrt(max(exact["type_i"] * (1 - exact["type_i"]), 1e-12) / 20000)
        assert abs(mc["type_i"] - exact["type_i"]) <= 5 * se

    def test_single_threshold_broadcasts(self, tmp_path):
        code = run(
            "simulate", "--pair", "bern75", "--family", "wide_uniform",
            "--params", '{"m": 2}', "--size", "6",
            "--gamma", "identity", "--thresholds", "0",
            "--gate", "or", "--alpha", "0.25", "--out", tmp_path,
        )
        assert code == 0
        doc = read_json(tmp_path / "simulate.json")
        assert doc["strategy"]["thresholds"] == [0.0, 0.0]

    def test_zero_probability_log_is_null(self, tmp_path):
        # a root threshold above every atom never declares the alternative
        code = run(
            "simulate", "--pair", "bern75", "--family", "parallel", "--size", "5",
            "--epsilon", "0.02", "--root-threshold", "5", "--method", "both",
            "--trials", "100", "--seed", "1", "--out", tmp_path,
        )
        assert code == 0

        def refuse(name):
            raise ValueError(f"non-standard JSON constant {name}")

        text = (tmp_path / "simulate.json").read_text()
        doc = json.loads(text, parse_constant=refuse)
        for key in ("exact", "monte_carlo"):
            assert doc[key]["type_i"] == 0.0
            assert doc[key]["log_type_i"] is None
            assert doc[key]["log_type_ii"] == 0.0

    def test_explicit_strategy_evaluates_the_uniformized_tree(self, tmp_path):
        code = run(
            "simulate", "--pair", "bern75", "--family", "chain_plus_leaves",
            "--params", '{"h": 2}', "--size", "6", "--gamma", "identity",
            "--thresholds", "0", "--out", tmp_path,
        )
        assert code == 0
        doc = read_json(tmp_path / "simulate.json")
        # the three leaves under the root move below one new relay
        assert (doc["n_nodes"], doc["leaf_count"]) == (7, 4)
        assert doc["strategy"]["thresholds"] == [0.0, 0.0]

    def test_state_space_blowup_exits_two(self, tmp_path):
        code = run(
            "simulate", "--pair", "bern75", "--family", "increasing_leaves",
            "--size", "48", "--gamma", "identity", "--thresholds", "0",
            "--alpha", "0.25", "--out", tmp_path,
        )
        assert code == 2


class TestFitCommand:
    def test_fit_artifacts(self, tmp_path):
        code = run(
            "fit", "--pair", "bern75", "--family", "parallel",
            "--sizes", "101,201,401", "--epsilon", "0.1",
            "--target", "-0.5493061443340548", "--tolerance", "0.2",
            "--out", tmp_path, "--no-timestamp",
        )
        assert code == 0
        header, rows = read_csv(tmp_path / "fit.csv")
        assert header == [
            "size", "n", "leaf_count", "alpha", "type_i", "type_ii",
            "log_type_ii_per_leaf",
        ]
        assert [int(r[2]) for r in rows] == [100, 200, 400]
        doc = read_json(tmp_path / "fit.json")
        assert doc["regressor"] == "leaves"
        assert doc["verdict"] is True
        assert doc["slope"] < -0.3

    def test_failed_verdict_exits_one(self, tmp_path):
        code = run(
            "fit", "--pair", "bern75", "--family", "parallel",
            "--sizes", "51,101", "--epsilon", "0.1",
            "--target", "-0.9", "--tolerance", "0.01", "--out", tmp_path,
        )
        assert code == 1
        assert read_json(tmp_path / "fit.json")["verdict"] is False


class TestReproduceCommand:
    @pytest.mark.parametrize(
        "example, headers",
        [
            (1, {"fit.csv": "size,n,leaf_count,alpha,type_i,type_ii,log_type_ii_per_leaf"}),
            (
                2,
                {
                    "simple.csv": "m,n_relays,n,leaf_count,type_i,type_ii,"
                    "log_type_ii_per_leaf",
                    "naive.csv": "m,n_relays,relay_fa,naive_type_i,naive_type_i_1e5_relays,"
                    "capped_relays,naive_type_i_capped,relay_log_miss_per_leaf",
                },
            ),
        ],
        ids=["two_relay", "wide_uniform"],
    )
    def test_passing_bundles(self, tmp_path, example, headers):
        code = run("reproduce", "--example", example, "--out", tmp_path, "--no-timestamp")
        assert code == 0
        bundle = tmp_path / f"example_{example}"
        doc = read_json(bundle / "bundle.json")
        assert doc["all_pass"] is True
        for name in doc["artifacts"]:
            assert (bundle / name).is_file()
        for name, header in headers.items():
            assert ",".join(read_csv(bundle / name)[0]) == header

    def test_gate_table_bundle_passes(self, tmp_path):
        code = run("reproduce", "--example", "3", "--out", tmp_path, "--no-timestamp")
        assert code == 0
        doc = read_json(tmp_path / "example_3" / "bundle.json")
        assert doc["all_pass"] is True
        assert doc["verdicts"]["per_leaf_rates_match_closed_forms"] is True
        header, rows = read_csv(tmp_path / "example_3" / "gate_table.csv")
        assert [r[0] for r in rows] == ["forward", "or", "and"]

    def test_growth_bundle_reports_known_gap(self, tmp_path):
        # the small-fringe fractions vanish, but the fitted slope cannot
        # reach the parallel exponent at exactly evaluable sizes; the
        # bundle must say so and exit nonzero rather than hide it
        code = run("reproduce", "--example", "4", "--out", tmp_path, "--no-timestamp")
        assert code == 1
        doc = read_json(tmp_path / "example_4" / "bundle.json")
        assert doc["verdicts"]["small_fringe_fraction_vanishes"] is True
        assert doc["verdicts"]["slope_matches_parallel_exponent"] is False
        assert doc["all_pass"] is False

    @pytest.mark.parametrize("delta", [0.0, 0.3, 1.0])
    def test_naive_type_i_is_one_less_the_chance_no_relay_fires(self, delta):
        for relays in (1, 7, 10**5):
            want = 1.0 - (1.0 - delta) ** relays
            assert _naive_type_i(delta, relays) == pytest.approx(want, rel=1e-12, abs=0.0)


class TestUsageErrors:
    def test_unknown_command(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 1

    def test_missing_required_flag(self):
        with pytest.raises(SystemExit) as exc:
            main(["exponent"])
        assert exc.value.code == 1

    def test_unknown_gate_name(self, tmp_path):
        code = run(
            "simulate", "--pair", "bern75", "--family", "two_relay", "--size", "3",
            "--gamma", "identity", "--thresholds", "0", "--gate", "nand",
            "--alpha", "0.25", "--out", tmp_path,
        )
        assert code == 1

    def test_alpha_with_root_threshold(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main([
                "simulate", "--pair", "bern75", "--family", "two_relay", "--size", "3",
                "--epsilon", "0.2", "--alpha", "0.25", "--root-threshold", "0.1",
                "--out", str(tmp_path),
            ])
        assert exc.value.code == 1
        assert "not allowed with argument" in capsys.readouterr().err
        assert not (tmp_path / "simulate.json").exists()


def _subparsers():
    (action,) = [
        a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ]
    return action.choices


COMMON = {"-h", "--help", "--out", "--no-timestamp"}
TREE_SOURCE = {"--tree", "--family", "--params", "--size"}
STRATEGY = {"--epsilon", "--gamma", "--thresholds", "--gate"}

OPTIONS = {
    "exponent": COMMON | {"--pair", "--fusion-arity"},
    "rates": COMMON | TREE_SOURCE | {"--pair", "--gamma", "--thresholds"},
    "analyze": COMMON | TREE_SOURCE | {"--sizes", "--small-caps"},
    "uniformize": COMMON | {"--tree", "--out-tree"},
    "simulate": COMMON | TREE_SOURCE | STRATEGY | {
        "--pair", "--alpha", "--root-threshold", "--method", "--trials", "--seed",
    },
    "fit": COMMON | STRATEGY | {
        "--pair", "--family", "--params", "--sizes", "--alpha", "--regress-on",
        "--target", "--tolerance",
    },
    "reproduce": COMMON | {"--example"},
}

REQUIRED = {
    "exponent": {"--pair"},
    "rates": {"--pair", "--thresholds"},
    "analyze": set(),
    "uniformize": {"--tree"},
    "simulate": {"--pair"},
    "fit": {"--pair", "--family", "--sizes"},
    "reproduce": {"--example"},
}


class TestParserSurface:
    def test_subcommands(self):
        assert set(_subparsers()) == set(OPTIONS)

    @pytest.mark.parametrize("command", sorted(OPTIONS))
    def test_option_strings(self, command):
        sub = _subparsers()[command]
        assert {s for a in sub._actions for s in a.option_strings} == OPTIONS[command]

    @pytest.mark.parametrize("command", sorted(REQUIRED))
    def test_required_options(self, command):
        sub = _subparsers()[command]
        required = {a.option_strings[0] for a in sub._actions if a.required}
        assert required == REQUIRED[command]

    def test_defaults_that_differ_between_commands(self):
        subs = _subparsers()
        parse = {name: sub.parse_args for name, sub in subs.items()}
        rates = parse["rates"](["--pair", "p", "--thresholds", "0"])
        assert rates.gamma == "identity"
        sim = parse["simulate"](["--pair", "p"])
        assert sim.gamma is None and sim.alpha is None
        fit = parse["fit"](["--pair", "p", "--family", "f", "--sizes", "1"])
        assert fit.alpha == 0.25 and fit.gamma is None and fit.tolerance == 0.05


def _error_line(capsys):
    err = capsys.readouterr().err.strip().splitlines()
    assert err, "expected a message on stderr"
    return err[-1]


RATES = ("rates", "--pair", "bern75", "--gamma", "identity", "--thresholds", "0,0")
SIMULATE = ("simulate", "--pair", "bern75", "--gamma", "identity", "--thresholds", "0")
GATED = SIMULATE + ("--family", "two_relay", "--size", "3", "--gate")


class TestLoaderErrors:
    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                ("exponent", "--pair", "missing.json"),
                "error: pair spec 'missing.json' is neither a file nor 'bern75'/'bernoulli:p'",
            ),
            (
                ("rates", "--pair", "bern75", "--gamma", "missing.json", "--thresholds", "0"),
                "error: leaf map spec 'missing.json' is neither a file nor 'identity'",
            ),
            (RATES + ("--tree", "missing.json"), "error: tree file 'missing.json' does not exist"),
            (
                ("analyze", "--tree", "missing.json"),
                "error: tree file 'missing.json' does not exist",
            ),
            (SIMULATE + ("--tree", "missing.json"), "error: tree file 'missing.json' does not exist"),
            (
                ("uniformize", "--tree", "missing.json"),
                "error: tree file 'missing.json' does not exist",
            ),
            (
                SIMULATE + ("--family", "two_relay", "--size", "3", "--gate", "missing.json"),
                "error: gate spec 'missing.json' is neither a file nor one of "
                "['and', 'forward', 'or', 'xor']",
            ),
            (RATES + ("--family", "two_relay"), "error: --family needs --size"),
            (("analyze", "--family", "two_relay"), "error: provide --tree, --family/--size, "
             "or --family/--sizes"),
            (SIMULATE + ("--family", "two_relay"), "error: --family needs --size"),
            # a NaN root threshold once declared every sum the alternative and
            # then broke the JSON report; a NaN threshold under a gate too
            (
                SIMULATE + ("--family", "two_relay", "--size", "3", "--root-threshold", "nan"),
                "error: thresholds and the root threshold must be finite",
            ),
            (
                ("simulate", "--pair", "bern75", "--gamma", "identity", "--thresholds", "nan",
                 "--family", "two_relay", "--size", "2", "--gate", "or"),
                "error: thresholds and the root threshold must be finite",
            ),
            # rate_table takes no root threshold, so its message names none
            (RATES[:-1] + ("nan",), "error: thresholds must be finite"),
            (RATES[:-1] + ("0,nan",), "error: thresholds must be finite"),
            (
                RATES + ("--family", "two_relay", "--size", "3", "--params", "{bad"),
                "error: --params is not valid JSON: Expecting property name enclosed in "
                "double quotes: line 1 column 2 (char 1)",
            ),
            (
                ("analyze", "--family", "two_relay", "--size", "3", "--params", "[1]"),
                "error: --params must be a JSON object",
            ),
            (
                ("fit", "--pair", "bern75", "--family", "parallel", "--sizes", "5",
                 "--epsilon", "0.1", "--params", "3"),
                "error: --params must be a JSON object",
            ),
            (("analyze",), "error: provide --tree, --family/--size, or --family/--sizes"),
            (("analyze", "--sizes", "10,20"), "error: --sizes needs --family"),
            (("simulate", "--pair", "bern75"), "error: provide --tree or --family/--size"),
            (
                ("simulate", "--pair", "bern75", "--family", "two_relay", "--size", "3",
                 "--gamma", "none", "--thresholds", "0"),
                "error: leaf map spec 'none' is neither a file nor 'identity'",
            ),
            (
                SIMULATE[:5] + ("--family", "two_relay", "--size", "3"),
                "error: provide --epsilon, or --gamma with --thresholds",
            ),
            (
                ("exponent", "--pair", "bern75", "--fusion-arity", ","),
                "error: --fusion-arity must list at least one value",
            ),
            (
                RATES[:5] + ("--thresholds", "0,x"),
                "error: --thresholds: could not convert string to float: 'x'",
            ),
            (
                ("analyze", "--family", "wide_uniform", "--size", "3", "--params", '{"m": "x"}'),
                "error: parameter 'm' is 'x', not an integer",
            ),
            (
                ("analyze", "--family", "wide_uniform", "--size", "3", "--params", '{"m": null}'),
                "error: parameter 'm' is None, not an integer",
            ),
            (
                ("analyze", "--family", "wide_uniform", "--size", "3", "--params", '{"m": 2.7}'),
                "error: parameter 'm' is 2.7, not an integer",
            ),
            (
                ("analyze", "--family", "wide_uniform", "--size", "3", "--params", '{"m": true}'),
                "error: parameter 'm' is True, not an integer",
            ),
            (
                ("analyze", "--family", "chain_plus_leaves", "--size", "6",
                 "--params", '{"h": "3"}'),
                "error: parameter 'h' is '3', not an integer",
            ),
            (
                ("analyze", "--family", "wide_uniform", "--size", "3",
                 "--params", '{"m": 3, "n_relay": 1}'),
                "error: family 'wide_uniform' does not read ['n_relay']; it accepts ['m']",
            ),
            (
                ("analyze", "--family", "wide_uniform", "--size", "3",
                 "--params", '{"n_relays": 3}'),
                "error: family 'wide_uniform' does not read ['n_relays']; it accepts ['m']",
            ),
            (
                ("analyze", "--family", "wide_uniform", "--size", "3"),
                "error: family 'wide_uniform' missing parameter 'm'",
            ),
            (
                ("analyze", "--family", "explicit", "--size", "1"),
                "error: unknown family 'explicit'; known: ['chain_plus_leaves', "
                "'increasing_leaves', 'parallel', 'two_relay', 'wide_uniform']",
            ),
        ],
    )
    def test_exit_one_with_message(self, tmp_path, monkeypatch, capsys, argv, message):
        monkeypatch.chdir(tmp_path)
        assert run(*argv, "--out", tmp_path / "out") == 1
        assert _error_line(capsys) == message

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("exponent", "--pair", "adir"), "error: cannot read 'adir': Is a directory"),
            (RATES + ("--tree", "adir"), "error: cannot read 'adir': Is a directory"),
            (("analyze", "--tree", "adir"), "error: cannot read 'adir': Is a directory"),
            (GATED + ("adir",), "error: cannot read 'adir': Is a directory"),
            (SIMULATE + ("--tree", "adir"), "error: cannot read 'adir': Is a directory"),
            (("exponent", "--pair", "pair_text.json"),
             "error: malformed pair document: Expecting value: line 1 column 1 (char 0)"),
            (("exponent", "--pair", "pair_alphabet.json"),
             "error: malformed pair document: 'int' object is not iterable"),
            (("exponent", "--pair", "pair_null.json"), "error: p0 entries must lie in [0, 1]"),
            *(
                (argv + (f"{prefix}{name}.json",), message)
                for argv, prefix in ((RATES[:3] + ("--thresholds", "0", "--gamma"), "gamma"),
                                     (GATED, "gate"))
                for name, message in (
                    ("_text", "error: malformed transmission function: "
                     "Expecting value: line 1 column 1 (char 0)"),
                    ("_list", "error: malformed transmission function: "
                     "list indices must be integers or slices, not str"),
                    ("_nomap", "error: transmission function missing field 'map'"),
                    ("_arity_x", "error: field 'arity' is 'x', not an integer"),
                    ("_arity_half", "error: field 'arity' is 2.5, not an integer"),
                    ("_arity_true", "error: field 'arity' is True, not an integer"),
                )
            ),
        ],
    )
    def test_malformed_spec_files(self, tmp_path, monkeypatch, capsys, argv, message):
        from treedet import BINARY, identity_map, or_gate

        monkeypatch.chdir(tmp_path)
        (tmp_path / "adir").mkdir()
        (tmp_path / "pair_text.json").write_text("not json")
        (tmp_path / "pair_alphabet.json").write_text('{"alphabet": 5, "p0": [1], "p1": [1]}')
        (tmp_path / "pair_null.json").write_text(
            '{"alphabet": [0, 1], "p0": [null, 1.0], "p1": [0.0, 1.0]}'
        )
        for prefix, tf in (("gamma", identity_map(BINARY)), ("gate", or_gate())):
            doc = json.loads(tf.to_json())
            (tmp_path / f"{prefix}_text.json").write_text("not json")
            (tmp_path / f"{prefix}_list.json").write_text(json.dumps(list(doc)))
            (tmp_path / f"{prefix}_nomap.json").write_text(
                json.dumps({k: v for k, v in doc.items() if k != "map"})
            )
            for name, arity in (("x", "x"), ("half", 2.5), ("true", True)):
                (tmp_path / f"{prefix}_arity_{name}.json").write_text(
                    json.dumps({**doc, "arity": arity})
                )
        assert run(*argv, "--out", tmp_path / "out") == 1
        assert _error_line(capsys) == message

    def test_bounds_need_a_fringe(self, tmp_path, capsys):
        src = tmp_path / "tree.json"
        src.write_text(Tree([-1]).to_json())
        assert run(*RATES[:-1], "0", "--tree", src, "--out", tmp_path) == 1
        assert _error_line(capsys) == "error: tree has no fringe nodes"
        assert not (tmp_path / "rates.csv").exists()  # refused before any report is written

    @pytest.mark.parametrize(
        "strategy", [("--epsilon", "0.1"), ("--gamma", "identity", "--thresholds", "0")],
        ids=["recipe", "explicit"],
    )
    def test_one_node_tree_has_no_strategy(self, tmp_path, capsys, strategy):
        src = tmp_path / "tree.json"
        src.write_text('{"n": 1, "root": 0, "parents": [null]}')
        argv = ("simulate", "--pair", "bern75", "--tree", src, *strategy, "--out", tmp_path)
        assert run(*argv) == 1
        assert _error_line(capsys) == "error: tree must have at least one level"

    def test_non_uniform_tree_file_is_evaluated_uniformized(self, tmp_path):
        tree = TreeFamily("chain_plus_leaves", {"h": 2}).generate(6)
        src = tmp_path / "tree.json"
        src.write_text(tree.to_json())
        assert run(*SIMULATE, "--tree", src, "--out", tmp_path) == 0
        doc = read_json(tmp_path / "simulate.json")
        assert (doc["n_nodes"], doc["leaf_count"]) == (7, 4)


class TestSpecFiles:
    def test_leaf_map_and_gate_files_match_builtins(self, tmp_path):
        from treedet import BINARY, identity_map, or_gate

        gamma = tmp_path / "gamma.json"
        gamma.write_text(identity_map(BINARY).to_json())
        gate = tmp_path / "gate.json"
        gate.write_text(or_gate().to_json())
        pair = tmp_path / "pair.json"
        pair.write_text('{"alphabet": [0, 1], "p0": [0.75, 0.25], "p1": [0.25, 0.75]}')
        docs = []
        for label, specs in (
            ("names", ("bern75", "identity", "or")),
            ("files", (pair, gamma, gate)),
        ):
            out = tmp_path / label
            code = run(
                "simulate", "--pair", specs[0], "--family", "wide_uniform",
                "--params", '{"m": 2}', "--size", "6", "--gamma", specs[1],
                "--thresholds", "0", "--gate", specs[2], "--alpha", "0.25",
                "--method", "both", "--trials", "2000", "--out", out,
            )
            assert code == 0
            docs.append((out / "simulate.json").read_bytes())
        assert docs[0] == docs[1]

    def test_tree_file_matches_family(self, tmp_path):
        tree = TreeFamily("two_relay").generate(5)
        src = tmp_path / "tree.json"
        src.write_text(tree.to_json())
        outs = []
        for label, source in (("file", ("--tree", src)), ("family", ("--family", "two_relay",
                                                                          "--size", "5"))):
            out = tmp_path / label
            assert run(*RATES, *source, "--out", out, "--no-timestamp") == 0
            outs.append(((out / "rates.json").read_bytes(), (out / "bounds.csv").read_bytes()))
        assert outs[0] == outs[1]


# each comma-list flag, after what its command needs to parse
LIST_FLAGS = {
    "exponent --fusion-arity": ("exponent", "--pair", "p", "--fusion-arity"),
    "rates --thresholds": ("rates", "--pair", "p", "--thresholds"),
    "analyze --sizes": ("analyze", "--sizes"),
    "analyze --small-caps": ("analyze", "--small-caps"),
    "simulate --thresholds": ("simulate", "--pair", "p", "--thresholds"),
    "fit --sizes": ("fit", "--pair", "p", "--family", "f", "--sizes"),
    "fit --thresholds": ("fit", "--pair", "p", "--family", "f", "--sizes", "1", "--thresholds"),
}


class TestFixedInputErrors:
    @pytest.mark.parametrize("value", ["-0.2,-0.1", "-3,4", "-.5,1e-3", "-1"])
    @pytest.mark.parametrize("argv", LIST_FLAGS.values(), ids=LIST_FLAGS)
    def test_leading_minus_list_as_separate_word(self, argv, value):
        *head, flag = argv
        parse = _build_parser().parse_args
        spaced = parse([*head, flag, value])
        assert vars(spaced) == vars(parse([*head, f"{flag}={value}"]))
        assert getattr(spaced, flag[2:].replace("-", "_")) == value

    def test_rates_with_negative_thresholds(self, tmp_path):
        tree = ("--family", "wide_uniform", "--params", '{"m": 4}', "--size", "50")
        forms = {"spaced": ("--thresholds", "-0.2,-0.1"), "joined": ("--thresholds=-0.2,-0.1",)}
        for out, form in forms.items():
            args = ("rates", "--pair", "bern75", *form, *tree, "--no-timestamp")
            assert run(*args, "--out", tmp_path / out) == 0
        for name in ("rates.csv", "bounds.csv"):
            spaced = (tmp_path / "spaced" / name).read_text()
            assert spaced == (tmp_path / "joined" / name).read_text()

    def test_seed_outside_the_key_range(self, tmp_path, capsys):
        code = run(
            *SIMULATE, "--family", "two_relay", "--size", "3", "--method", "mc",
            "--seed", str(2**64), "--out", tmp_path,
        )
        assert code == 1
        assert _error_line(capsys) == "error: seed must lie in [0, 2**63)"

    def test_malformed_bernoulli_parameter(self, tmp_path, capsys):
        assert run("exponent", "--pair", "bernoulli:abc", "--out", tmp_path) == 1
        assert _error_line(capsys).startswith("error: ")

    @pytest.mark.parametrize(
        "argv, given",
        [
            (("simulate", "--size", "5", "--gate", "or"), "--gate"),
            (("simulate", "--size", "5", "--thresholds", "0.3", "--gate", "or"),
             "--thresholds, --gate"),
            (("fit", "--sizes", "5,9", "--gamma", "identity", "--thresholds", "0"),
             "--gamma, --thresholds"),
        ],
        ids=["simulate_gate", "simulate_thresholds_gate", "fit_gamma_thresholds"],
    )
    def test_epsilon_with_explicit_strategy_flags(self, tmp_path, capsys, argv, given):
        # the recipe strategy would silently drop these flags
        family = ("--family", "wide_uniform", "--params", '{"m": 2}')
        code = run(argv[0], "--pair", "bern75", *family, *argv[1:], "--epsilon", "0.1",
                   "--out", tmp_path)
        assert code == 1
        message = f"error: --epsilon builds the recipe strategy; it cannot take {given}"
        assert _error_line(capsys) == message
        assert not [p for p in tmp_path.rglob("*") if p.is_file()]
