import functools
import hashlib
import json
import subprocess
import sys

import pytest

from qhecke import algebra, cli
from qhecke.algebra import TwistedOperator
from qhecke.config import Config, build_setting, emit_config, parse_config
from qhecke.errors import NonIntegralResult, ParseError, UnknownIndex
from qhecke.polyops import KERNEL_NAME, Poly, RatFun
from qhecke.presets import QuiverSpec, preset_klr, preset_nilhecke, preset_skew

from conftest import second_denominator
from oracles import integrality_sweep_all
from test_algebra import APPLY_PRESETS


@pytest.fixture(scope="module")
def nil_setting():
    return build_setting(preset_nilhecke("A2"))


class TestOpExpr:
    def test_unit_product(self, nil_setting):
        op = cli.parse_opexpr("1(0)*1(0)", nil_setting)
        assert op == cli.parse_opexpr("1(0)", nil_setting)

    def test_nilhecke_square_is_zero(self, nil_setting):
        assert cli.parse_opexpr("s(0,1)*s(0,1)", nil_setting).is_zero()

    def test_variable_commutator_is_zero(self, nil_setting):
        expr = "z(0,1)*z(0,0) - z(0,0)*z(0,1)"
        assert cli.parse_opexpr(expr, nil_setting).is_zero()

    def test_whitespace_insensitive(self, nil_setting):
        a = cli.parse_opexpr("s(0,0) * s(0,1)  +  2 * 1(0)", nil_setting)
        b = cli.parse_opexpr("s(0,0)*s(0,1)+2*1(0)", nil_setting)
        assert a == b

    def test_rational_scalars_and_parens(self, nil_setting):
        a = cli.parse_opexpr("(1/2) * (s(0,0) + s(0,1)) * 2", nil_setting)
        b = cli.parse_opexpr("s(0,0) + s(0,1)", nil_setting)
        assert a == b

    def test_leading_minus(self, nil_setting):
        a = cli.parse_opexpr("-s(0,0) + s(0,0)", nil_setting)
        assert a.is_zero()

    def test_parse_error_has_location(self, nil_setting):
        with pytest.raises(ParseError) as e:
            cli.parse_opexpr("s(0,0) + ", nil_setting)
        assert "position" in str(e.value)

    def test_unknown_index(self, nil_setting):
        with pytest.raises(UnknownIndex):
            cli.parse_opexpr("1(5)", nil_setting)
        with pytest.raises(UnknownIndex):
            cli.parse_opexpr("z(0,9)", nil_setting)
        with pytest.raises(UnknownIndex):
            cli.parse_opexpr("s(0,7)", nil_setting)


class TestConfig:
    def test_unknown_fields_rejected(self):
        with pytest.raises(ParseError):
            parse_config(json.dumps({"group": "A2", "bogus": 1}))
        with pytest.raises(ParseError):
            parse_config(json.dumps({"group": "A2", "options": {"mystery": True}}))

    def test_rationals_as_strings(self):
        text = json.dumps(
            {
                "group": "A2",
                "torus": [{"kind": "torsion", "values": ["1/2", 0]}],
                "springer": {"r": 0, "U": [], "V": []},
            }
        )
        cfg = parse_config(text)
        datum, sub, table, data = build_setting(cfg)
        assert len(table) == 3

    def test_mismatched_r_rejected(self):
        with pytest.raises(ParseError):
            parse_config(
                json.dumps(
                    {"group": "A2", "springer": {"r": 2, "U": ["positive_roots"], "V": []}}
                )
            )

    def test_roundtrip(self):
        cfg = preset_skew("B2")
        assert emit_config(parse_config(emit_config(cfg))) == emit_config(cfg)


def run_cli(args):
    proc = subprocess.run(
        [sys.executable, "-m", "qhecke.cli", *args],
        capture_output=True,
        text=True,
        timeout=600,
    )
    return proc


@pytest.fixture(scope="module")
def a2_config(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "a2.json"
    path.write_text(emit_config(preset_nilhecke("A2")) + "\n")
    return str(path)


@pytest.fixture(scope="module")
def halfint_config(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg2") / "halfint.json"
    cfg = {
        "group": "A2",
        "torus": [{"kind": "torsion", "values": ["1/2", "0"]}],
        "springer": {"r": 1, "U": ["positive_roots"], "V": ["all_roots"]},
    }
    path.write_text(json.dumps(cfg))
    return str(path)


class TestCommands:
    def test_describe(self, halfint_config):
        proc = run_cli(["describe", "--config", halfint_config])
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        assert report["result"]["coset_count"] == 3
        assert report["result"]["subsystem_order"] == 2
        assert set(report["result"]["legend"]) == {"0", "1", "2"}

    def test_check_passes(self, a2_config):
        proc = run_cli(["check", "--config", a2_config])
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        assert all(c["status"] == "pass" for c in report["checks"])

    def test_check_subset_selection(self, a2_config):
        proc = run_cli(["check", "--config", a2_config, "--checks", "relations,grading"])
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        prefixes = {c["name"].split(":")[0] for c in report["checks"]}
        assert prefixes == {"relations", "grading"}

    def test_reports_deterministic(self, halfint_config, tmp_path):
        out1 = tmp_path / "r1.json"
        out2 = tmp_path / "r2.json"
        for out in (out1, out2):
            proc = run_cli(["check", "--config", halfint_config, "--out", str(out)])
            assert proc.returncode == 0
        r1 = json.loads(out1.read_text())
        r2 = json.loads(out2.read_text())
        r1["timings"] = r2["timings"] = None
        assert r1 == r2

    def test_braid_command(self, a2_config):
        proc = run_cli(["braid", "--config", a2_config, "--i", "0", "--s", "0", "--t", "1"])
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        assert report["result"]["all_zero"] is True
        assert report["result"]["all_polynomial"] is True

    def test_braid_skew_values(self, tmp_path):
        path = tmp_path / "skew.json"
        path.write_text(emit_config(preset_skew("A2")))
        proc = run_cli(["braid", "--config", str(path), "--i", "0", "--s", "0", "--t", "1"])
        assert proc.returncode == 0
        rows = json.loads(proc.stdout)["result"]["coefficients"]
        by_word = {tuple(r["word"]): r for r in rows}
        assert by_word[(0,)]["coefficient"]["numerator"] == [[[0, 0], "1"]]
        assert by_word[(1,)]["coefficient"]["numerator"] == [[[0, 0], "-1"]]

    def test_act_command(self, a2_config):
        proc = run_cli(
            [
                "act",
                "--config",
                a2_config,
                "--expr",
                "s(0,0)",
                "--component",
                "0",
                "--poly",
                json.dumps([[[1, 0], "1"]]),
            ]
        )
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        # divided difference of the first simple root is -2
        assert report["result"]["image"] == {"0": [[[0, 0], "-2"]]}

    def test_localize_command(self, halfint_config):
        proc = run_cli(["localize", "--config", halfint_config])
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        assert all(c["status"] == "pass" for c in report["result"]["checks"])

    def test_localize_timings(self, a2_config, tmp_path):
        out = tmp_path / "localize.json"
        assert cli.main(["localize", "--config", a2_config, "--out", str(out)]) == 0
        timings = json.loads(out.read_text())["timings"]
        parts = ("generators_s", "matrices_s", "pathway_s", "intertwining_s")
        assert sorted(timings) == sorted(("total_s", "setup_s") + parts)
        # each figure is rounded to the millisecond on its own, so the sum
        # may pass total_s by half a millisecond per figure
        assert sum(timings[k] for k in ("setup_s",) + parts) <= timings["total_s"] + 0.003

    @pytest.mark.parametrize(
        "argv",
        [["localize"], ["check", "--checks", "localization"]],
        ids=["localize", "check-localization"],
    )
    def test_one_crossing_matrix_per_generator(self, monkeypatch, a2_config, tmp_path, argv):
        calls = []
        real = cli.localize.localize_sigma

        def counting(setting, i, s):
            calls.append((i, s))
            return real(setting, i, s)

        monkeypatch.setattr(cli.localize, "localize_sigma", counting)
        out = str(tmp_path / "report.json")
        assert cli.main(argv + ["--config", a2_config, "--out", out]) == 0
        # nil:A2's one coset and two simple reflections
        assert sorted(calls) == [(0, 0), (0, 1)]

    def test_euler_command(self, a2_config):
        proc = run_cli(["euler", "--config", a2_config])
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        assert len(report["result"]["lambda"]) == 6

    def test_preset_command_pipes_into_check(self, tmp_path):
        cfg_path = tmp_path / "klr.json"
        quiver = json.dumps(
            {"vertices": [1, 2], "arrows": [[1, 2]], "dimension": {"1": 1, "2": 1}}
        )
        proc = run_cli(["preset", "--name", "klr", "--quiver", quiver, "--out", str(cfg_path)])
        assert proc.returncode == 0
        proc = run_cli(
            ["check", "--config", str(cfg_path), "--checks", "relations,localization"]
        )
        assert proc.returncode == 0

    def test_bad_config_exit_code(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"group": "A2", "bogus": []}))
        proc = run_cli(["check", "--config", str(path)])
        assert proc.returncode == 2
        assert "error" in proc.stderr


class TestPresetDimensionVectorList:
    def test_dimension_as_list(self):
        cfg = cli.cmd_preset(
            "klr",
            json.dumps({"vertices": [1, 2], "arrows": [[1, 2]], "dimension": [1, 1]}),
        )
        datum, sub, table, data = build_setting(cfg)
        assert len(table) == 2


class TestMalformedConfigAtTheBoundary:
    """Malformed torus entries and U/V weights of the wrong length are parse
    errors (exit 2), not tracebacks or silent truncation."""

    def run_check(self, tmp_path, raw):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        return run_cli(["check", "--config", str(path), "--checks", "suitability"])

    @pytest.mark.parametrize("entry", [{"kind": "torsion"}, {"values": ["1/2", "0"]}])
    def test_torus_entry_missing_a_field(self, tmp_path, entry):
        proc = self.run_check(tmp_path, {"group": "A2", "torus": [entry]})
        assert proc.returncode == 2
        assert "error: torus entry needs fields" in proc.stderr
        assert "Traceback" not in proc.stderr
        with pytest.raises(ParseError):
            parse_config(json.dumps({"group": "A2", "torus": [entry]}))

    def test_weight_longer_than_the_ambient_rank(self, tmp_path):
        raw = {"group": "A2", "springer": {"r": 1, "U": [[[1, 0, 0]]], "V": ["all_roots"]}}
        proc = self.run_check(tmp_path, raw)
        assert proc.returncode == 2
        assert "error: springer.U weight [1, 0, 0] must be a list of 2 integers" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_weight_shorter_than_the_ambient_rank(self, tmp_path):
        raw = {"group": "A2", "springer": {"r": 1, "U": ["positive_roots"], "V": [[[1]]]}}
        proc = self.run_check(tmp_path, raw)
        assert proc.returncode == 2
        assert "error: springer.V weight [1] must be a list of 2 integers" in proc.stderr
        with pytest.raises(ParseError):
            build_setting(parse_config(json.dumps(raw)))

    def test_dependent_simple_roots(self, tmp_path):
        group = {
            "ambient_rank": 3,
            "simple_roots": [[1, -1, 0], [0, 1, -1], [1, 0, -1]],
            "coroots": [[1, -1, 0], [0, 1, -1], [1, 0, -1]],
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"group": group}))
        proc = run_cli(["describe", "--config", str(path)])
        assert proc.returncode == 2
        assert "error: simple_roots are linearly dependent" in proc.stderr
        assert "Traceback" not in proc.stderr


class TestMalformedInputToMain:
    """Malformed --poly, --quiver, operator scalars and options.checks are
    parse errors from `cli.main` (exit 2), not tracebacks, hangs or silent
    acceptance."""

    def assert_parse_error(self, capsys, argv, message):
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err

    @pytest.mark.parametrize(
        "pairs,message",
        [
            ([[[-1, 0], "1"]], "must be a list of 2 non-negative integers"),
            ([[[1], "1"]], "must be a list of 2 non-negative integers"),
            ([[[1, 0, 0, 0], "1"]], "must be a list of 2 non-negative integers"),
            ([[[True, 0], "1"]], "must be a list of 2 non-negative integers"),
            ([[1, 2]], "must be a list of 2 non-negative integers"),
            ([[[1, 0]]], "is not an [exponents, coefficient] pair"),
            ([[[1, 0], "1", "2"]], "is not an [exponents, coefficient] pair"),
            ([[[1, 0], "1/0"]], "bad coefficient"),
            ([[[1, 0], 0.5]], "bad coefficient"),
            ([[[1, 0], True]], "bad coefficient"),
            ({"x": 1}, "must be a list of pairs"),
            ([[[2**15, 0], "1"]], "reach total degree 32768, past the limit 32767"),
            ([[[2**14, 2**14], "0"]], "reach total degree 32768, past the limit 32767"),
            ([[[1, 0], "1"], [[1, 0], "-1"]], "exponents [1, 0] are repeated"),
        ],
        ids=[
            "negative-exponent", "short-exponents", "long-exponents", "bool-exponent",
            "not-a-pair", "one-entry", "three-entries", "zero-denominator",
            "float-coefficient", "bool-coefficient", "not-a-list", "degree-at-the-guard",
            "zero-term-at-the-guard", "repeated-exponents",
        ],
    )
    def test_act_poly(self, capsys, a2_config, pairs, message):
        argv = ["act", "--config", a2_config, "--expr", "s(0,0)", "--component", "0"]
        self.assert_parse_error(capsys, argv + ["--poly", json.dumps(pairs)], message)

    def test_repeated_exponents_write_no_report(self, capsys, a2_config, tmp_path):
        out = tmp_path / "act.json"
        argv = ["act", "--config", a2_config, "--expr", "1(0)", "--component", "0"]
        argv += ["--poly", '[[[1,0],"1"],[[1,0],"-1"]]', "--out", str(out)]
        self.assert_parse_error(capsys, argv, "exponents [1, 0] are repeated")
        assert not out.exists()

    @pytest.mark.parametrize(
        "quiver,message",
        [
            ({"arrows": [], "dimension": {"1": 2}}, "quiver needs fields ['vertices']"),
            ({"vertices": [1]}, "quiver needs fields ['arrows', 'dimension']"),
            ({"vertices": 1, "arrows": [], "dimension": {"1": 2}}, "vertices must be a list"),
            ({"vertices": [1], "arrows": [1], "dimension": {"1": 2}}, "arrows must be a list"),
            ({"vertices": [1], "arrows": [], "dimension": 2}, "dimension must be an object"),
            ({"vertices": [1], "arrows": [], "dimension": [[2]]}, "dimension must be an object"),
            ([1, 2], "quiver must be a JSON object"),
            ({"vertices": ["a"], "arrows": [], "dimension": [2, 3]},
             "dimension list needs one entry per vertex"),
            ({"vertices": ["a", "b"], "arrows": [], "dimension": [2]},
             "dimension list needs one entry per vertex"),
            ({"vertices": ["a", "a"], "arrows": [], "dimension": {"a": 1}},
             "vertex names must be unique"),
            ({"vertices": [1, "1"], "arrows": [], "dimension": [1, 1]},
             "vertex names must be unique"),
            ({"vertices": ["a", "b"], "arrows": [], "dimension": {"a": -1, "b": 3}},
             "quiver dimension at 'a' must be at least 0, got -1"),
            ({"vertices": ["a", "b"], "arrows": [], "dimension": [-1, 3]},
             "quiver dimension at 'a' must be at least 0, got -1"),
            ({"vertices": ["a"], "arrows": [], "dimension": {"a": True}},
             "quiver dimension at 'a' must be an integer, got True"),
            ({"vertices": ["a"], "arrows": [], "dimension": [True]},
             "quiver dimension at 'a' must be an integer, got True"),
            ({"vertices": ["a"], "arrows": [], "dimension": {"a": 1.5}},
             "must be an object or a list, got {'a': 1.5}"),
            ({"vertices": ["a"], "arrows": [], "dimension": {"a": "2"}},
             "quiver dimension at 'a' must be an integer, got '2'"),
            ({"vertices": ["a"], "arrows": [], "dimension": ["2"]},
             "quiver dimension at 'a' must be an integer, got '2'"),
        ],
        ids=[
            "missing-vertices", "missing-arrows-and-dimension", "vertices-not-a-list",
            "arrow-not-a-pair", "dimension-not-a-collection", "dimension-value-a-list",
            "not-an-object", "dimension-list-too-long", "dimension-list-too-short",
            "duplicate-vertex", "vertex-names-collide-as-keys",
            "negative-dimension", "negative-dimension-list", "bool-dimension",
            "bool-dimension-list", "float-dimension", "string-dimension",
            "string-dimension-list",
        ],
    )
    def test_preset_quiver(self, capsys, quiver, message):
        argv = ["preset", "--name", "klr", "--quiver", json.dumps(quiver)]
        self.assert_parse_error(capsys, argv, message)

    def test_zero_denominator_scalar(self, capsys, nil_setting, a2_config):
        with pytest.raises(ParseError):
            cli.parse_opexpr("1/0", nil_setting)
        argv = ["act", "--config", a2_config, "--expr", "s(0,0) + 1/0"]
        self.assert_parse_error(capsys, argv, "zero denominator")

    @pytest.mark.parametrize(
        "raw,message",
        [
            ({"springer": {"r": 1, "U": [[[1.7, 0]]], "V": ["all_roots"]}},
             "springer.U weight entry must be an integer, got 1.7"),
            ({"springer": {"r": 1, "U": [[[True, 0]]], "V": ["all_roots"]}},
             "springer.U weight entry must be an integer, got True"),
            ({"springer": {"r": 1, "U": ["positive_roots"], "V": [[["1", 0]]]}},
             "springer.V weight entry must be an integer, got '1'"),
            ({"torus": 5}, "torus must be a list, got 5"),
            ({"springer": 5}, "springer must be an object, got 5"),
            ({"options": 5}, "options must be an object, got 5"),
            ({"springer": {"r": 0, "U": {}, "V": []}}, "springer.U must be a list"),
            ({"options": {"strict_suitability": "no"}},
             "options.strict_suitability must be true or false, got 'no'"),
            ({"options": {"strict_suitability": 1}},
             "options.strict_suitability must be true or false, got 1"),
        ],
        ids=[
            "float-weight", "bool-weight", "string-weight", "torus-not-a-list",
            "springer-not-an-object", "options-not-an-object", "U-not-a-list",
            "strict-string", "strict-int",
        ],
    )
    def test_config_of_the_wrong_type(self, capsys, tmp_path, raw, message):
        text = json.dumps({"group": "A2", **raw})
        with pytest.raises(ParseError):
            build_setting(parse_config(text))
        path = tmp_path / "cfg.json"
        path.write_text(text)
        self.assert_parse_error(capsys, ["describe", "--config", str(path)], message)

    @pytest.mark.parametrize(
        "checks", ["coset", ["coset", 1], {"coset": True}], ids=["string", "int-entry", "object"]
    )
    def test_checks_not_a_list_of_names(self, capsys, tmp_path, checks):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"group": "A2", "options": {"checks": checks}}))
        with pytest.raises(ParseError):
            parse_config(path.read_text())
        self.assert_parse_error(
            capsys, ["check", "--config", str(path)], "options.checks must be a list"
        )

    @pytest.mark.parametrize(
        "checks", ["", "coset,coset", "coset,,coset"], ids=["empty", "repeated", "empty-name"]
    )
    def test_checks_argument_not_distinct_names(self, capsys, a2_config, checks):
        self.assert_parse_error(
            capsys,
            ["check", "--config", a2_config, "--checks", checks],
            "check suites must be a non-empty list of distinct names",
        )

    @pytest.mark.parametrize(
        "checks", [[], [""], ["coset", "coset"], ["coset", "", "length"]],
        ids=["empty", "empty-name", "repeated", "empty-name-between"],
    )
    def test_checks_option_not_distinct_names(self, capsys, tmp_path, checks):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"group": "A2", "options": {"checks": checks}}))
        with pytest.raises(ParseError):
            cli.run_checks(parse_config(path.read_text()))
        self.assert_parse_error(
            capsys,
            ["check", "--config", str(path)],
            "check suites must be a non-empty list of distinct names",
        )


class TestIntegerFields:
    """options.degree_bound, options.seed and springer.r must be ints (not
    bools); degree_bound and r, like --degree-bound, must be >= 0, and the
    degree bound at most the kernel's top degree 32767."""

    def write(self, tmp_path, options=None, springer=None):
        raw = {"group": "A2"}
        if options is not None:
            raw["options"] = options
        if springer is not None:
            raw["springer"] = springer
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        return str(path)

    @pytest.mark.parametrize(
        "options,springer,message",
        [
            ({"degree_bound": [1]}, None, "options.degree_bound must be an integer"),
            ({"degree_bound": "4"}, None, "options.degree_bound must be an integer"),
            ({"degree_bound": 2.0}, None, "options.degree_bound must be an integer"),
            ({"degree_bound": True}, None, "options.degree_bound must be an integer"),
            ({"degree_bound": -1}, None, "options.degree_bound must be at least 0"),
            ({"seed": "0"}, None, "options.seed must be an integer"),
            ({"seed": False}, None, "options.seed must be an integer"),
            (None, {"r": "1", "U": [], "V": []}, "springer.r must be an integer"),
            (None, {"r": True, "U": ["positive_roots"], "V": ["all_roots"]},
             "springer.r must be an integer"),
            (None, {"r": -1, "U": [], "V": []}, "springer.r must be at least 0"),
        ],
        ids=[
            "bound-list", "bound-string", "bound-float", "bound-bool", "bound-negative",
            "seed-string", "seed-bool", "r-string", "r-bool", "r-negative",
        ],
    )
    def test_config_field(self, capsys, tmp_path, options, springer, message):
        path = self.write(tmp_path, options, springer)
        assert cli.main(["check", "--config", path, "--checks", "coset"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err

    def test_negative_seed_is_accepted(self, tmp_path):
        path = self.write(tmp_path, {"seed": -3})
        assert parse_config(open(path).read()).seed == -3

    @pytest.mark.parametrize("suite", ["integrality", "products"])
    def test_negative_degree_bound_flag(self, capsys, a2_config, suite):
        argv = ["check", "--config", a2_config, "--checks", suite, "--degree-bound", "-1"]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "--degree-bound must be at least 0" in err

    @pytest.mark.parametrize("spelling", ["--degree-bound", "options.degree_bound"])
    def test_degree_bound_past_the_kernel_fields(self, capsys, tmp_path, spelling):
        # on a rank-1 datum the monomial x0^32768 is reached at once; it is
        # refused as input before any monomial is built
        raw = {"group": {"ambient_rank": 1, "simple_roots": [[1]], "coroots": [[2]]}}
        argv = ["check", "--checks", "integrality"]
        if spelling == "--degree-bound":
            argv += ["--degree-bound", "32768"]
        else:
            raw["options"] = {"degree_bound": 32768}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        assert cli.main(argv + ["--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"{spelling} must be at most 32767" in err

    def test_zero_degree_bound_flag_runs(self, capsys, a2_config):
        argv = ["check", "--config", a2_config, "--checks", "integrality", "--degree-bound", "0"]
        assert cli.main(argv) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["checks"][0]["details"] == "degree bound 0"


# every setting the operator tests apply generators on, the ten presets of the
# check-matrix benchmark workload, and KLR arrow (3,2)
INTEGRALITY_PRESETS = {
    **APPLY_PRESETS,
    **{
        f"{family}:{label}": preset(label)
        for family, preset in (("nil", preset_nilhecke), ("skew", preset_skew))
        for label in ("A2", "B2", "G2", "A3")
    },
    "klr-arrow-3-2": preset_klr(QuiverSpec((1, 2), ((1, 2),), {1: 3, 2: 2})),
}


@functools.cache
def integrality_setting(key):
    return build_setting(INTEGRALITY_PRESETS[key])


def divides(op) -> bool:
    """Whether some coefficient of op has a non-constant denominator."""
    return any(not c.den.is_constant() for c in op.terms.values())


class TestIntegralitySuite:
    """The suite applies only the generators with a non-constant
    denominator; the full sweep `integrality_sweep_all` is its oracle."""

    @pytest.mark.parametrize("bound", range(5))
    @pytest.mark.parametrize("key", sorted(INTEGRALITY_PRESETS))
    def test_same_result_as_the_full_sweep(self, key, bound):
        setting = integrality_setting(key)
        assert cli._integrality_checks(setting, bound) == integrality_sweep_all(setting, bound)

    @pytest.mark.parametrize("key", sorted(INTEGRALITY_PRESETS))
    def test_applies_exactly_the_generators_that_divide(self, monkeypatch, key):
        setting = integrality_setting(key)
        applied = {}
        real = TwistedOperator.apply

        def spy(op, m):
            applied[id(op)] = op
            return real(op, m)

        monkeypatch.setattr(TwistedOperator, "apply", spy)
        cli._integrality_checks(setting, 1)
        # none on skew and loop presets, whose crossing coefficients q/alpha
        # reduce to polynomials
        assert all(divides(op) for op in applied.values())
        assert len(applied) == sum(divides(gen) for _, gen in cli._all_generators(setting))


class TestIntegralityFailures:
    """`--checks integrality` on generators that do not stay polynomial."""

    QUIVER = json.dumps({"vertices": [1, 2], "arrows": [[1, 2]], "dimension": [2, 2]})

    @pytest.fixture(params=["nilhecke:A2", "klr"], ids=["nil-A2", "klr-arrow-2-2"])
    def cfg(self, request):
        return cli.cmd_preset(request.param, self.QUIVER if request.param == "klr" else None)

    def run(self, capsys, tmp_path, cfg):
        path = tmp_path / "cfg.json"
        path.write_text(emit_config(cfg))
        argv = ["check", "--config", str(path), "--checks", "integrality"]
        assert cli.main(argv) == 1
        out, err = capsys.readouterr()
        assert "FAILED: integrality:generators-integral" in err
        (check,) = json.loads(out)["checks"]
        assert check["status"] == "fail" and check["details"] == "degree bound 4"
        setting = build_setting(cfg)
        assert cli._integrality_checks(setting, 4) == integrality_sweep_all(setting, 4)
        return check["counterexample"]

    def assert_nonintegral(self, gen, component, monomial):
        n = len(monomial)
        with pytest.raises(NonIntegralResult):
            gen.apply({component: Poly.monomial(n, monomial)})

    def test_crossing_over_alpha_squared(self, capsys, monkeypatch, tmp_path, cfg):
        real = algebra.gen_sigma

        def over_alpha_squared(setting, i, s):
            sig = real(setting, i, s)
            if not setting.table.stab(i, s):
                return sig
            alpha = Poly.linear(setting.datum.simple_roots[s])
            terms = {k: RatFun(c.num, c.den * alpha, reduce=False) for k, c in sig.terms.items()}
            return TwistedOperator(setting.table, terms)

        monkeypatch.setattr(algebra, "gen_sigma", over_alpha_squared)
        bad = self.run(capsys, tmp_path, cfg)
        assert set(bad) == {"generator", "component", "monomial"}
        assert bad["generator"].startswith("crossing(")
        i, s = map(int, bad["generator"][len("crossing(") : -1].split(","))
        gen = over_alpha_squared(build_setting(cfg), i, s)
        self.assert_nonintegral(gen, bad["component"], bad["monomial"])

    def test_variable_over_a_linear_form_is_swept(self, capsys, monkeypatch, tmp_path, cfg):
        # a variable generator with a non-constant denominator is applied
        # like a crossing: the suite keys on denominators, not on kinds
        real = algebra.gen_var

        def over_alpha(table, i, t):
            alpha = Poly.linear(table.sub.datum.simple_roots[0])
            terms = {k: RatFun(c.num, alpha) for k, c in real(table, i, t).terms.items()}
            return TwistedOperator(table, terms)

        monkeypatch.setattr(algebra, "gen_var", over_alpha)
        bad = self.run(capsys, tmp_path, cfg)
        assert bad["generator"].startswith("var(")
        i, t = map(int, bad["generator"][len("var(") : -1].split(","))
        gen = over_alpha(build_setting(cfg).table, i, t)
        self.assert_nonintegral(gen, bad["component"], bad["monomial"])


class TestPresetLabel:
    """`qhecke preset` validates a Cartan or GL label when it writes the
    config, with the check `describe` applies when it reads it."""

    @pytest.mark.parametrize(
        "name,message",
        [
            ("nilhecke:D5", "unsupported label 'D5'"),
            ("skew:Z9", "unsupported label 'Z9'"),
            ("skew:E6", "unsupported label 'E6'"),
            ("nilhecke:", "unsupported label ''"),
            ("nilhecke:GL10", "past the enumeration bound 2,000,000"),
        ],
    )
    def test_unknown_label_is_refused(self, capsys, tmp_path, name, message):
        path = tmp_path / "cfg.json"
        assert cli.main(["preset", "--name", name, "--out", str(path)]) == 2
        out, err = capsys.readouterr()
        assert err.startswith("error: ") and message in err
        assert not out and not path.exists()

    @pytest.mark.parametrize("name", ["nilhecke:B2", "skew:G2", "nilhecke:GL3", "skew:c3"])
    def test_accepted_label_describes(self, capsys, tmp_path, name):
        path = tmp_path / "cfg.json"
        assert cli.main(["preset", "--name", name, "--out", str(path)]) == 0
        assert cli.main(["describe", "--config", str(path)]) == 0


class TestActPoly:
    def test_poly_without_component_is_refused(self, capsys, a2_config):
        argv = ["act", "--config", a2_config, "--expr", "s(0,0)", "--poly", '[[[5,0],"1"]]']
        assert cli.main(argv) == 2
        assert "--poly needs --component" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["{}", "0", ""], ids=["object", "zero", "empty"])
    def test_falsy_poly_is_refused(self, capsys, a2_config, text):
        argv = ["act", "--config", a2_config, "--expr", "1(0)", "--component", "0"]
        assert cli.main(argv + ["--poly", text]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_empty_list_is_the_zero_polynomial(self, capsys, a2_config):
        argv = ["act", "--config", a2_config, "--expr", "1(0)", "--component", "0"]
        assert cli.main(argv + ["--poly", "[]"]) == 0
        assert json.loads(capsys.readouterr().out)["result"]["image"] == {}
        assert cli.main(argv) == 0
        image = json.loads(capsys.readouterr().out)["result"]["image"]
        assert image == {"0": [[[0, 0], "1"]]}


class TestExitCodes:
    def test_broken_invariant_exits_3(self, capsys, monkeypatch, tmp_path):
        from qhecke import repdata

        path = tmp_path / "skew.json"
        path.write_text(emit_config(preset_skew("A2")))
        real = repdata.h_count
        monkeypatch.setattr(repdata, "h_count", lambda *args: real(*args) + 1)
        assert cli.main(["describe", "--config", str(path)]) == 3
        assert capsys.readouterr().err.startswith("internal invariant broken: q != alpha_s^h")

    def test_divisibility_failure_exits_3(self, capsys, monkeypatch, a2_config):
        from qhecke.errors import InternalInvariantError

        def broken(*args):
            raise InternalInvariantError("exact division failed")

        monkeypatch.setattr(cli.localize, "lambda_table", broken)
        assert cli.main(["euler", "--config", a2_config]) == 3
        assert "exact division failed" in capsys.readouterr().err

    def test_product_past_the_kernel_fields_exits_3(self, capsys, a2_config):
        # x0 times x0^32767: one term, but its degree reaches the guard bit
        argv = ["act", "--config", a2_config, "--expr", "z(0,0)", "--component", "0"]
        assert cli.main(argv + ["--poly", json.dumps([[[2**15 - 1, 0], "1"]])]) == 3
        assert "reaches degree 32768" in capsys.readouterr().err

    def test_a_second_denominator_in_a_row_exits_3(self, capsys, monkeypatch, a2_config):
        real = cli.localize.localize_sigma
        monkeypatch.setattr(cli.localize, "localize_sigma", second_denominator(real))
        assert cli.main(["check", "--config", a2_config, "--checks", "localization"]) == 3
        assert "has two denominators" in capsys.readouterr().err


class TestOnlyTypedErrorsAreBadInput:
    """Bad input raises a typed error where it is validated and exits 2;
    any other exception is a bug, printed with its traceback, exit 3."""

    def assert_bad_input(self, capsys, argv, message):
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err, err

    def config(self, tmp_path, raw):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        return str(path)

    def test_unknown_torus_kind(self, capsys, tmp_path):
        path = self.config(tmp_path, {"group": "A2", "torus": [{"kind": "bogus", "values": [0, 0]}]})
        self.assert_bad_input(capsys, ["describe", "--config", path], "unknown constraint kind 'bogus'")

    def test_gl_group_past_the_enumeration_bound(self, capsys, tmp_path):
        path = self.config(tmp_path, {"group": "GL10"})
        self.assert_bad_input(
            capsys, ["describe", "--config", path], "GL10 has a Weyl group of 10! = 3,628,800"
        )

    def test_torus_vector_of_the_wrong_length(self, capsys, tmp_path):
        path = self.config(tmp_path, {"group": "A2", "torus": [{"kind": "torsion", "values": ["1/2"]}]})
        self.assert_bad_input(
            capsys, ["describe", "--config", path], "constraint vector has length 1, ambient rank is 2"
        )

    @pytest.mark.parametrize(
        "group,s,t,order", [("A2", 0, 0, 1), ("A3", 0, 2, 2)], ids=["same", "commuting"]
    )
    def test_braid_pair_of_the_wrong_order(self, capsys, tmp_path, group, s, t, order):
        path = self.config(tmp_path, {"group": group})
        argv = ["braid", "--config", path, "--i", "0", "--s", str(s), "--t", str(t)]
        self.assert_bad_input(capsys, argv, f"order 3, 4 or 6; got order {order}")

    def test_poly_not_json(self, capsys, a2_config):
        argv = ["act", "--config", a2_config, "--expr", "1(0)", "--component", "0"]
        self.assert_bad_input(capsys, argv + ["--poly", "[[[1,0],"], "bad JSON in --poly")

    def test_quiver_not_json(self, capsys):
        argv = ["preset", "--name", "klr", "--quiver", "{'vertices': [1]}"]
        self.assert_bad_input(capsys, argv, "bad JSON in --quiver")

    def test_quiver_arrow_to_an_unknown_vertex(self, capsys):
        quiver = {"vertices": [1, 2], "arrows": [[1, 3]], "dimension": [1, 1]}
        argv = ["preset", "--name", "klr", "--quiver", json.dumps(quiver)]
        self.assert_bad_input(capsys, argv, "quiver arrow (1, 3) touches an unknown vertex")

    @pytest.mark.parametrize("expr", ["1(-)", "1(\u00b2)"], ids=["bare-minus", "superscript-digit"])
    def test_integer_that_int_refuses(self, capsys, a2_config, expr):
        argv = ["act", "--config", a2_config, "--expr", expr]
        self.assert_bad_input(capsys, argv, "(at position 2)")

    def test_expression_nested_too_deeply(self, capsys, a2_config):
        argv = ["act", "--config", a2_config, "--expr", "(" * 5000 + "1(0)" + ")" * 5000]
        self.assert_bad_input(capsys, argv, "expression nested too deeply")

    def test_unexpected_exception_exits_3(self, capsys, monkeypatch, a2_config):
        def broken(cfg):
            raise KeyError("a bug")

        monkeypatch.setattr(cli, "cmd_describe", broken)
        assert cli.main(["describe", "--config", a2_config]) == 3
        err = capsys.readouterr().err
        assert "Traceback" in err and "KeyError: 'a bug'" in err


class TestParserBuiltOnce:
    def test_two_calls_share_one_parser(self, capsys, monkeypatch, a2_config):
        import argparse

        built = []
        real = argparse.ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            built.append(self)
            real(self, *args, **kwargs)

        cli._parser.cache_clear()
        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        assert cli.main(["describe", "--config", a2_config]) == 0
        first = len(built)
        assert first > 0
        assert cli.main(["euler", "--config", a2_config]) == 0
        assert len(built) == first

    def test_bad_flag_after_a_good_call_exits_2(self, capsys, a2_config):
        assert cli.main(["describe", "--config", a2_config]) == 0
        with pytest.raises(SystemExit) as exc:
            cli.main(["describe", "--config", a2_config, "--bogus"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --bogus" in capsys.readouterr().err
        assert cli.main(["describe", "--config", a2_config]) == 0


class TestCheckTimings:
    def test_check_report_times_each_suite(self, capsys, a2_config):
        assert cli.main(["check", "--config", a2_config, "--checks", "coset,euler"]) == 0
        timings = json.loads(capsys.readouterr().out)["timings"]
        assert set(timings) == {"total_s", "setup_s", "suites", "kernel", "sizes"}
        assert set(timings["suites"]) == {"coset", "euler"}
        assert all(isinstance(v, float) and v >= 0 for v in timings["suites"].values())
        assert isinstance(timings["setup_s"], float) and timings["setup_s"] >= 0
        assert timings["setup_s"] + sum(timings["suites"].values()) <= timings["total_s"] + 0.002

    def test_check_report_names_kernel_and_sizes(self, capsys, tmp_path):
        # KLR on the arrow 1 -> 2 with dimension (2, 1): GL3 cut to GL2 x GL1,
        # so |W_big| = 6, |W| = 2 and 3 cosets
        quiver = {"vertices": [1, 2], "arrows": [[1, 2]], "dimension": [2, 1]}
        path = tmp_path / "klr.json"
        path.write_text(emit_config(cli.cmd_preset("klr", json.dumps(quiver))))
        assert cli.main(["check", "--config", str(path), "--checks", "coset,euler"]) == 0
        report = json.loads(capsys.readouterr().out)
        timings = report["timings"]
        assert timings["kernel"] == KERNEL_NAME
        assert report["checks"]
        assert timings["sizes"] == {
            "big_group_order": 6,
            "group_order": 2,
            "cosets": 3,
            "checks": len(report["checks"]),
        }


def _as_loaded(value):
    """A report as `json.loads` gives it back: tuples become lists."""
    if isinstance(value, dict):
        return {k: _as_loaded(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_as_loaded(v) for v in value]
    return value


class TestCompactEmission:
    """Every report is written as one line of compact JSON with sorted
    keys, on stdout and with --out, and parses back to the report."""

    QUIVER_11 = json.dumps({"vertices": [1, 2], "arrows": [[1, 2]], "dimension": [1, 1]})
    COMMANDS = {
        "act": ["--expr", "s(0,0)*z(0,0)"],
        "braid": ["--i", "0", "--s", "0", "--t", "1"],
        "check": [],
        "describe": [],
        "euler": [],
        "localize": [],
    }

    @pytest.fixture(scope="class", params=["nilhecke:A2", "klr"], ids=["nil-A2", "klr-arrow-1-1"])
    def config(self, request, tmp_path_factory):
        cfg = cli.cmd_preset(request.param, self.QUIVER_11 if request.param == "klr" else None)
        path = tmp_path_factory.mktemp("emission") / "config.json"
        path.write_text(emit_config(cfg))
        return request.param, str(path)

    @pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out"])
    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_one_line_of_sorted_keys(self, capsys, monkeypatch, tmp_path, config, command, to_file):
        preset, path = config
        emitted = []
        real = cli._emit

        def spy(report, out_path):
            emitted.append(report)
            real(report, out_path)

        monkeypatch.setattr(cli, "_emit", spy)
        out = tmp_path / "report.json"
        argv = [command, "--config", path, *self.COMMANDS[command]]
        code = cli.main(argv + ["--out", str(out)] if to_file else argv)
        text = out.read_text() if to_file and out.exists() else capsys.readouterr().out
        if preset == "klr" and command == "braid":
            # GL2 has one simple reflection: no pair to braid, no report
            assert (code, emitted, text) == (2, [], "")
            return
        assert code == 0
        assert text.endswith("\n") and text.count("\n") == 1
        assert json.loads(text) == _as_loaded(emitted[0])
        objects = []
        json.loads(text, object_pairs_hook=lambda pairs: objects.append([k for k, _ in pairs]))
        assert len(objects) > 1 and all(keys == sorted(keys) for keys in objects)


class TestPinnedReports:
    """The localize and euler reports, and for explicit weights also the
    check report, `timings` removed, are pinned by sha256: a change of basis
    or of arithmetic inside the pathways must leave every reported entry
    and verdict as it was."""

    QUIVER_11 = json.dumps({"vertices": [1, 2], "arrows": [[1, 2]], "dimension": [1, 1]})
    PINNED = {
        ("nilhecke:A2", "localize"): "8c7cf14bd3e05398d777b9f6de90fab1f0efbc28cc30fd572f13d4754e2c014e",
        ("nilhecke:A2", "euler"): "2cdd5989c369927cb0b38649c2f42e857d88ea179a13dd103ab554959c486e56",
        ("skew:B2", "localize"): "d3063e4ddea796d0062fdd452603430886f2f67788aeb47fadef26c6f4e8fea1",
        ("skew:B2", "euler"): "ff13c4f519a5ff03d9861a7820cd9d0151cae9f0eaa7321b2a2f8053425c3bc2",
        # KLR on the arrow 1 -> 2 with dimension (1, 1): two cosets
        ("klr", "localize"): "6d3c6b29fd46163e19aa9e00bb9dabe269cbe92195c62d97df56c64b71cba92a",
        ("klr", "euler"): "95525af941fc51256cd98184f04ba63d995be41d4085175b13924381d5c00a1d",
    }

    # explicit U/V weights, off the presets' path: (config, command) ->
    # (exit code, sha256).  `check` fails on both A2 configs (suitability;
    # on the second, whose V holds the non-root (2, 0), also q-translation
    # and localization), and so does that config's `localize`
    EXPLICIT = {
        "A2-U10-all-roots": Config(group="A2", r=1, U=[[[1, 0]]], V=["all_roots"]),
        "A2-U10-V20-11": Config(group="A2", r=1, U=[[[1, 0]]], V=[[[2, 0], [1, 1]]]),
        "B2-two-copies-one-empty-V": Config(
            group="B2", r=2, U=["positive_roots"] * 2, V=["all_roots", []]
        ),
    }
    PINNED_EXPLICIT = {
        ("A2-U10-all-roots", "check"): (1, "117899b841ea43b32af4c4bd844804f4f38c24106f5e66a62e090a6689b9124a"),
        ("A2-U10-all-roots", "euler"): (0, "9339b71b79e5f0ce3bc20ecccff4532bd8c4e83c83d8717ae40c082dbdfa1950"),
        ("A2-U10-all-roots", "localize"): (0, "53ce1b978e29f97a71fb581189aedd64b50549cd9a6e0410646f5605f881ac69"),
        ("A2-U10-V20-11", "check"): (1, "03a8e0aaae0b13bdea4c0c6228e810a5b128c6407b80ac9dd345c69e71b43714"),
        ("A2-U10-V20-11", "euler"): (0, "d3ef31f255ac969cd6df5e3271ae596a4c8b7d902565733494bc5f434f42bb88"),
        ("A2-U10-V20-11", "localize"): (1, "3bc4541bf0b5db1f68c8d6335505b6907063f85101cdd28efbb0c679419cd3f9"),
        ("B2-two-copies-one-empty-V", "check"): (0, "ef6fb35b5068b6f46d20abcf2a006dbc8587aa42611e092e5b8837230e5d116f"),
        ("B2-two-copies-one-empty-V", "euler"): (0, "c41c7549e3991152b72c9dffd7845818b8f3b325a9e4c17cf89fe64d1be3396c"),
        ("B2-two-copies-one-empty-V", "localize"): (0, "76911bb8f42c86c7a2cc2bf8350e89a9383c035e3057ed9e3dc08e386dad499a"),
    }

    @staticmethod
    def run(tmp_path, cfg, command):
        """(exit code, sha256 of the report without `timings`)."""
        path = tmp_path / "config.json"
        out = tmp_path / "report.json"
        path.write_text(emit_config(cfg))
        code = cli.main([command, "--config", str(path), "--out", str(out)])
        report = json.loads(out.read_text())
        del report["timings"]
        text = json.dumps(report, indent=2, sort_keys=True)
        return code, hashlib.sha256(text.encode()).hexdigest()

    @pytest.mark.parametrize("preset,command", sorted(PINNED))
    def test_report_hash(self, tmp_path, preset, command):
        quiver = self.QUIVER_11 if preset == "klr" else None
        cfg = cli.cmd_preset(preset, quiver)
        assert self.run(tmp_path, cfg, command) == (0, self.PINNED[(preset, command)])

    @pytest.mark.parametrize("config,command", sorted(PINNED_EXPLICIT))
    def test_explicit_weight_report_hash(self, tmp_path, config, command):
        got = self.run(tmp_path, self.EXPLICIT[config], command)
        assert got == self.PINNED_EXPLICIT[(config, command)]

    def test_a_failed_check_reports_its_first_counterexample(self, tmp_path):
        # q-translation fails at (s_0, s = 0) and (s_0, s = 1); the scan
        # runs s inside the element, so s = 0 comes first
        path, out = tmp_path / "config.json", tmp_path / "report.json"
        path.write_text(emit_config(self.EXPLICIT["A2-U10-V20-11"]))
        argv = ["check", "--config", str(path), "--checks", "euler", "--out", str(out)]
        assert cli.main(argv) == 1
        (check,) = [c for c in json.loads(out.read_text())["checks"] if c["status"] == "fail"]
        assert check["name"] == "euler:q-translation"
        assert check["counterexample"] == {"element": [1], "s": 0}
