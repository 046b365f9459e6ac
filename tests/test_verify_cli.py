"""The CLI contract: exit codes, JSON errors, goldens and the commands,
run in process through the ``run_cli`` fixture.  ``python -m spankit``
runs in a new process only where the process is under test: the hang
guards with a timeout, reruns in separate processes, and one smoke run
per subcommand."""

import concurrent.futures
import json
import pathlib
import random
import subprocess
import sys
import time

import pytest

from spankit import pushpull, verify

GOLDEN = pathlib.Path(__file__).parent / "golden"


def run_process(*argv, timeout=None):
    """python -m spankit in a new interpreter, from the import path of
    the tests."""
    return subprocess.run([sys.executable, "-m", "spankit", *argv],
                          capture_output=True, text=True, timeout=timeout)


def run_processes(*argvs):
    """run_process on each argv, the processes side by side."""
    with concurrent.futures.ThreadPoolExecutor(len(argvs)) as pool:
        return list(pool.map(lambda argv: run_process(*argv), argvs))


class TestVerifySuites:
    def test_all_suites_pass(self):
        results = verify.run_suite("all", seed=0, bound=3)
        failures = [(s, p, d) for s, p, ok, d in results if not ok]
        assert not failures, failures

    def test_filling_uniqueness_recovers_the_conjugation(self):
        for seed in range(5):
            assert verify.check_filling_uniqueness(random.Random(seed),
                                                   3) is None

    def test_filling_uniqueness_rejects_a_wrong_psi(self, monkeypatch):
        # a solver that answers (d, conjugate) with the identities of
        # (d, d), or with a psi of spare degrees of freedom, must fail
        solve = pushpull.filling_iso_solutions
        monkeypatch.setattr(pushpull, "filling_iso_solutions",
                            lambda d1, d2: solve(d1, d1))
        assert "misses the planted psi" in verify.check_filling_uniqueness(
            random.Random(0), 3)
        monkeypatch.setattr(pushpull, "filling_iso_solutions",
                            lambda d1, d2: (solve(d1, d2)[0], 1))
        assert "leaves dof 1" in verify.check_filling_uniqueness(
            random.Random(0), 3)

    def test_unknown_suite_rejected(self):
        with pytest.raises(KeyError):
            verify.run_suite("nonsense")

    def test_seed_controls_reproducibility(self):
        a = verify.run_suite("posets", seed=7, bound=3)
        b = verify.run_suite("posets", seed=7, bound=3)
        assert a == b


class TestExitCodes:
    def test_success_is_zero(self, run_cli):
        out = run_cli("enumerate", "sigma", "2")
        assert out.returncode == 0
        assert json.loads(out.stdout)["count"] == 6

    def test_property_failure_is_one(self, run_cli, monkeypatch):
        monkeypatch.setattr(verify, "run_suite",
                            lambda *a, **k: [("posets", "demo", False,
                                             "synthetic failure")])
        out = run_cli("verify", "posets")
        assert out.returncode == 1
        assert json.loads(out.stdout)["failures"] == 1

    def test_malformed_input_is_two(self, run_cli, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        out = run_cli("compose", "--kind", "span", str(bad), str(bad))
        assert out.returncode == 2
        assert "error" in json.loads(out.stderr)

    @pytest.mark.parametrize("argv, text", [
        (["crw", "cohomology"],
         '{"generators": [{"name": "x", "parity": 0, "weight": 1}], '
         '"relations": [{"1": BIG}]}'),
        (["compose", "--kind", "span"],
         '{"left_foot": [BIG], "apex": [], "right_foot": [], '
         '"left_map": {}, "right_map": {}}'),
        (["compose", "--kind", "vertical"], '{"dims": {"a|b": BIG}}'),
    ], ids=["coefficient", "foot", "dims"])
    def test_integer_past_the_digit_limit_is_two(self, run_cli, tmp_path,
                                                 argv, text):
        # json.load cannot turn an integer literal of more than 4300
        # digits into an int
        f = tmp_path / "doc.json"
        f.write_text(text.replace("BIG", "9" * 5001))
        files = [str(f)] * (2 if argv[0] == "compose" else 1)
        out = run_cli(*argv, *files)
        assert out.returncode == 2
        assert out.stdout == ""
        assert list(json.loads(out.stderr)) == ["error"]

    @pytest.mark.parametrize("coeff, code", [
        ("1e4000000", 2), ("1e999999999", 2), ("-2E-5000", 2),
        ("1.5", 0), ("1e5", 0), ("3/4", 0),
    ])
    def test_decimal_exponent_past_the_digit_limit_is_two(self, tmp_path,
                                                          coeff, code):
        # Fraction would write out 10^exponent in full; the timeout turns
        # a hang into a failure
        f = tmp_path / "alg.json"
        f.write_text(json.dumps(
            {"generators": [{"name": "x", "parity": 0, "weight": 1},
                            {"name": "y", "parity": 0, "weight": 1}],
             "relations": [{"1,0": "1", "0,1": coeff}]}))
        out = run_process("crw", "cohomology", str(f), "--bound", "1",
                          timeout=10)
        assert out.returncode == code
        if code == 2:
            assert out.stdout == ""
            assert repr(coeff) in json.loads(out.stderr)["error"]

    @pytest.mark.parametrize("doc", [
        {"generators": [{"name": "x", "parity": 0, "weight": 1}],
         "relations": ["x"]},
        {"generators": [{"name": "x", "parity": 0, "weight": 1}],
         "relations": ["x"], "differential": []},
        {"generators": [{"name": ["x"], "parity": 0, "weight": 1}]},
        {"generators": [{"name": "x", "parity": 0, "weight": 1},
                        {"name": "x", "parity": 0, "weight": 1}]},
        {"generators": [{"name": "e", "parity": True, "weight": 1}]},
        {"generators": [{"name": "x", "parity": 0, "weight": 1.7}]},
        {"generators": [{"name": "x", "parity": "0", "weight": 1}]},
        {"generators": [{"name": "x", "parity": 0, "weight": 1,
                         "wieght": 3}]},
        {"generators": [{"name": "x", "parity": 0, "weight": 1},
                        {"name": "e", "parity": 1, "weight": 2}],
         "differential": {"e": {"2,0": 1.0}}},
        {"generators": [{"name": "x", "parity": 0, "weight": 1},
                        {"name": "y", "parity": 0, "weight": 1}],
         "relatons": [{"0,1": "1", "1,0": "-1"}]},
        # an exponent past the int digit limit of str -> int conversion
        {"generators": [{"name": "x", "parity": 0, "weight": 1}],
         "relations": [{"9" * 5000: "1"}]},
    ])
    def test_malformed_presentation_is_two(self, run_cli, tmp_path, doc):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        out = run_cli("crw", "cohomology", str(bad))
        assert out.returncode == 2
        assert "error" in json.loads(out.stderr)

    @pytest.mark.parametrize("key", ["1_0", " 2", "+1"])
    def test_monomial_exponents_are_digits(self, run_cli, tmp_path, key):
        # int() would read these as 10, 2 and 1
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(
            {"generators": [{"name": "x", "parity": 0, "weight": 1}],
             "relations": [{key: "1"}]}))
        out = run_cli("crw", "cohomology", str(bad))
        assert out.returncode == 2
        assert out.stdout == ""
        assert repr(key) in json.loads(out.stderr)["error"]

    @pytest.mark.parametrize("relations", [[], [{"2": "1"}]])
    def test_differential_of_unknown_generator_is_named(self, run_cli,
                                                        tmp_path, relations):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(
            {"generators": [{"name": "x", "parity": 0, "weight": 1}],
             "relations": relations, "differential": {"zz": {"1": "1"}}}))
        out = run_cli("crw", "cohomology", str(bad))
        assert out.returncode == 2
        assert json.loads(out.stderr)["error"] == (
            "differential: unknown generator 'zz'")

    @pytest.mark.parametrize("dims", [5, [1], {"a|a": 1.5}, {"a|a": True},
                                      {"a|a": "1"}, {"a|a": 1, "zz|q": 7}])
    def test_malformed_dims_is_two(self, run_cli, tmp_path, dims):
        span = {"left_foot": ["x"], "apex": ["a"], "right_foot": ["y"],
                "left_map": {"a": "x"}, "right_map": {"a": "y"}}
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(
            {"span_source": span, "span_target": span, "dims": dims}))
        out = run_cli("compose", "--kind", "vertical", str(bad), str(bad))
        assert out.returncode == 2
        assert out.stdout == ""
        assert "error" in json.loads(out.stderr)

    @pytest.mark.parametrize("key,value", [("left_foot", "xy"),
                                           ("apex", "a"),
                                           ("right_foot", "y")])
    def test_span_sets_must_be_lists(self, run_cli, tmp_path, key, value):
        span = {"left_foot": ["x"], "apex": ["a"], "right_foot": ["y"],
                "left_map": {"a": "x"}, "right_map": {"a": "y"}, key: value}
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(
            {"span_source": span, "span_target": span, "dims": {"a|a": 1}}))
        out = run_cli("compose", "--kind", "vertical", str(bad), str(bad))
        assert out.returncode == 2
        assert key in json.loads(out.stderr)["error"]

    @pytest.mark.parametrize("doc", [
        {"ambient": [{"name": "x", "parity": 0, "weight": 1}],
         "eqs2": [{"1": 1.0}]},
        {"ambient": [{"name": "x", "parity": 0, "weight": 1}],
         "eqs": [{"1": "1"}]},
    ])
    def test_malformed_intersection_is_two(self, run_cli, tmp_path, doc):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        out = run_cli("crw", "intersect", str(bad))
        assert out.returncode == 2
        assert "error" in json.loads(out.stderr)

    @pytest.mark.parametrize("kind,where,value,error", [
        ("span", ["colour"], "red", "span: unknown keys ['colour']"),
        ("span", ["left_map", "zz"], "x",
         "span.left_map: keys ['a', 'b', 'zz'] are not the apex ['a', 'b']"),
        ("span", ["right_map"], {"a": "x"}, "span.right_map: keys ['a']"),
        ("span", ["apex", 0], 1, "span.apex[0]: expected a string"),
        ("span", ["apex", 0], ["a"], "span.apex[0]: expected a string"),
        ("vertical", ["note"], 1, "2-morphism: unknown keys ['note']"),
        ("vertical", ["span_source", "note"], 1,
         "2-morphism.span_source: unknown keys ['note']"),
        ("vertical", ["span_target", "left_map", "zz"], "x",
         "2-morphism.span_target.left_map: keys ['a', 'b', 'zz']"),
        ("vertical", ["dims", "a|a"], 1.5,
         '2-morphism.dims["a|a"]: expected an integer'),
    ])
    def test_strict_span_documents_name_the_path(self, run_cli, tmp_path,
                                                 kind, where, value, error):
        # a stray key at any depth, or a leg keyed off the apex
        span = {"left_foot": ["x"], "apex": ["a", "b"], "right_foot": ["x"],
                "left_map": {"a": "x", "b": "x"},
                "right_map": {"a": "x", "b": "x"}}
        # through JSON text, so that the two spans are separate objects
        doc = json.loads(json.dumps(span if kind == "span" else {
            "span_source": span, "span_target": span,
            "dims": {p + "|" + q: 1 for p in "ab" for q in "ab"}}))
        node = doc
        for key in where[:-1]:
            node = node[key]
        node[where[-1]] = value
        f = tmp_path / "doc.json"
        f.write_text(json.dumps(doc))
        out = run_cli("compose", "--kind", kind, str(f), str(f))
        assert out.returncode == 2
        assert out.stdout == ""
        assert json.loads(out.stderr)["error"].startswith(error)

    @pytest.mark.parametrize("action,doc,error", [
        ("cohomology", {"generators": 5},
         "presentation.generators: expected a list"),
        ("cohomology", {"generators": [{"name": "x", "parity": 0,
                                        "weight": 1, "note": 1}]},
         "presentation.generators[0]: unknown keys ['note']"),
        ("cohomology", {"relations": []},
         "presentation: missing key 'generators'"),
        ("intersect", {"ambient": [], "eqs2": {"1": "1"}},
         "intersection input.eqs2: expected a list"),
        ("intersect", {"ambient": [], "eqs1": [{"1": 1.0}]},
         'intersection input.eqs1[0]["1"]: expected an integer or a string'),
    ])
    def test_strict_crw_documents_name_the_path(self, run_cli, tmp_path,
                                                action, doc, error):
        f = tmp_path / "doc.json"
        f.write_text(json.dumps(doc))
        out = run_cli("crw", action, str(f))
        assert out.returncode == 2
        assert out.stdout == ""
        assert json.loads(out.stderr)["error"] == error

    @pytest.mark.parametrize("target", ["missing/out.json", "."])
    def test_unwritable_out_is_two(self, run_cli, tmp_path, target):
        # a missing directory, and a directory given as the file
        out_path = tmp_path / target
        out = run_cli("enumerate", "sigma", "2", "--out", str(out_path))
        assert out.returncode == 2
        assert out.stdout == ""
        assert json.loads(out.stderr)["error"].startswith(
            "cannot write %s" % out_path)

    def test_bad_level_is_two(self, run_cli):
        out = run_cli("enumerate", "sigma", "9", "--bound", "3")
        assert out.returncode == 2

    @pytest.mark.parametrize("argv", [
        ["verify", "posets"],
        ["enumerate", "nerve", "0"],
        ["crw", "intro", "--n", "2"],
    ])
    def test_negative_bound_is_two(self, run_cli, argv):
        out = run_cli(*argv, "--bound", "-1")
        assert out.returncode == 2
        assert out.stdout == ""
        assert "bound" in json.loads(out.stderr)["error"]

    @pytest.mark.parametrize("argv", [
        ["verify", "nerve", "--bound", "x"],
        ["enumerate", "nerve"],
        ["crw", "cohomology"],
        ["crw", "intro", "--n", "2", "extra.json"],
        ["nonsense"],
        [],
        ["compose", "--kind", "span", "a.json"],
        ["compose", "--kind", "span", "a.json", "b.json", "c.json"],
    ])
    def test_usage_error_is_two_with_a_json_error(self, run_cli, argv):
        out = run_cli(*argv)
        assert out.returncode == 2
        assert out.stdout == ""
        assert list(json.loads(out.stderr)) == ["error"]

    @pytest.mark.parametrize("argv", [["--help"],
                                      ["crw", "cohomology", "--help"]])
    def test_help_is_zero(self, run_cli, argv):
        # argparse ends --help with SystemExit(0)
        out = run_cli(*argv)
        assert out.returncode == 0
        assert out.stdout.startswith("usage:")

    def test_huge_exponent_is_fast(self, run_cli, tmp_path):
        # x^3000000000 = 0: the work must not grow with the exponent
        doc = {"generators": [{"name": "x", "parity": 0, "weight": 1}],
               "relations": [{"3000000000": "1"}]}
        f = tmp_path / "alg.json"
        f.write_text(json.dumps(doc))
        t0 = time.perf_counter()
        out = run_cli("crw", "cohomology", str(f), "--bound", "2",
                      "--format", "csv")
        assert time.perf_counter() - t0 < 2
        assert out.returncode == 0
        assert out.stdout == ("weight,even_dim,odd_dim\n"
                              "0,1,0\n1,1,0\n2,1,0\n")


class TestDeterminism:
    def test_byte_identical_reruns(self):
        nerve = ["enumerate", "nerve", "2", "--bound", "4"]
        posets = ["verify", "posets", "--seed", "3", "--format", "csv"]
        a, b, c, d = run_processes(nerve, nerve, posets, posets)
        assert a.stdout == b.stdout
        assert c.stdout == d.stdout

    @pytest.mark.parametrize("name,argv", [
        ("enumerate_sigma_3.csv",
         ["enumerate", "sigma", "3", "--format", "csv"]),
        ("enumerate_sigma_3.json", ["enumerate", "sigma", "3"]),
        ("enumerate_theta_2.csv",
         ["enumerate", "theta", "2", "--format", "csv"]),
        ("enumerate_path_3.csv",
         ["enumerate", "path", "3", "--format", "csv"]),
        ("enumerate_nerve_2.csv",
         ["enumerate", "nerve", "2", "--format", "csv"]),
        ("enumerate_nerve_2.json", ["enumerate", "nerve", "2"]),
        ("crw_intro_2.csv",
         ["crw", "intro", "--n", "2", "--format", "csv"]),
        ("crw_intro_3.csv",
         ["crw", "intro", "--n", "3", "--format", "csv"]),
        ("crw_intersect_dependent_6.json",
         ["crw", "intersect", str(GOLDEN / "crw_intersect_dependent.json"),
          "--bound", "6"]),
        ("crw_cohomology_3.json",
         ["crw", "cohomology", str(GOLDEN / "crw_algebra.json"),
          "--bound", "3"]),
        ("compose_span.json",
         ["compose", "--kind", "span", str(GOLDEN / "compose_s1.json"),
          str(GOLDEN / "compose_s2.json")]),
        ("compose_vertical.json",
         ["compose", "--kind", "vertical", str(GOLDEN / "compose_m.json"),
          str(GOLDEN / "compose_m.json")]),
        ("compose_horizontal.json",
         ["compose", "--kind", "horizontal", str(GOLDEN / "compose_h1.json"),
          str(GOLDEN / "compose_h2.json")]),
    ])
    def test_matches_golden(self, run_cli, name, argv):
        out = run_cli(*argv)
        assert out.returncode == 0
        assert out.stdout == (GOLDEN / name).read_text()


class TestCompose:
    # the input documents of the compose goldens
    SPAN1 = json.loads((GOLDEN / "compose_s1.json").read_text())
    SPAN2 = json.loads((GOLDEN / "compose_s2.json").read_text())

    def test_span_composition(self, run_cli, tmp_path):
        f1 = tmp_path / "s1.json"
        f2 = tmp_path / "s2.json"
        f1.write_text(json.dumps(self.SPAN1))
        f2.write_text(json.dumps(self.SPAN2))
        out = run_cli("compose", "--kind", "span", str(f1), str(f2))
        assert out.returncode == 0
        result = json.loads(out.stdout)["result"]
        assert result["apex"] == ["a,c"]
        assert result["left_map"] == {"a,c": "x"}
        assert result["right_map"] == {"a,c": "w"}

    def test_incompatible_feet_exit_two(self, run_cli, tmp_path):
        f1 = tmp_path / "s1.json"
        f2 = tmp_path / "s2.json"
        f1.write_text(json.dumps(self.SPAN1))
        other = dict(self.SPAN2, left_foot=["q"], left_map={"c": "q"})
        f2.write_text(json.dumps(other))
        out = run_cli("compose", "--kind", "span", str(f1), str(f2))
        assert out.returncode == 2

    def test_vertical_composition_dims(self, run_cli):
        f1 = GOLDEN / "compose_m.json"
        out = run_cli("compose", "--kind", "vertical", str(f1), str(f1))
        assert out.returncode == 0
        dims = json.loads(out.stdout)["result"]["dims"]
        assert dims == {"a|a": 1, "a|b": 0, "b|a": 0, "b|b": 1}


class TestCrwCommand:
    def test_intersect_transverse_point(self, run_cli, tmp_path):
        doc = {"ambient": [{"name": "x", "parity": 0, "weight": 1},
                           {"name": "y", "parity": 0, "weight": 1}],
               "eqs1": [{"1,0": "1"}], "eqs2": [{"0,1": "1"}]}
        f = tmp_path / "in.json"
        f.write_text(json.dumps(doc))
        out = run_cli("crw", "intersect", str(f), "--bound", "3")
        assert out.returncode == 0
        table = json.loads(out.stdout)["cohomology"]
        assert table[0] == {"weight": 0, "even_dim": 1, "odd_dim": 0}
        assert all(r["even_dim"] == 0 and r["odd_dim"] == 0
                   for r in table[1:])

    def test_leads_other_than_pure_powers_are_listed_under_rules(
            self, run_cli, tmp_path):
        # x^2 = 0 and x*y = 0: the second lead is no pure power, and the
        # rules key appears only when it lists something
        f = tmp_path / "in.json"
        presentations = []
        for eqs1 in ([{"2,0": "1"}, {"1,1": "1"}], [{"2,0": "1"}]):
            f.write_text(json.dumps(
                {"ambient": [{"name": n, "parity": 0, "weight": 1}
                             for n in "xy"], "eqs1": eqs1}))
            out = run_cli("crw", "intersect", str(f), "--bound", "2")
            assert out.returncode == 0
            presentations.append(json.loads(out.stdout)["presentation"])
        both, square = presentations
        assert both["power_rules"] == square["power_rules"] == {
            "x": {"power": 2, "rewrite": {}}}
        assert both["rules"] == [{"lead": "1,1", "rewrite": {}}]
        assert "rules" not in square

    def test_substitution_chain_is_fast(self, tmp_path):
        # x_i = x_(i+1) + x_(i+2) down a chain of 38: substituting x0 must
        # not walk the Fibonacci(38) ways through the chain; the timeout
        # turns a hang into a failure
        n = 40
        mono = ["0"] * n

        def x(i):
            return ",".join(mono[:i] + ["1"] + mono[i + 1:])

        doc = {"ambient": [{"name": "x%d" % i, "parity": 0, "weight": 1}
                           for i in range(n)],
               "eqs1": [{x(i): "1", x(i + 1): "-1", x(i + 2): "-1"}
                        for i in range(n - 2)],
               "eqs2": [{x(0): "1"}]}
        f = tmp_path / "in.json"
        f.write_text(json.dumps(doc))
        out = run_process("crw", "intersect", str(f), "--bound", "3",
                          timeout=10)
        assert out.returncode == 0
        assert json.loads(out.stdout)["cohomology"] == [
            {"weight": w, "even_dim": 1, "odd_dim": 0} for w in range(4)]

    def test_cohomology_of_presentation(self, run_cli, tmp_path):
        doc = {"generators": [{"name": "x", "parity": 0, "weight": 1},
                              {"name": "eps", "parity": 1, "weight": 2}],
               "differential": {"eps": {"2,0": "1"}}}
        f = tmp_path / "alg.json"
        f.write_text(json.dumps(doc))
        out = run_cli("crw", "cohomology", str(f), "--bound", "3",
                      "--format", "csv")
        assert out.returncode == 0
        assert out.stdout == ("weight,even_dim,odd_dim\n"
                              "0,1,0\n1,1,0\n2,0,0\n3,0,0\n")

    def test_cohomology_ignores_relation_order(self, run_cli, tmp_path):
        gens = [{"name": n, "parity": 0, "weight": 1} for n in "xyz"]
        gens.append({"name": "eps", "parity": 1, "weight": 2})
        x_y = {"1,0,0,0": "1", "0,1,0,0": "-1"}
        y_z = {"0,1,0,0": "1", "0,0,1,0": "-1"}
        outs = []
        for rels in ([x_y, y_z], [y_z, x_y]):
            f = tmp_path / "alg.json"
            f.write_text(json.dumps({"generators": gens, "relations": rels,
                                     "differential": {"eps": {"2,0,0,0": "1"}}}))
            out = run_cli("crw", "cohomology", str(f), "--bound", "3",
                          "--format", "csv")
            assert out.returncode == 0, out.stderr
            outs.append(out.stdout)
        assert outs[0] == outs[1] == ("weight,even_dim,odd_dim\n"
                                      "0,1,0\n1,1,0\n2,0,0\n3,0,0\n")

    def test_flags_may_stand_before_the_file(self, run_cli, tmp_path):
        f = tmp_path / "alg.json"
        f.write_text(json.dumps(
            {"generators": [{"name": "x", "parity": 0, "weight": 1}],
             "relations": [{"2": "1"}]}))
        outs = []
        for argv in (["--bound", "3", str(f)], [str(f), "--bound", "3"]):
            out = run_cli("crw", "cohomology", *argv, "--format", "csv")
            assert out.returncode == 0
            outs.append(out.stdout)
        assert outs[0] == outs[1] == ("weight,even_dim,odd_dim\n"
                                      "0,1,0\n1,1,0\n2,0,0\n3,0,0\n")

    @pytest.mark.parametrize("order", [1, -1])
    def test_substitution_and_power_rule_on_one_generator(self, run_cli,
                                                         tmp_path, order):
        # x = y and x^2 = 0 present K[y]/(y^2)
        f = tmp_path / "alg.json"
        f.write_text(json.dumps(
            {"generators": [{"name": n, "parity": 0, "weight": 1}
                            for n in "xy"],
             "relations": [{"1,0": "1", "0,1": "-1"}, {"2,0": "1"}][::order]}))
        out = run_cli("crw", "cohomology", str(f), "--bound", "3",
                      "--format", "csv")
        assert out.returncode == 0
        assert out.stdout == ("weight,even_dim,odd_dim\n"
                              "0,1,0\n1,1,0\n2,0,0\n3,0,0\n")

    def test_inhomogeneous_substitution_is_two(self, run_cli, tmp_path):
        # x = y + 1 does not present a weight-graded quotient
        f = tmp_path / "alg.json"
        f.write_text(json.dumps(
            {"generators": [{"name": n, "parity": 0, "weight": 1}
                            for n in "xy"],
             "relations": [{"1,0": 1, "0,1": -1, "0,0": -1}]}))
        out = run_cli("crw", "cohomology", str(f))
        assert out.returncode == 2
        assert out.stdout == ""
        error = json.loads(out.stderr)
        assert list(error) == ["error"]
        assert "not weight-homogeneous" in error["error"]

    def test_power_rule_that_d_breaks_is_two(self, run_cli, tmp_path):
        # d(x^2) = 2*x*z, so d is not defined on K[x, z]/(x^2)
        f = tmp_path / "alg.json"
        f.write_text(json.dumps(
            {"generators": [{"name": "x", "parity": 0, "weight": 1},
                            {"name": "z", "parity": 1, "weight": 1}],
             "relations": [{"2,0": "1"}],
             "differential": {"x": {"0,1": "1"}}}))
        out = run_cli("crw", "cohomology", str(f))
        assert out.returncode == 2
        assert out.stdout == ""
        assert "generator 'x'" in json.loads(out.stderr)["error"]

    @pytest.mark.parametrize("differential, code", [
        ({"x": {"0,0,1": "1"}}, 2),
        ({"y": {"0,0,1": "1"}}, 2),
        ({"x": {"0,0,1": "1"}, "y": {"0,0,1": "1"}}, 0),
    ], ids=["dx", "dy", "dx_and_dy"])
    def test_differential_of_an_eliminated_generator_is_checked(
            self, run_cli, tmp_path, differential, code):
        # x = y eliminates x, and d(x - y) = +-e is not in the ideal
        # unless d(x) = d(y)
        f = tmp_path / "alg.json"
        f.write_text(json.dumps(
            {"generators": [{"name": "x", "parity": 0, "weight": 1},
                            {"name": "y", "parity": 0, "weight": 1},
                            {"name": "e", "parity": 1, "weight": 1}],
             "relations": [{"1,0,0": "1", "0,1,0": "-1"}],
             "differential": differential}))
        out = run_cli("crw", "cohomology", str(f), "--bound", "2",
                      "--format", "csv")
        assert out.returncode == code
        if code == 2:
            assert out.stdout == ""
            assert "the relation -y + x:" in json.loads(out.stderr)["error"]
        else:
            assert out.stdout == ("weight,even_dim,odd_dim\n"
                                  "0,1,0\n1,0,0\n2,0,0\n")

    def test_intro_requires_n(self, run_cli):
        out = run_cli("crw", "intro")
        assert out.returncode == 2

    def test_intro_report(self, run_cli):
        out = run_cli("crw", "intro", "--n", "2")
        assert out.returncode == 0
        report = json.loads(out.stdout)["report"]
        assert report["A_d_dtheta_scalar"] == "1/3*x^2"
        assert report["d_dtheta_mismatch_factor"] == "9"


class TestProcess:
    def test_python_m_spankit_prints_what_main_prints(self, run_cli):
        # one smoke run per subcommand: the process exits with the code
        # that main returns, and its output is the one captured in process
        argvs = [
            ["enumerate", "sigma", "3", "--format", "csv"],
            ["verify", "posets", "--bound", "1", "--format", "csv"],
            ["compose", "--kind", "span", str(GOLDEN / "compose_s1.json"),
             str(GOLDEN / "compose_s2.json")],
            ["crw", "cohomology", str(GOLDEN / "crw_algebra.json"),
             "--bound", "3"],
        ]
        for argv, proc in zip(argvs, run_processes(*argvs)):
            assert proc.returncode == 0, (argv, proc.stderr)
            assert (proc.returncode, proc.stdout,
                    proc.stderr) == run_cli(*argv), argv
