import json

import pytest

from cycindex import sign_character
from cycindex.caps import DEFAULT_CAPS
from cycindex.catalog import load_catalog
from cycindex.cli import (EXIT_CAP, EXIT_MISMATCH, EXIT_OK, EXIT_USAGE,
                          JobSpec, main, run, run_suite)
from cycindex.grammar import SpecError, parse_character, parse_group
from oracles import same_character, value


class TestGroupGrammar:
    @pytest.mark.parametrize("expr,order,degree", [
        ("S(3)", 6, 3), ("A(4)", 12, 4), ("C(5)", 5, 5), ("D(4)", 8, 4),
        ("gen[4]{(1 2)(3 4),(1 3)(2 4)}", 4, 4),
        ("product(S(2),S(2))", 4, 4),
        ("wreath(S(2),S(2))", 8, 4),
    ])
    def test_parse(self, expr, order, degree):
        spec = parse_group(expr)
        assert spec.group.order == order and spec.group.degree == degree
        assert spec.text == expr

    def test_nested_expression(self):
        spec = parse_group("product(wreath(S(2),S(2)),C(3))")
        assert spec.kind == "product"
        assert spec.group.order == 8 * 3 and spec.group.degree == 7

    def test_whitespace_tolerated(self):
        assert parse_group("  S(3) ").group.order == 6

    @pytest.mark.parametrize("bad", [
        "", "S(3", "E(3)", "S(-1)", "gen[3]{(1 4)}", "product(S(2))",
        "wreath(S(2),S(2),S(2))",
    ])
    def test_rejects(self, bad):
        with pytest.raises(SpecError):
            parse_group(bad)

    def test_empty_generator_list_is_trivial_group(self):
        spec = parse_group("gen[2]{}")
        assert spec.group.order == 1 and spec.group.degree == 2

    def test_identity_is_read_back_as_printed(self):
        # cycle_string prints the identity as "()", in generators and in vals{} keys
        assert parse_group("gen[3]{()}").group.order == 1
        spec = parse_group("gen[3]{(),(1 2)}")
        assert spec.group.order == 2
        assert parse_character("vals{():0,(1 2):1}", spec).image_order() == 2


class TestCharacterGrammar:
    def test_unit_sign_index(self):
        spec = parse_group("S(3)")
        assert parse_character("unit", spec).is_unit()
        assert same_character(parse_character("sign", spec), sign_character(spec.group))
        assert same_character(parse_character("index:1", spec), sign_character(spec.group))

    def test_vals_selector(self):
        spec = parse_group("C(4)")
        chi = parse_character("vals{(1 2 3 4):1}", spec)
        assert chi.image_order() == 4

    def test_vals_ambiguous(self):
        spec = parse_group("gen[4]{(1 2)(3 4),(1 3)(2 4)}")
        with pytest.raises(SpecError, match="match"):
            parse_character("vals{(1 2)(3 4):0}", spec)

    def test_vals_inconsistent(self):
        spec = parse_group("S(3)")
        with pytest.raises(SpecError, match="extend"):
            parse_character("vals{(1 2 3):1}", spec)

    def test_compound_selector_on_product(self):
        spec = parse_group("product(S(2),S(2))")
        chi = parse_character("sign(x)unit", spec)
        from cycindex import perm_from_cycles
        assert value(chi, perm_from_cycles("(1 2)", 4)) == -1
        assert value(chi, perm_from_cycles("(3 4)", 4)) == 1

    def test_index_out_of_range(self):
        with pytest.raises(SpecError, match="out of range"):
            parse_character("index:9", parse_group("S(3)"))

    def test_garbage(self):
        with pytest.raises(SpecError):
            parse_character("frobenius", parse_group("S(3)"))


class TestRun:
    def test_cycle_index_text(self):
        code, out = run(JobSpec("cycle-index", "S(3)", "sign"))
        assert code == EXIT_OK
        assert out == "(1/6)*p1^3 - (1/2)*p1*p2 + (1/3)*p3\n"

    def test_characters_listing(self):
        code, out = run(JobSpec("characters", "C(4)"))
        assert code == EXIT_OK
        assert "4 linear character(s)" in out and "Q(zeta_4)" in out

    def test_gn(self):
        code, out = run(JobSpec("gn", "C(4)", "index:1", n=1))
        assert code == EXIT_OK
        assert out == "x0^3*x1 + x0^2*x1^2 + x0*x1^3\n"

    def test_orbits_tsv(self):
        code, out = run(JobSpec("orbits", "S(3)", "sign", n=1))
        assert code == EXIT_OK
        assert out.splitlines()[0] == "rep\tsize\tstab_order\ttau_H\th_len\tchi_orbit"

    def test_verify_ok(self):
        code, out = run(JobSpec("verify", "D(4)", "index:1", n=2))
        assert code == EXIT_OK

    def test_verify_json(self):
        code, out = run(JobSpec("verify", "C(4)", "index:1", n=1, fmt="json"))
        assert code == EXIT_OK
        assert json.loads(out)["equal"] is True

    def test_tampered_table_is_caught(self):
        code, out = run(JobSpec("verify", "C(4)", "index:1", n=1, tamper=True))
        assert code == EXIT_MISMATCH and "MISMATCH" in out

    def test_missing_n_is_usage_error(self):
        code, out = run(JobSpec("verify", "S(3)", "unit"))
        assert code == EXIT_USAGE and "usage error" in out

    def test_bad_group_is_usage_error(self):
        code, out = run(JobSpec("cycle-index", "Q(8)"))
        assert code == EXIT_USAGE

    def test_cap_exit_code(self):
        from cycindex.caps import Caps
        code, out = run(JobSpec("orbits", "S(4)", "unit", n=3,
                                caps=Caps(orbit_work=10)))
        assert code == EXIT_CAP and "cap exceeded" in out

    def test_verify_basis(self):
        code, out = run(JobSpec("verify-basis", "C(4)", "index:1", n=1))
        assert code == EXIT_OK
        assert json.loads(out)["rank"] == 3

    def test_verify_product(self):
        code, out = run(JobSpec("verify-product", "S(3)", "sign",
                                group2_expr="C(4)", char2_sel="index:1", n=1))
        assert code == EXIT_OK and "ok" in out

    @pytest.mark.parametrize("command", ["gn", "orbits", "verify", "verify-basis",
                                         "verify-product"])
    def test_negative_n_is_usage_error(self, command):
        code, out = run(JobSpec(command, "S(2)", "unit", n=-1, group2_expr="S(2)"))
        assert (code, out) == (EXIT_USAGE, "usage error: --n must be nonnegative\n")

    def test_verify_plethysm_flagship(self):
        code, out = run(JobSpec("verify-plethysm", "S(2)", "unit",
                                group2_expr="S(2)", char2_sel="unit"))
        assert code == EXIT_OK and "ok" in out


class TestSuite:
    def test_small_catalog_passes(self):
        from cycindex.caps import caps_from_env
        jobs = [
            {"command": "verify", "group": "S(3)", "char": "sign", "n": 2},
            {"command": "verify", "group": "C(4)", "char": "index:1", "n": 1},
            {"command": "verify-basis", "group": "S(2)", "char": "sign", "n": 1},
        ]
        code, out = run_suite(jobs, caps_from_env())
        assert code == EXIT_OK
        assert out.rstrip().endswith("suite: 3/3 jobs passed")

    def test_empty_catalog(self):
        from cycindex.caps import caps_from_env
        code, out = run_suite([], caps_from_env())
        assert code == EXIT_USAGE

    def test_tampered_job_fails_whole_suite(self):
        from cycindex.caps import caps_from_env
        jobs = [
            {"command": "verify", "group": "S(3)", "char": "sign", "n": 1},
            {"command": "verify", "group": "C(4)", "char": "index:1", "n": 1,
             "tamper_character": True},
        ]
        code, out = run_suite(jobs, caps_from_env())
        assert code == EXIT_MISMATCH
        assert "1/2 jobs passed" in out

    @pytest.mark.parametrize("bad", [
        {"command": "verify", "group": "S(3)", "n": "2"},
        {"command": "verify", "group": "S(3)", "n": True},
        {"command": "verify", "group": "S(3)", "n": -1},
        {"command": "verify", "group": "S(3)", "n": None},
        {"command": "verify", "group": 3, "n": 1},
        {"command": "verify", "group": "S(3)", "char": ["sign"], "n": 1},
        {"command": "verify-product", "group": "S(2)", "group2": None},
        {"command": "verify-product", "group": "S(2)", "group2": "S(2)", "char2": 1},
        {"command": "verify", "group": "S(3)", "char": "sign", "n": 1,
         "tamper_character": "false"},
        {"command": "verify", "group": "S(3)", "char": "sign", "n": 1, "tamper_character": 1},
        {"command": "verify-basis", "group": "S(3)", "char": "sign", "n": 1,
         "tamper_character": True},
    ])
    def test_malformed_job_stops_the_suite_before_any_job(self, bad):
        from cycindex.caps import caps_from_env
        jobs = [{"command": "verify", "group": "S(3)", "char": "sign", "n": 1}, bad]
        code, out = run_suite(jobs, caps_from_env())
        assert code == EXIT_USAGE
        assert out.startswith("usage error: catalog job") and out.count("\n") == 1

    def test_untampered_flag_is_allowed_on_every_command(self):
        from cycindex.caps import caps_from_env
        jobs = [{"command": "verify", "group": "S(3)", "char": "sign", "n": 1,
                 "tamper_character": False},
                {"command": "verify-basis", "group": "S(2)", "char": "sign", "n": 1,
                 "tamper_character": False}]
        assert run_suite(jobs, caps_from_env()) == (
            EXIT_OK, "ok    verify group=S(3) char=sign n=1\n"
                     "ok    verify-basis group=S(2) char=sign n=1\n"
                     "suite: 2/2 jobs passed\n")

    def test_default_catalog_parses_each_expression_once(self, monkeypatch):
        import cycindex.catalog as catalog
        parsed = []

        def counting_parse(expr, caps):
            parsed.append(expr)
            return parse_group(expr, caps=caps)
        monkeypatch.setattr(catalog, "parse_group", counting_parse)
        assert len(catalog.default_catalog()) == 551
        assert len(parsed) == len(set(parsed)) == 21

    def test_load_catalog(self, tmp_path):
        path = tmp_path / "catalog.json"
        path.write_text(json.dumps([
            {"command": "verify", "group": "S(3)", "char": "unit", "n": 1}]))
        jobs = load_catalog(str(path))
        assert jobs[0]["group"] == "S(3)"

    def test_load_catalog_rejects_non_list(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"command": "verify"}')
        with pytest.raises(ValueError):
            load_catalog(str(path))


class TestMain:
    def test_verify_via_argv(self, capsys):
        code = main(["verify", "--group", "C(4)", "--char", "index:1", "--n", "1"])
        assert code == EXIT_OK
        assert capsys.readouterr().out == "x0^3*x1 + x0^2*x1^2 + x0*x1^3\n"

    def test_missing_catalog_file(self, capsys):
        code = main(["suite", "--catalog", "/nonexistent/catalog.json"])
        assert code == EXIT_USAGE
        assert "usage error" in capsys.readouterr().out

    def test_malformed_catalog_field_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "catalog.json"
        path.write_text('[{"command": "verify", "group": "S(3)", "n": "2"}]')
        code = main(["suite", "--catalog", str(path)])
        out = capsys.readouterr().out
        assert code == EXIT_USAGE
        assert out.startswith("usage error:") and out.count("\n") == 1

    @pytest.mark.parametrize("name,value", [
        ("CYCINDEX_GROUP_CAP", "abc"), ("CYCINDEX_WORK_CAP", "-5"),
        ("CYCINDEX_DIM_CAP", "1.5"), ("CYCINDEX_TERM_CAP", ""),
    ])
    def test_malformed_cap_variable_is_usage_error(self, capsys, monkeypatch,
                                                   name, value):
        monkeypatch.setenv(name, value)
        code = main(["characters", "--group", "S(3)"])
        out = capsys.readouterr().out
        assert code == EXIT_USAGE
        assert out.startswith("usage error:") and name in out and out.count("\n") == 1

    def test_cap_variable_is_read(self, capsys, monkeypatch):
        monkeypatch.setenv("CYCINDEX_GROUP_CAP", " 5 ")
        assert main(["characters", "--group", "S(3)"]) == EXIT_CAP
        assert capsys.readouterr().out == "cap exceeded: group order exceeds cap 5\n"

    def test_job_spec_does_not_read_the_environment(self, monkeypatch):
        monkeypatch.setenv("CYCINDEX_GROUP_CAP", "abc")
        code, out = run(JobSpec("characters", "S(3)"))
        assert code == EXIT_OK and out.startswith("group S(3): order 6")

    def test_cap_flag(self, capsys):
        for cap in ("10", "0"):
            code = main(["orbits", "--group", "S(4)", "--n", "3", "--cap", cap])
            assert code == EXIT_CAP

    @pytest.mark.parametrize("command", ["verify-plethysm", "verify-product"])
    def test_term_cap_variable_bounds_power_sum_products(self, capsys, monkeypatch,
                                                         command):
        monkeypatch.setenv("CYCINDEX_TERM_CAP", "1")
        code = main([command, "--group", "S(2)", "--group2", "S(2)"])
        out = capsys.readouterr().out
        assert code == EXIT_CAP
        assert out.startswith("cap exceeded:") and out.count("\n") == 1

    def test_negative_cap_flag_is_usage_error(self, capsys):
        code = main(["orbits", "--group", "S(3)", "--n", "1", "--cap", "-5"])
        out = capsys.readouterr().out
        assert code == EXIT_USAGE
        assert out.startswith("usage error:") and "--cap" in out and out.count("\n") == 1

    def test_json_format_flag(self, capsys):
        code = main(["cycle-index", "--group", "S(3)", "--char", "sign",
                     "--format", "json"])
        assert code == EXIT_OK
        data = json.loads(capsys.readouterr().out)
        assert data["weight"] == 3

    @pytest.mark.parametrize("argv", [
        ["characters", "--group", "S(3)"],
        ["cycle-index", "--group", "S(3)"],
        ["gn", "--group", "S(3)", "--n", "1"],
        ["verify", "--group", "S(3)", "--n", "1"],
        ["verify-product", "--group", "S(2)", "--group2", "S(2)"],
        ["verify-plethysm", "--group", "S(2)", "--group2", "S(2)"],
        ["verify-basis", "--group", "S(3)", "--n", "1"],
        ["suite"],
    ])
    def test_tsv_format_is_refused_outside_orbits(self, capsys, argv):
        with pytest.raises(SystemExit) as stop:
            main([*argv, "--format", "tsv"])
        assert stop.value.code == EXIT_USAGE
        assert capsys.readouterr().out == ""

    def test_tsv_format_is_accepted_on_orbits(self, capsys):
        assert main(["orbits", "--group", "S(3)", "--n", "1", "--format", "tsv"]) == EXIT_OK
        assert capsys.readouterr().out.startswith("rep\tsize\t")


class TestFailClosed:
    @pytest.mark.parametrize("argv", [
        ["cycle-index", "--group", "gen[99999999999]{(1 2)}"],
        ["characters", "--group", "product(S(1)," * 1200 + "S(1)" + ")" * 1200],
        ["characters", "--group", "S(3"],
        ["verify", "--group", "product(S(2))", "--n", "1"],
        ["cycle-index", "--group", "S(3)", "--char", "vals{(1 2):x}"],
        ["orbits", "--group", "gen[0]{}", "--n", "1"],
        ["gn", "--group", "S(3)", "--char", "index:9", "--n", "1"],
    ])
    def test_malformed_input_ends_in_one_line(self, run_cli, argv):
        done = run_cli(argv)
        assert done.returncode in (0, 1, 2, 3)
        assert done.stdout.count("\n") == 1 and done.stdout.endswith("\n")
        assert "Traceback" not in done.stdout + done.stderr

    def test_deeply_nested_catalog_is_a_usage_error(self, run_cli, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 200_000)
        done = run_cli(["suite", "--catalog", str(path)])
        assert (done.returncode, done.stdout) == (
            EXIT_USAGE, "usage error: catalog is nested too deeply to read\n")
        assert "Traceback" not in done.stderr

    DEEP = "product(C(1)," * 1500 + "C(1)" + ")" * 1500

    def test_deeply_nested_group_is_a_usage_error(self):
        assert run(JobSpec("cycle-index", self.DEEP)) == (
            EXIT_USAGE, "usage error: group expression is nested too deeply to parse\n")

    def test_deeply_nested_group_is_a_suite_error(self):
        jobs = [{"command": "cycle-index", "group": self.DEEP},
                {"command": "verify", "group": "S(3)", "char": "sign", "n": 1}]
        code, out = run_suite(jobs, caps=DEFAULT_CAPS)
        lines = out.splitlines()
        assert code == EXIT_USAGE
        assert lines[0].startswith("ERROR cycle-index group=product(C(1),product(")
        assert lines[1].startswith("ok    verify group=S(3)")
        assert lines[2] == "suite: 1/2 jobs passed"

    def test_work_cap_bounds_group_closure(self, run_cli):
        done = run_cli(["characters", "--group", "C(1000)"],
                       extra_env={"CYCINDEX_WORK_CAP": "100000"})
        assert done.returncode == EXIT_CAP
        assert done.stdout == "cap exceeded: group elements times degree exceed work cap 100000\n"

    def test_degree_above_the_work_cap_is_rejected_before_building(self, run_cli):
        done = run_cli(["cycle-index", "--group", "gen[99999999999]{(1 2)}"])
        assert done.returncode == EXIT_CAP
        assert done.stdout.startswith("cap exceeded: degree 99999999999 exceeds work cap")
        assert done.stdout.count("\n") == 1 and "out of memory" not in done.stdout

    def test_symmetry_check_of_a_long_specialization_finishes(self, run_cli):
        # g_n of the trivial group has 2001 variables; checking its symmetry
        # must stay linear in its terms, not cubic in the number of variables
        done = run_cli(["verify", "--group", "C(1)", "--n", "2000"], timeout=20)
        assert done.returncode == EXIT_OK

    @pytest.mark.parametrize("command", ["verify", "gn"])
    def test_monomials_over_the_work_cap_are_refused_before_any_orbit(self, run_cli, command):
        # C(203, 3) = 1,394,101 monomials of 201 exponents: 2.8 * 10^8 entries
        done = run_cli([command, "--group", "S(3)", "--n", "200"], timeout=20)
        assert (done.returncode, done.stdout) == (
            EXIT_CAP, "cap exceeded: C(203,3) monomials of 201 exponents exceed work cap "
                      "100000000\n")

    def test_wreath_sign_verify_passes_at_the_default_work_cap(self, run_cli):
        # 4096 points but 35 orbits: 35 * 31104 row applications, far under 10^8
        done = run_cli(["verify", "--group", "wreath(S(3),S(4))", "--char", "sign",
                        "--n", "1"], timeout=60)
        assert (done.returncode, done.stdout) == (EXIT_OK, "0\n")

    @pytest.mark.parametrize("exc,code,start", [
        (AssertionError("orbit sizes do not\npartition"), EXIT_MISMATCH,
         "internal error: AssertionError: orbit sizes do not partition"),
        (TypeError("bad operand"), EXIT_MISMATCH, "internal error: TypeError: bad operand"),
        (MemoryError(), EXIT_CAP, "cap exceeded: out of memory"),
    ])
    def test_unexpected_exception_becomes_one_line(self, monkeypatch, exc, code, start):
        import cycindex.cli as cli

        def broken(spec):
            raise exc
        monkeypatch.setattr(cli, "_dispatch", broken)
        got, out = run(JobSpec("characters", "S(3)"))
        assert got == code
        assert out == start + "\n"

    def test_suite_carries_on_after_an_internal_error(self, monkeypatch):
        import cycindex.cli as cli
        dispatch = cli._dispatch

        def flaky(spec):
            if spec.group_expr == "C(4)":
                raise AssertionError("injected")
            return dispatch(spec)
        monkeypatch.setattr(cli, "_dispatch", flaky)
        jobs = [{"command": "verify", "group": "C(4)", "char": "index:1", "n": 1},
                {"command": "verify", "group": "S(3)", "char": "sign", "n": 1}]
        code, out = run_suite(jobs, caps=cli.DEFAULT_CAPS)
        assert code == EXIT_MISMATCH
        lines = out.splitlines()
        assert lines[0].startswith("FAIL  verify group=C(4)")
        assert lines[1] == "      internal error: AssertionError: injected"
        assert lines[2].startswith("ok    verify group=S(3)")
        assert lines[3] == "suite: 1/2 jobs passed"

    def test_work_cap_bounds_the_projector_module(self, capsys):
        # |G| * (n+1)^d = 6 * 8 point-map entries for S(3) at n=1
        code = main(["verify-basis", "--group", "S(3)", "--n", "1", "--cap", "20"])
        assert (code, capsys.readouterr().out) == (
            EXIT_CAP, "cap exceeded: (n+1)^d * |G| = 48 exceeds work cap 20\n")

    @pytest.mark.parametrize("cap,code,out", [
        (1000, EXIT_OK, None),
        (300, EXIT_CAP, "cap exceeded: row applications #orbits * |W| exceed work cap 300\n"),
        # the element table of S(4), 24 * 4 = 96 entries, hits the cap before the 81 points
        (80, EXIT_CAP, "cap exceeded: group elements times degree exceed work cap 80\n"),
    ])
    def test_work_cap_bounds_the_orbit_scan(self, capsys, cap, code, out):
        # S(4) at n=2: 81 points and 15 orbits, 15 * 24 = 360 row applications
        got = main(["orbits", "--group", "S(4)", "--char", "sign", "--n", "2",
                    "--cap", str(cap)])
        text = capsys.readouterr().out
        assert got == code
        if out is None:
            assert len(text.splitlines()) == 1 + 15
        else:
            assert text == out

    def test_default_catalog_over_the_work_cap_is_a_cap_hit(self, capsys):
        code = main(["suite", "--cap", "10"])
        out = capsys.readouterr().out
        assert code == EXIT_CAP
        assert out.startswith("cap exceeded:") and out.count("\n") == 1
