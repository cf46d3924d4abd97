import io
import os
import subprocess
import sys

import pytest

import krom
from krom import parse
from krom.cli import ExitStatus, main


@pytest.fixture
def run(capsys, monkeypatch):
    def invoke(*argv, stdin=b""):
        monkeypatch.setattr(
            sys, "stdin", type("S", (), {"buffer": io.BytesIO(stdin)})()
        )
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return invoke


@pytest.fixture
def write(tmp_path):
    counter = iter(range(1000))

    def _write(text):
        path = tmp_path / f"p{next(counter)}.krom"
        path.write_text(text)
        return str(path)

    return _write


class TestGoldenScenarios:
    def test_lm(self, run, write):
        code, out, err = run("lm", write("a.\nb :- a.\n"))
        assert (code, out, err) == (0, "a\nb\n", "")

    def test_equiv_uniform(self, run, write):
        k = write("a :- b.\nb :- c.\n")
        l = write("a :- b.\nb :- c.\na :- c.\n")
        code, out, err = run("equiv", "--mode", "uniform", k, l)
        assert (code, out, err) == (0, "equivalent\n", "")

    def test_check_multi_atom_body(self, run, write):
        path = write("a :- b, c.\n")
        code, out, err = run("check", path)
        assert code == 2
        assert out == ""
        assert err == f"{path}:1:7: Krom programs admit at most one body atom\n"


class TestLm:
    def test_empty_model(self, run, write):
        code, out, _ = run("lm", write("a :- b.\n"))
        assert (code, out) == (0, "")

    def test_from_stdin(self, run):
        code, out, _ = run("lm", "-", stdin=b"a.\nc :- b.\nb :- a.\n")
        assert (code, out) == (0, "a\nb\nc\n")


class TestCompose:
    def test_chain(self, run, write):
        code, out, _ = run("compose", write("a :- b.\n"), write("b :- c.\n"))
        assert (code, out) == (0, "a :- c.\n")

    def test_stdin_used_for_both_operands(self, run):
        code, out, _ = run("compose", "-", "-", stdin=b"a.\nb :- a.\n")
        assert (code, out) == (0, "a.\nb.\n")


class TestClosures:
    def test_power(self, run, write):
        code, out, _ = run("power", write("a :- b.\nb :- c.\n"), "2")
        assert (code, out) == (0, "a :- c.\n")

    def test_power_zero_uses_default_alphabet(self, run, write):
        code, out, _ = run("power", write("a :- b.\n"), "0")
        assert (code, out) == (0, "a :- a.\nb :- b.\n")

    def test_power_explicit_alphabet(self, run, write):
        code, out, _ = run("power", write("a :- b.\n"), "0", "--alphabet", "a,b,c")
        assert (code, out) == (0, "a :- a.\nb :- b.\nc :- c.\n")

    def test_star(self, run, write):
        code, out, _ = run("star", write("a :- b.\nb :- c.\n"))
        assert (code, out) == (
            0,
            "a :- a.\na :- b.\na :- c.\nb :- b.\nb :- c.\nc :- c.\n",
        )

    def test_plus(self, run, write):
        code, out, _ = run("plus", write("a :- b.\nb :- c.\n"))
        assert (code, out) == (0, "a :- b.\na :- c.\nb :- c.\n")

    def test_alphabet_must_cover_program(self, run, write):
        code, out, err = run("star", write("a :- b.\n"), "--alphabet", "a")
        assert (code, out) == (2, "")
        assert "not in the alphabet" in err

    def test_bad_alphabet_atom(self, run, write):
        code, _, err = run("star", write("a.\n"), "--alphabet", "a,B")
        assert code == 2
        assert "bad --alphabet" in err

    def test_negative_power(self, run, write):
        code, _, err = run("power", write("a.\n"), "-3")
        assert code == 2
        assert "non-negative" in err


class TestEquiv:
    def test_not_equivalent_with_witness(self, run, write):
        code, out, _ = run("equiv", "--mode", "uniform", write("b :- a.\n"), write(""))
        assert code == 1
        assert out == "not equivalent\nwitness: {a}\n"

    def test_lm_mode_has_no_witness(self, run, write):
        code, out, _ = run("equiv", "--mode", "lm", write("a.\n"), write("b.\n"))
        assert (code, out) == (1, "not equivalent\n")

    def test_lm_mode_equivalent(self, run, write):
        code, out, _ = run("equiv", "--mode", "lm", write("a.\nb :- a.\n"), write("a.\nb.\n"))
        assert (code, out) == (0, "equivalent\n")

    def test_ss_mode(self, run, write):
        code, out, _ = run("equiv", "--mode", "ss", write("a :- b.\n"), write("b :- a.\n"))
        assert (code, out) == (1, "not equivalent\n")

    def test_uniform_oracle(self, run, write):
        k = write("a :- b.\nb :- c.\n")
        l = write("a :- b.\nb :- c.\na :- c.\n")
        code, out, _ = run("equiv", "--mode", "uniform", "--oracle", k, l)
        assert (code, out) == (0, "equivalent\n")

    def test_oracle_requires_uniform_mode(self, run, write):
        code, _, err = run("equiv", "--mode", "lm", "--oracle", write("a.\n"), write("a.\n"))
        assert code == 2
        assert "--oracle" in err

    def test_stdin_read_once_for_both_operands(self, run):
        code, out, _ = run("equiv", "--mode", "uniform", "-", "-", stdin=b"a.\nb :- a.\n")
        assert (code, out) == (0, "equivalent\n")

    def test_files_load_before_the_oracle_check(self, run, write, tmp_path):
        missing = str(tmp_path / "missing.krom")
        code, out, err = run("equiv", "--mode", "lm", "--oracle", missing, write("a.\n"))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot read {missing}: ")

    def test_empty_witness_rendering(self, run, write):
        code, out, _ = run("equiv", "--mode", "uniform", write("a.\n"), write(""))
        assert code == 1
        assert out == "not equivalent\nwitness: {}\n"


class TestMinimize:
    def test_drops_redundant_rule(self, run, write):
        code, out, _ = run("minimize", write("a :- b.\nb :- c.\na :- c.\n"))
        assert (code, out) == (0, "a :- b.\nb :- c.\n")


class TestGen:
    def test_deterministic_output(self, run):
        args = ("gen", "--atoms", "3", "--rules", "5", "--fact-ratio", "0.4", "--seed", "11")
        first = run(*args)
        second = run(*args)
        assert first == second
        assert first[0] == 0

    def test_output_parses(self, run):
        code, out, _ = run("gen", "--atoms", "4", "--rules", "9", "--seed", "3")
        assert code == 0
        assert len(parse(out)) == 9

    def test_huge_atom_count_costs_only_the_drawn_rules(self, run):
        code, out, err = run("gen", "--atoms", "100000", "--rules", "1")
        assert (code, err) == (0, "")
        assert out.count("\n") == 1
        assert len(parse(out)) == 1

    def test_infeasible_rule_count(self, run):
        code, _, err = run("gen", "--atoms", "2", "--rules", "7", "--seed", "0")
        assert code == 2
        assert "rule universe" in err


class TestDotCheck:
    def test_dot(self, run, write):
        code, out, _ = run("dot", write("a.\nb :- a.\n"))
        assert code == 0
        assert out == (
            "digraph program {\n"
            '  "a" [peripheries=2];\n'
            '  "b";\n'
            '  "a" -> "b";\n'
            "}\n"
        )

    def test_check_ok_is_quiet(self, run, write):
        assert run("check", write("a.\nb :- a.\n")) == (0, "", "")

    def test_check_reads_stdin(self, run):
        code, _, err = run("check", "-", stdin=b"a :- b, c.\n")
        assert code == 2
        assert err.startswith("<stdin>:1:7:")


class TestUsageAndErrors:
    def test_missing_file(self, run, tmp_path):
        code, _, err = run("lm", str(tmp_path / "absent.krom"))
        assert code == 2
        assert "cannot read" in err

    def test_unknown_subcommand(self, run):
        code, _, _ = run("frobnicate")
        assert code == 2

    def test_no_arguments(self, run):
        assert run()[0] == 2

    def test_non_integer_power(self, run, write):
        assert run("power", write("a.\n"), "two")[0] == 2

    def test_parse_error_names_file_line_column(self, run, write):
        path = write("a.\nb :- .\n")
        code, _, err = run("lm", path)
        assert code == 2
        assert err == f"{path}:2:6: expected a body atom after ':-'\n"

    def test_first_operand_error_wins(self, run, write, tmp_path):
        missing, bad = str(tmp_path / "missing.krom"), write("a :- .\n")
        code, _, err = run("compose", missing, bad)
        assert code == 2
        assert err.startswith(f"error: cannot read {missing}: ")
        code, _, err = run("compose", bad, missing)
        assert code == 2
        assert err == f"{bad}:1:6: expected a body atom after ':-'\n"

    def test_top_level_help_lists_subcommands_in_order(self, run):
        code, out, err = run("--help")
        assert (code, err) == (0, "")
        assert "{lm,compose,power,star,plus,equiv,minimize,gen,dot,check}" in out

    def test_subcommand_help_usage(self, run):
        code, out, _ = run("power", "--help")
        assert code == 0
        assert out.startswith("usage: krom power [-h] [--alphabet ALPHABET] file n\n")

    def test_exit_status_values(self):
        assert ExitStatus.OK == 0
        assert ExitStatus.NOT_EQUIVALENT == 1
        assert ExitStatus.USAGE == 2
        assert ExitStatus.INTERNAL == 3

    def test_internal_invariant_violation_maps_to_exit_3(self, run, write, monkeypatch):
        import krom.cli as cli_mod
        from krom import InternalError

        def boom(*_):
            raise InternalError("stabilization bound exceeded")

        monkeypatch.setattr(cli_mod, "omega", boom)
        monkeypatch.setattr(cli_mod, "star", boom)
        for command in ("lm", "star"):
            code, out, err = run(command, write("a.\n"))
            assert (code, out) == (3, "")
            assert err == "internal error: stabilization bound exceeded\n"

    def test_equiv_resolves_its_decider_when_it_runs(self, run, write, monkeypatch):
        # Each mode calls the decider bound on the module at call time, so a
        # test or a tracer that rebinds it sees the call.
        import krom.cli as cli_mod
        from krom import InternalError

        def boom_for(name):
            def boom(*_):
                raise InternalError(f"{name} was called")

            return boom

        k, l = write("a :- b.\n"), write("a :- b.\n")
        for name, flags in [
            ("lm_equiv", ("--mode", "lm")),
            ("ss_equiv", ("--mode", "ss")),
            ("uniform_equiv", ("--mode", "uniform")),
            ("uniform_equiv_oracle", ("--mode", "uniform", "--oracle")),
        ]:
            with monkeypatch.context() as m:
                m.setattr(cli_mod, name, boom_for(name))
                code, out, err = run("equiv", *flags, k, l)
            assert (code, out, err) == (3, "", f"internal error: {name} was called\n"), name


class TestOutputContracts:
    PROGRAM = "a.\nb :- a.\nc :- d.\n"

    def test_program_producing_commands_round_trip(self, run, write):
        path = write(self.PROGRAM)
        commands = [
            ("compose", path, path),
            ("power", path, "2"),
            ("star", path),
            ("plus", path),
            ("minimize", path),
            ("gen", "--atoms", "3", "--rules", "6", "--seed", "1"),
        ]
        for argv in commands:
            code, out, err = run(*argv)
            assert code == 0, (argv, err)
            parse(out)

    def test_repeat_invocations_byte_identical(self, run, write):
        path = write(self.PROGRAM)
        for argv in [("lm", path), ("star", path), ("dot", path)]:
            assert run(*argv) == run(*argv)


class TestStartup:
    def test_import_leaves_dataclasses_and_inspect_unloaded(self):
        src = os.path.dirname(os.path.dirname(krom.__file__))
        code = "import sys, krom.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
        result = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            check=True,
        )
        assert result.stdout == "[]\n"
