import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from krom import (
    Alphabet,
    Atom,
    GenConfig,
    ParseError,
    Program,
    enumerate_programs,
    fact,
    parse,
    random_program,
    render,
    rule,
    to_dot,
)
from oracles import admitted, parse_oracle

names_st = st.from_regex(r"[a-z][A-Za-z0-9_]{0,5}", fullmatch=True)
rules_st = st.one_of(
    names_st.map(fact),
    st.tuples(names_st, names_st).map(lambda t: rule(*t)),
)
programs_st = st.frozensets(rules_st, max_size=10).map(Program)


class TestParse:
    def test_fact_and_rule(self):
        assert parse("a.\nb :- a.\n") == Program([fact("a"), rule("b", "a")])

    def test_comment_only(self):
        assert parse("% comment\n") == Program()

    def test_empty_input(self):
        assert parse("") == Program()
        assert parse(b"") == Program()

    def test_bytes_input(self):
        assert parse(b"a.") == Program([fact("a")])

    def test_duplicates_collapse(self):
        assert parse("a. a. b :- a. b :- a.") == Program([fact("a"), rule("b", "a")])

    def test_whitespace_insignificant(self):
        dense = parse("a.b:-a.")
        spread = parse("  a .\n\n\tb\t:-\n a .  % trailing\n")
        assert dense == spread == Program([fact("a"), rule("b", "a")])

    def test_comment_without_trailing_newline(self):
        assert parse("a. % no newline") == Program([fact("a")])

    def test_self_loop(self):
        assert parse("a :- a.") == Program([rule("a", "a")])

    def test_atoms_are_wrapped(self):
        p = parse("ab1_X :- q0.")
        (r,) = p.rules
        assert isinstance(r.head, Atom) and isinstance(r.body, Atom)


class TestParseErrors:
    def assert_error(self, text, line, column, message):
        with pytest.raises(ParseError) as info:
            parse(text)
        err = info.value
        assert (err.line, err.column, err.message) == (line, column, message)

    def test_multi_atom_body(self):
        self.assert_error("a :- b, c.", 1, 7, "Krom programs admit at most one body atom")

    def test_multi_atom_body_later_line(self):
        self.assert_error("a.\nb :- a, c.\n", 2, 7, "Krom programs admit at most one body atom")

    def test_bad_character(self):
        self.assert_error("a := b.", 1, 3, "unexpected character ':'")

    def test_uppercase_atom_start(self):
        self.assert_error("Abc.", 1, 1, "unexpected character 'A'")

    def test_missing_dot_between_statements(self):
        self.assert_error("a b.", 1, 3, "expected '.' or ':-' after the head atom")

    def test_missing_dot_at_eof(self):
        self.assert_error("a :- b", 1, 7, "expected '.' after the body atom")

    def test_missing_body(self):
        self.assert_error("a :- .", 1, 6, "expected a body atom after ':-'")

    def test_leading_dot(self):
        self.assert_error(".", 1, 1, "expected an atom, got '.'")

    @pytest.mark.parametrize(
        "text,line,column,message",
        [
            ("a :- .\n$", 1, 6, "expected a body atom after ':-'"),
            ("a b $", 1, 3, "expected '.' or ':-' after the head atom"),
            (". $", 1, 1, "expected an atom, got '.'"),
            ("a :- b, c $", 1, 7, "Krom programs admit at most one body atom"),
        ],
    )
    def test_first_offending_byte_wins_over_a_later_bad_character(
        self, text, line, column, message
    ):
        self.assert_error(text, line, column, message)

    def test_non_utf8(self):
        with pytest.raises(ParseError) as info:
            parse(b"a.\n\xffb.\n")
        err = info.value
        assert (err.line, err.column, err.message) == (2, 1, "input is not valid UTF-8")

    def test_str_form_carries_position(self):
        with pytest.raises(ParseError) as info:
            parse("a :- b, c.")
        assert str(info.value) == "1:7: Krom programs admit at most one body atom"

    def assert_inside(self, text, err):
        lines = text.split("\n")
        assert 1 <= err.line <= len(lines)
        assert 1 <= err.column <= len(lines[err.line - 1]) + 1

    def test_positions_stay_inside_the_input(self):
        bad_inputs = [
            ".", "a", "a :- b", "a :- b, c.", ":- a.", "a..", "A.", "x :- Y.",
            "a.\n.", "%c\na,", "a :- b c.", "a\n:-\nb\nc",
        ]
        for text in bad_inputs:
            with pytest.raises(ParseError) as info:
                parse(text)
            self.assert_inside(text, info.value)

    def test_agrees_with_the_whole_program_regex_oracle(self):
        tokens = [
            "a", "b", "x1", "q_Z", ":-", ":", ".", ",", "%",
            " ", "\t", "\r", "\n", "A", "1", "$",
        ]
        statements = ["a.", "b :- a.", "x1:-q_Z .", "% a.\n"]
        rng = random.Random(41)
        for _ in range(6000):
            parts = [rng.choice(tokens) for _ in range(rng.randint(0, 10))]
            for _ in range(rng.randint(0, 3)):
                parts.insert(rng.randint(0, len(parts)), rng.choice(statements))
            text = "".join(parts)
            expected = parse_oracle(text)
            try:
                got = parse(text)
            except ParseError as err:
                assert expected is None, text
                self.assert_inside(text, err)
            else:
                assert got == expected, text
                assert admitted(got), text


class TestRender:
    def test_facts_first_then_rules(self):
        p = Program([rule("b", "a"), fact("a")])
        assert render(p) == "a.\nb :- a.\n"

    def test_empty(self):
        assert render(Program()) == ""

    def test_full_ordering(self):
        p = Program([rule("b", "c"), rule("b", "a"), fact("c"), fact("b"), rule("a", "a")])
        assert render(p) == "b.\nc.\na :- a.\nb :- a.\nb :- c.\n"

    def test_byte_stable_across_construction_orders(self):
        rng = random.Random(11)
        rules = [fact("a"), fact("b"), rule("a", "b"), rule("b", "a"), rule("c", "c")]
        reference = render(Program(rules))
        for _ in range(10):
            rng.shuffle(rules)
            assert render(Program(rules)) == reference

    def test_round_trip_exhaustive_small(self):
        for p in enumerate_programs(Alphabet(["a", "b"]), 2):
            assert parse(render(p)) == p

    @given(programs_st)
    def test_round_trip_random(self, p):
        assert parse(render(p)) == p

    @given(programs_st)
    def test_render_parse_render_is_render(self, p):
        text = render(p)
        assert render(parse(text)) == text

    def test_round_trip_on_generated_programs(self):
        rng = random.Random(23)
        for _ in range(100):
            n = rng.randint(1, 6)
            p = random_program(
                GenConfig(
                    atom_count=n,
                    rule_count=rng.randint(0, n + n * n),
                    fact_ratio=rng.random(),
                    seed=rng.getrandbits(64),
                )
            )
            assert parse(render(p)) == p


class TestToDot:
    def test_fact_and_edge(self):
        got = to_dot(Program([fact("a"), rule("b", "a")]))
        assert got == (
            "digraph program {\n"
            '  "a" [peripheries=2];\n'
            '  "b";\n'
            '  "a" -> "b";\n'
            "}\n"
        )

    def test_empty(self):
        assert to_dot(Program()) == "digraph program {\n}\n"

    def test_self_loop(self):
        got = to_dot(Program([rule("a", "a")]))
        assert got == 'digraph program {\n  "a";\n  "a" -> "a";\n}\n'

    def test_edges_point_from_body_to_head(self):
        got = to_dot(Program([rule("target", "source")]))
        assert '"source" -> "target";' in got

    def test_deterministic_order(self):
        p = Program([rule("b", "a"), rule("a", "b"), fact("b")])
        assert to_dot(p) == to_dot(Program(reversed(list(p))))
        body = to_dot(p)
        assert body.index('"a"') < body.index('"b"')
        assert body.index('"a" -> "b"') < body.index('"b" -> "a"')
