import collections
import random

import pytest

from krom import (
    Alphabet,
    AlphabetTooLargeError,
    EquivVerdict,
    GenConfig,
    Interpretation,
    Program,
    compose,
    enumerate_programs,
    extend_omega,
    fact,
    facts,
    lm_equiv,
    lm_oracle,
    minimize,
    omega,
    random_program,
    rule,
    ss_equiv,
    ss_equiv_semantic,
    uniform_equiv,
    uniform_equiv_oracle,
)
from krom import equivalence
from oracles import consequences_oracle, minimize_oracle


def prog(*pieces):
    out = []
    for s in pieces:
        if "<-" in s:
            h, b = s.split("<-")
            out.append(rule(h, b))
        else:
            out.append(fact(s))
    return Program(out)


def interp(*names):
    return Interpretation(names)


def random_pair(rng, max_atoms):
    """Two programs over a shared atom pool; frequently related, so both
    verdicts get exercised."""
    n = rng.randint(1, max_atoms)
    universe = n + n * n

    def draw():
        return random_program(
            GenConfig(
                atom_count=n,
                rule_count=rng.randint(0, universe),
                fact_ratio=rng.random(),
                seed=rng.getrandbits(64),
            )
        )

    k = draw()
    roll = rng.random()
    if roll < 0.15:
        return k, k
    if roll < 0.4 and k:
        dropped = list(k)[rng.randrange(len(k))]
        return k, Program(k.rules - {dropped})
    return k, draw()


def lm_pairs(rng):
    """Pairs of every shape `lm_equiv` treats apart, each with its kind:
    nested (added two-step shortcuts, an added fact, an added fresh
    ``zz :- zy``, an added fresh fact ``zz``), identical, overlapping but
    not nested, and with disjoint rule sets."""
    n = rng.randint(1, 6)

    def draw():
        return random_program(
            GenConfig(n, rng.randint(0, n + n * n), rng.random(), rng.getrandbits(64))
        )

    k = draw()
    # K . K adds the two-step shortcuts of K and the facts they derive.
    extra = prog(f"x{rng.randint(1, n)}")
    for l in (k | compose(k, k), k | extra, k | prog("zz<-zy"), k | prog("zz")):
        yield "nested", k, l
    yield "identical", k, Program(k.rules)
    other = draw()
    dropped = k - other
    if dropped and other - k:
        l = k - Program([next(iter(dropped))]) | other
        if k.rules & l.rules:
            yield "overlapping", k, l
    yield "disjoint", k, other - k
    yield "disjoint", k, Program(
        rule("y" + r.head, "y" + r.body) if r.body else fact("y" + r.head) for r in other
    )


class TestVerdict:
    def test_truthiness(self):
        assert EquivVerdict(True)
        assert not EquivVerdict(False, interp("a"))

    def test_frozen(self):
        with pytest.raises(AttributeError):
            EquivVerdict(True).equal = False

    def test_repr(self):
        assert repr(EquivVerdict(True)) == "EquivVerdict(equal=True, witness=None)"

    def test_equal_verdicts_hash_equal(self):
        assert EquivVerdict(False, interp("a")) == EquivVerdict(False, interp("a"))
        assert hash(EquivVerdict(False, interp("a"))) == hash(EquivVerdict(False, interp("a")))
        assert EquivVerdict(False, interp("a")) != EquivVerdict(False, interp("b"))


class TestLmEquiv:
    def test_different_programs_same_model(self):
        assert lm_equiv(prog("a", "b<-a"), prog("a", "b")).equal

    def test_reflexive(self):
        k = prog("a", "b<-c")
        assert lm_equiv(k, k).equal

    def test_distinct_models(self):
        v = lm_equiv(prog("a"), prog("b"))
        assert not v.equal
        assert v.witness is None

    def test_agrees_with_model_enumeration_oracle(self):
        ps = list(enumerate_programs(Alphabet(["a", "b"]), 2))
        for k in ps:
            for l in ps:
                assert lm_equiv(k, l).equal == (lm_oracle(k) == lm_oracle(l))

    def test_agrees_with_consequences_oracle_on_nested_and_other_pairs(self):
        # Nested pairs take one least model and a models check; the rest
        # compare both least models. Each pair is checked in both orders.
        rng = random.Random(20231015)
        seen = collections.Counter()
        for _ in range(800):
            for kind, k, l in lm_pairs(rng):
                expected = consequences_oracle(k) == consequences_oracle(l)
                seen[kind, expected] += 1
                assert lm_equiv(k, l) == EquivVerdict(expected), (kind, k, l)
                assert lm_equiv(l, k) == EquivVerdict(expected), (kind, l, k)
        assert len(seen) == 7 and min(seen.values()) >= 50, seen

    def test_nested_pair_computes_one_least_model(self, monkeypatch):
        calls = []

        def spy(program):
            calls.append(program)
            return omega(program)

        monkeypatch.setattr(equivalence, "omega", spy)
        k, l = prog("a", "b<-a"), prog("a", "b<-a", "c<-b", "d")
        assert not lm_equiv(k, l) and not lm_equiv(l, k)
        assert calls == [k, k]
        calls.clear()
        k, l = prog("a", "b<-a"), prog("a", "c<-a")
        assert not lm_equiv(k, l)
        assert calls == [k, l]


class TestSsEquiv:
    def test_equal_rule_sets(self):
        assert ss_equiv(prog("a<-b"), prog("a<-b")).equal

    def test_flipped_rule(self):
        assert not ss_equiv(prog("a<-b"), prog("b<-a")).equal

    def test_semantic_checker_distinguishes_extra_rule(self):
        k, l = prog("a<-b"), prog("a<-b", "a<-c")
        v = ss_equiv_semantic(k, l)
        assert not v.equal
        assert v.witness == interp("c")
        assert compose(k, v.witness.as_program()) != compose(l, v.witness.as_program())

    def test_fast_path_implies_semantic_checker(self):
        ps = list(enumerate_programs(Alphabet(["a", "b"]), 2))
        for k in ps:
            for l in ps:
                if ss_equiv(k, l).equal:
                    assert ss_equiv_semantic(k, l).equal

    @staticmethod
    def _fact_reduced(p):
        fs = facts(p).atoms
        return Program(r for r in p.rules if r.body is None or r.head not in fs)

    def test_semantic_collapse_modulo_fact_subsumed_rules(self):
        # Composition with an interpretation cannot observe a proper rule
        # whose head the program already states as a fact, so the semantic
        # notion collapses to equality of the fact-reduced rule sets, not
        # of the raw ones.
        ps = list(enumerate_programs(Alphabet(["a", "b"]), 2))
        for k in ps:
            for l in ps:
                expected = self._fact_reduced(k) == self._fact_reduced(l)
                assert ss_equiv_semantic(k, l).equal == expected

    def test_fact_subsumed_rule_is_invisible_to_composition(self):
        k, l = prog("a"), prog("a", "a<-a")
        assert not ss_equiv(k, l).equal
        assert ss_equiv_semantic(k, l).equal

    def test_singletons_and_empty_already_decide(self):
        # the exhaustive checker never disagrees with the cheap one
        rng = random.Random(7315)
        for _ in range(400):
            k, l = random_pair(rng, 4)
            universe = sorted((omega(k) | omega(l)).atoms
                              | {a for r in (k.rules | l.rules) for a in (r.head, r.body) if a})
            small = [Interpretation()] + [Interpretation((x,)) for x in universe]
            cheap = all(
                compose(k, i.as_program()) == compose(l, i.as_program()) for i in small
            )
            assert cheap == ss_equiv_semantic(k, l).equal

    def test_bound(self):
        k = Program(fact(f"x{i}") for i in range(25))
        with pytest.raises(AlphabetTooLargeError):
            ss_equiv_semantic(k, k)


class TestUniformEquiv:
    def test_transitive_edge_is_redundant(self):
        assert uniform_equiv(prog("a<-b", "b<-c"), prog("a<-b", "b<-c", "a<-c")).equal

    def test_detached_rule_distinguished_by_singleton(self):
        v = uniform_equiv(prog("b<-a"), Program())
        assert not v.equal
        assert v.witness == interp("a")

    def test_reflexive(self):
        k = prog("a", "b<-a")
        assert uniform_equiv(k, k).equal

    def test_lm_equivalence_lifting(self):
        assert uniform_equiv(prog("a", "b<-a"), prog("a", "b")).equal

    def test_witness_distinguishes_extended_models(self):
        rng = random.Random(90125)
        seen_witness = 0
        for _ in range(300):
            k, l = random_pair(rng, 4)
            v = uniform_equiv(k, l)
            if not v.equal:
                seen_witness += 1
                assert v.witness is not None
                assert extend_omega(k, v.witness) != extend_omega(l, v.witness)
        assert seen_witness > 50


class TestUniformOracle:
    def test_empty_pair(self):
        assert uniform_equiv_oracle(Program(), Program()).equal

    def test_fact_versus_empty(self):
        v = uniform_equiv_oracle(prog("a"), Program())
        assert not v.equal
        assert v.witness == interp()

    def test_exhaustive_agreement_two_atoms(self):
        ps = list(enumerate_programs(Alphabet(["a", "b"]), 2))
        for k in ps:
            for l in ps:
                assert uniform_equiv(k, l) == uniform_equiv_oracle(k, l)

    def test_randomized_agreement(self):
        rng = random.Random(551)
        for _ in range(800):
            k, l = random_pair(rng, 5)
            assert uniform_equiv(k, l) == uniform_equiv_oracle(k, l)

    def test_bound(self):
        k = Program(fact(f"x{i}") for i in range(25))
        with pytest.raises(AlphabetTooLargeError):
            uniform_equiv_oracle(k, k)


class TestLmOracle:
    def test_chain(self):
        assert lm_oracle(prog("a", "b<-a")) == interp("a", "b")

    def test_empty(self):
        assert lm_oracle(Program()) == interp()

    def test_no_facts(self):
        assert lm_oracle(prog("a<-b")) == interp()

    def test_bound(self):
        k = Program(fact(f"x{i}") for i in range(25))
        with pytest.raises(AlphabetTooLargeError):
            lm_oracle(k)
        assert lm_oracle(k, max_atoms=25) == Interpretation(f"x{i}" for i in range(25))


class TestImplicationChain:
    def test_syntactic_implies_uniform_implies_lm(self):
        rng = random.Random(682)
        for _ in range(600):
            k, l = random_pair(rng, 5)
            if ss_equiv(k, l).equal:
                assert uniform_equiv(k, l).equal
            if uniform_equiv(k, l).equal:
                assert lm_equiv(k, l).equal

    def test_lm_equivalent_but_not_uniform(self):
        k, l = prog("b<-a"), Program()
        assert lm_equiv(k, l).equal
        assert not uniform_equiv(k, l).equal

    def test_uniform_but_not_syntactic(self):
        k, l = prog("a<-b", "b<-c", "a<-c"), prog("a<-b", "b<-c")
        assert uniform_equiv(k, l).equal
        assert not ss_equiv(k, l).equal


class TestEquivalenceRelationLaws:
    @pytest.mark.parametrize("decide", [lm_equiv, ss_equiv, uniform_equiv])
    def test_reflexive_symmetric_transitive(self, decide):
        rng = random.Random(2024)
        programs = []
        for _ in range(120):
            k, l = random_pair(rng, 3)
            programs.extend([k, l])
        for p in programs[:60]:
            assert decide(p, p).equal
        for i in range(0, len(programs) - 2, 3):
            k, l, m = programs[i : i + 3]
            assert decide(k, l).equal == decide(l, k).equal
            if decide(k, l).equal and decide(l, m).equal:
                assert decide(k, m).equal


class TestMinimize:
    def test_drops_transitive_edge(self):
        assert minimize(prog("a<-b", "b<-c", "a<-c")) == prog("a<-b", "b<-c")

    def test_empty(self):
        assert minimize(Program()) == Program()

    def test_deterministic_choice_between_ties(self):
        # sorted greedy order scans facts first: b goes, b :- a stays
        assert minimize(prog("a", "b<-a", "b")) == prog("a", "b<-a")

    def test_output_uniformly_equivalent_and_one_minimal(self):
        for k in enumerate_programs(Alphabet(["a", "b"]), 3):
            small = minimize(k)
            assert small.rules <= k.rules
            assert uniform_equiv_oracle(small, k).equal
            for r in small:
                assert not uniform_equiv_oracle(Program(small.rules - {r}), k).equal

    def test_matches_greedy_oracle_on_cyclic_programs(self):
        rng = random.Random(2718)
        for _ in range(300):
            names = "abcdef"[: rng.randint(4, 6)]
            ring = rng.sample(names, rng.randint(2, len(names)))
            pieces = [f"{h}<-{b}" for h, b in zip(ring, ring[1:] + ring[:1])]
            pieces += rng.sample(names, rng.randint(1, 2))
            for _ in range(rng.randint(0, 8)):
                pieces.append(f"{rng.choice(names)}<-{rng.choice(names)}")
            k = prog(*pieces)
            assert minimize(k) == minimize_oracle(k)

    def test_idempotent(self):
        rng = random.Random(3141)
        for _ in range(200):
            k, _ = random_pair(rng, 4)
            small = minimize(k)
            assert minimize(small) == small
