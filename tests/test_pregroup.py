import copy
import itertools
import pickle

import numpy as np
import pytest

from intonsem.pregroup import (
    PregroupType,
    _Chart,
    ReductionDiagram,
    SimpleType,
    TypeSyntaxError,
    atom,
    cancels,
    chart_reductions,
    closest_residual,
    flatten,
    grammatical,
    parse_type,
    reduce,
)

from _oracles import (
    brute_force_contractions,
    brute_force_reductions,
    inverse_reduce_sequence,
    is_planar,
    random_type_sequence,
    replay,
)


class TestParseType:
    def test_transitive_verb(self):
        assert parse_type("n.r s n.l") == PregroupType(
            (SimpleType("n", 1), SimpleType("s", 0), SimpleType("n", -1))
        )

    def test_empty_is_unit(self):
        assert parse_type("") == PregroupType(())
        assert parse_type("   ") == PregroupType(())

    def test_adjoints_cancel(self):
        assert parse_type("n.l.r") == parse_type("n")
        assert parse_type("n.r.l") == parse_type("n")

    def test_iterated_adjoints(self):
        assert parse_type("n.l.l") == PregroupType((SimpleType("n", -2),))
        assert parse_type("n.r.r.r").factors[0].z == 3

    def test_unknown_character_reports_byte_offset(self):
        with pytest.raises(TypeSyntaxError) as exc:
            parse_type("n$s")
        assert exc.value.offset == 1

    def test_byte_offset_counts_bytes_not_chars(self):
        # a two-byte base name shifts the offset by two
        with pytest.raises(TypeSyntaxError) as exc:
            parse_type("θ$")
        assert exc.value.offset == 2

    def test_bad_suffix(self):
        with pytest.raises(TypeSyntaxError):
            parse_type("n.x")
        with pytest.raises(TypeSyntaxError):
            parse_type("n.")

    def test_suffix_must_be_separated(self):
        with pytest.raises(TypeSyntaxError):
            parse_type("n.ls")

    def test_leading_digit_rejected(self):
        with pytest.raises(TypeSyntaxError) as exc:
            parse_type("3x")
        assert exc.value.offset == 0

    def test_str_round_trip_random(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            t = PregroupType(tuple(f for w in random_type_sequence(rng) for f in w))
            assert parse_type(str(t)) == t


class TestTypeAlgebra:
    def test_adjoint_involution(self):
        for name in ("n", "s", "theta", "rho", "x"):
            a = SimpleType(name)
            assert a.l.r == a
            assert a.r.l == a
        for z in range(-3, 4):
            assert SimpleType("n", z).l.r == SimpleType("n", z)

    def test_product_adjoint_reverses(self):
        p = parse_type("n.r s n.l")
        assert p.r == parse_type("n s.r n.r.r")
        assert p.l == parse_type("n.l.l s.l n")

    def test_unit_is_identity(self):
        p = parse_type("n s")
        unit = PregroupType(())
        assert p @ unit == p
        assert unit @ p == p

    def test_cancels(self):
        n = SimpleType("n")
        assert cancels(n, n.r)
        assert cancels(n.l, n)
        assert not cancels(n, n.l)
        assert not cancels(n.r, n)
        assert not cancels(n, SimpleType("s", 1))
        assert cancels(n.r, n.r.r)

    def test_indexing(self):
        p = parse_type("n.r s n.l")
        assert p[0] == SimpleType("n", 1)
        assert p[1:] == parse_type("s n.l")

    @pytest.mark.parametrize("text", ["", "n", "n.r s n.l", "theta rho.l.l n.r"])
    def test_cached_adjoints_and_hash_equal_a_fresh_type(self, text):
        t = parse_type(text)
        first = (t.l, t.r, hash(t))  # computed, then cached
        assert (t.l, t.r, hash(t)) == first
        fresh = PregroupType(tuple(t.factors))
        assert t.r == PregroupType(tuple(f.r for f in reversed(fresh.factors)))
        assert t.l == PregroupType(tuple(f.l for f in reversed(fresh.factors)))
        assert hash(t) == hash(fresh) and t == fresh
        assert t.r.l == t and t.l.r == t
        assert {t: 1}[fresh] == 1

    @pytest.mark.parametrize("text", ["n", "n.r s n.l"])
    def test_pickle_and_copy_leave_the_cached_values_behind(self, text):
        # a str hash differs between processes, so a cached hash must not travel
        t = parse_type(text)
        hash(t), t.l, t.r
        for twin in (pickle.loads(pickle.dumps(t)), copy.copy(t), copy.deepcopy(t)):
            assert twin == t and not {"_hash", "l", "r"} & vars(twin).keys()
            assert {t: 1}[twin] == 1

    def test_factors_must_be_simple_types(self):
        with pytest.raises(TypeError, match="^factors must be SimpleType instances$"):
            PregroupType(("n",))

    def test_a_factor_is_its_base_and_order_tuple(self):
        assert SimpleType("n", 1) == ("n", 1) and hash(SimpleType("n", 1)) == hash(("n", 1))
        assert parse_type("n.r s") == (("n", 1), ("s", 0))
        assert {("n", 1): "found"}[parse_type("n").r[0]] == "found"
        with pytest.raises(AttributeError):
            SimpleType("n").z = 1

    def test_factors_is_a_plain_tuple_and_a_slice_a_type(self):
        t = parse_type("n.r s n.l")
        assert type(t.factors) is tuple and t.factors == tuple(t) == t
        assert type(t[1:]) is PregroupType and t[1:] == parse_type("s n.l")
        assert type(t @ t) is PregroupType and len(t @ t) == 6

    def test_repr_names_the_factors(self):
        assert repr(parse_type("n.r s")) == (
            "PregroupType(factors=(SimpleType(base='n', z=1), SimpleType(base='s', z=0)))"
        )

    @pytest.mark.parametrize("name", ["factors", "l", "r", "other"])
    def test_attributes_can_be_neither_assigned_nor_deleted(self, name):
        t = parse_type("n.r s")
        t.l, t.r  # cached
        with pytest.raises(AttributeError, match=f"^cannot assign to field '{name}'$"):
            setattr(t, name, parse_type("n"))
        with pytest.raises(AttributeError, match=f"^cannot delete field '{name}'$"):
            delattr(t, name)
        assert t == parse_type("n.r s") and t.l == parse_type("s.l n") and t.r == parse_type("s.r n.r.r")


class TestReductionDiagram:
    def test_partition_enforced(self):
        with pytest.raises(ValueError):
            ReductionDiagram(((0, 1),), (1,), 3)
        with pytest.raises(ValueError):
            ReductionDiagram(((1, 0),), (2,), 3)

    def test_json_round_trip(self):
        d = ReductionDiagram(((0, 1), (3, 4)), (2,), 5)
        assert d.to_json() == {"links": [[1, 2], [4, 5]], "survivors": [3]}

    def test_planarity_check(self):
        crossing = ReductionDiagram(((0, 2), (1, 3)), (), 4)
        assert not is_planar(crossing)
        nested = ReductionDiagram(((0, 3), (1, 2)), (), 4)
        assert is_planar(nested)

    def test_replay_rejects_unsound_diagram(self):
        # a link whose interior never clears cannot be replayed
        factors = list(parse_type("n s n.r"))
        bad = ReductionDiagram(((0, 2),), (1,), 3)
        with pytest.raises(ValueError):
            replay(bad, factors)

    def test_replay_rejects_wrong_length(self):
        d = ReductionDiagram(((0, 1),), (2,), 3)
        with pytest.raises(ValueError, match="^diagram size does not match the factor sequence$"):
            replay(d, list(parse_type("n n.r")))


class TestReduce:
    def test_transitive_sentence(self):
        n, s = atom("n"), atom("s")
        out = reduce([n, n.r @ s @ n.l, n], s)
        assert [d.to_json() for d in out] == [
            {"links": [[1, 2], [4, 5]], "survivors": [3]}
        ]

    def test_identity_reduction(self):
        s = atom("s")
        out = reduce([s], s)
        assert [d.to_json() for d in out] == [{"links": [], "survivors": [1]}]

    def test_intonated_sentence(self):
        # theme, boundary, rheme around the sentence head
        types = [parse_type("n n.r theta theta.r s rho.l rho")]
        out = reduce(types, atom("s"))
        assert [d.to_json() for d in out] == [
            {"links": [[1, 2], [3, 4], [6, 7]], "survivors": [5]}
        ]

    def test_two_distinct_reductions(self):
        # x x.l x x.r x s: the middle x can pair to either side
        types = [parse_type("x x.l x x.r x s")]
        out = reduce(types, parse_type("x s"))
        got = {(d.links, d.survivors) for d in out}
        assert got == {
            (((0, 3), (1, 2)), (4, 5)),
            (((1, 4), (2, 3)), (0, 5)),
        }
        oracle = brute_force_reductions(flatten(types), list(parse_type("x s")))
        assert got == oracle

    def test_canonical_order_is_by_link_list(self):
        types = [parse_type("x x.l x x.r x s")]
        out = reduce(types, parse_type("x s"))
        assert [d.links for d in out] == sorted(d.links for d in out)

    def test_unit_words(self):
        assert grammatical([PregroupType(())], PregroupType(()))
        assert not grammatical([PregroupType(())], atom("s"))

    def test_preconditions(self):
        with pytest.raises(ValueError):
            reduce([], atom("s"))
        with pytest.raises(ValueError):
            reduce([atom("n")], atom("n").r)
        with pytest.raises(ValueError):
            grammatical([], atom("s"))

    def test_grammatical_examples(self):
        n, s = atom("n"), atom("s")
        assert grammatical([n, n.r @ s], s)
        assert not grammatical([n, n], s)


class TestAgainstBruteForce:
    def test_random_sequences_match_oracle(self):
        rng = np.random.default_rng(42)
        target = [SimpleType("s")]
        for k in range(300):
            if k % 2:
                types = inverse_reduce_sequence(rng, target)
            else:
                types = random_type_sequence(rng)
            got = {(d.links, d.survivors) for d in reduce(types, atom("s"))}
            want = brute_force_reductions(flatten(types), target)
            assert got == want, f"mismatch for {' | '.join(map(str, types))}"

    def test_inverse_generated_sequences_are_grammatical(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            types = inverse_reduce_sequence(rng, [SimpleType("s")])
            assert grammatical(types, atom("s"))

    def test_all_diagrams_planar_and_sound(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            types = inverse_reduce_sequence(rng, [SimpleType("s")])
            factors = flatten(types)
            for d in reduce(types, atom("s")):
                assert is_planar(d)
                assert replay(d, factors) == [SimpleType("s")]


def _random_alternatives(rng):
    """Words with 1-3 distinct candidate types each: the words of a
    sequence that reduces to s, each with extra candidates drawn from the
    other words, from random types and from the unit."""
    split = inverse_reduce_sequence(rng, [SimpleType("s")], 7)
    words = []
    for t in split:
        alts = [t]
        for _ in range(int(rng.integers(0, 3))):
            pick = rng.random()
            if pick < 0.15:
                alt = PregroupType(())
            elif pick < 0.6:
                alt = split[int(rng.integers(0, len(split)))]
            else:
                alt = PregroupType(tuple(flatten(random_type_sequence(rng, 3))))
            if alt not in alts:
                alts.insert(int(rng.integers(0, len(alts) + 1)), alt)
        words.append(alts)
    return words


class TestChart:
    def test_sense_choices_match_product_of_oracle(self):
        rng = np.random.default_rng(29)
        for _ in range(400):
            words = _random_alternatives(rng)
            for target in (atom("s"), PregroupType(()), parse_type("s n")):
                want = []
                for choice in itertools.product(*(range(len(a)) for a in words)):
                    factors = flatten([words[w][k] for w, k in enumerate(choice)])
                    found = brute_force_reductions(factors, list(target))
                    want += [(choice, r) for r in sorted(found)]
                got = [(c, (d.links, d.survivors)) for c, d in chart_reductions(words, target)]
                assert got == want

    def test_unit_senses(self):
        unit, n, s = PregroupType(()), atom("n"), atom("s")
        out = chart_reductions([[unit, n], [unit], [n.r @ s]], s)
        assert [(c, d.to_json()) for c, d in out] == [
            ((1, 0, 0), {"links": [[1, 2]], "survivors": [3]})
        ]
        (only,) = chart_reductions([[unit], [unit]], unit)
        assert only == ((0, 0), ReductionDiagram((), (), 0))

    def test_forty_five_factor_chain_has_one_reduction(self):
        chain = parse_type("n n.r s n.l n" + " n.r n" * 20)
        assert len(chain) == 45
        (d,) = reduce([chain], atom("s"))
        assert d.survivors == (2,)
        assert replay(d, list(chain)) == [SimpleType("s")]


def _chain(k):
    """``n n.r s n.l n (n.r n)^k`` and its one reduction to s (0-based)."""
    links = [(0, 1), (3, 2 * k + 4)] + [(i, i + 1) for i in range(4, 2 * k + 4, 2)]
    return parse_type("n n.r s n.l n" + " n.r n" * k), links, (2,)


def _nested(k):
    """``s n.l^k n^k`` and its one reduction to s (0-based)."""
    links = [(k + 1 - i, k + i) for i in range(k, 0, -1)]
    return parse_type("s" + " n.l" * k + " n" * k), links, (0,)


class TestDeepInputs:
    # 2,405 and 2,401 factors: a recursive enumerator needs one frame per
    # nesting level or chained link and overflows Python's stack
    @pytest.mark.parametrize("family", [_chain, _nested])
    def test_reduce_one_factor_per_word(self, family):
        t, links, survivors = family(1200)
        (d,) = reduce([PregroupType((f,)) for f in t], atom("s"))
        assert d.links == tuple(links)
        assert d.survivors == survivors


class TestEnumerationOrder:
    """Within one sense choice the chart yields reductions in canonical
    order; only the sense choices need sorting."""

    @staticmethod
    def _assert_canonical_per_choice(words, target):
        by_choice = {}
        for choice, d in _Chart([*words, [target.r]]).reductions():
            by_choice.setdefault(choice, []).append(d.links)
        for found in by_choice.values():
            assert found == sorted(found)
            assert len(set(found)) == len(found)
        return sum(map(len, by_choice.values()))

    def test_random_alternatives(self):
        rng = np.random.default_rng(31)
        for _ in range(400):
            words = _random_alternatives(rng)
            for target in (atom("s"), PregroupType(()), parse_type("s n"), atom("n")):
                self._assert_canonical_per_choice(words, target)

    def test_many_reductions_per_sense_choice(self):
        family = parse_type("n n.l " * 6 + "n n.r " * 7 + "s")
        assert self._assert_canonical_per_choice([[family]], atom("s")) == 924
        # 450 sense choices, 223 of them with more than one reduction
        n, unit = atom("n"), PregroupType(())
        words = [[n @ n.l, n, unit]] * 4 + [[n @ n.r, n.r]] * 5 + [[atom("s")]]
        assert self._assert_canonical_per_choice(words, atom("s")) == 1471


class TestClosestResidual:
    def test_first_link_list_breaks_ties(self):
        # links (1,2) and (2,3) both leave one factor; (1,2) comes first
        assert str(closest_residual([[parse_type("x.l x x.r")]])) == "x.r"

    def test_first_sense_choice_breaks_ties(self):
        words = [[atom("a"), atom("b")], [atom("c")]]
        assert str(closest_residual(words)) == "a c"

    def test_full_cancellation_reaches_the_unit(self):
        assert closest_residual([[atom("n")], [atom("n").r]]) == PregroupType(())

    def test_matches_oracle(self):
        rng = np.random.default_rng(31)
        for _ in range(400):
            words = _random_alternatives(rng)
            best = None
            for choice in itertools.product(*(range(len(a)) for a in words)):
                factors = flatten([words[w][k] for w, k in enumerate(choice)])
                for links, remaining in brute_force_contractions(factors):
                    key = (len(remaining), choice, links)
                    if best is None or key < best[0]:
                        best = (key, PregroupType(tuple(factors[k] for k in remaining)))
            assert closest_residual(words) == best[1]
