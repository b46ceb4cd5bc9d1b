import itertools
import json

import numpy as np
import pytest

from intonsem.intonation import meaning, parse_annotated
from intonsem.lexicon import Lexicon, LexiconEntry
from intonsem.pregroup import atom, parse_type, reduce
from intonsem.tensor import TypedTensor, compose
from intonsem.truth import (
    Relation,
    Universe,
    UniverseError,
    UnknownIndividualError,
    intersect,
    load_universe,
    membership,
    relation_lift,
    theme_vector,
    theme_vector_composed,
)


def _all_relations(n):
    for bits in itertools.product((0.0, 1.0), repeat=n * n):
        yield Relation("r", np.asarray(bits).reshape(n, n))


class TestUniverse:
    def test_basics(self):
        u = Universe(("a", "b", "c"))
        assert u.dim == 3
        assert u.index("b") == 1
        assert np.array_equal(u.basis("c"), np.array([0.0, 0.0, 1.0]))

    def test_unknown_individual(self):
        u = Universe(("a",))
        with pytest.raises(UnknownIndividualError, match="'b'"):
            u.index("b")

    @pytest.mark.parametrize("name", ["z", 0, ["a"]], ids=["str", "int", "unhashable"])
    def test_unknown_individual_message(self, name):
        u = Universe(("a", "b"))
        with pytest.raises(UnknownIndividualError) as exc:
            u.index(name)
        assert str(exc.value) == f"unknown individual {name!r}; universe has a, b"

    def test_duplicates_rejected(self):
        with pytest.raises(UniverseError, match="unique"):
            Universe(("a", "a"))

    def test_empty_rejected(self):
        with pytest.raises(UniverseError):
            Universe(())


class TestRelation:
    def test_from_pairs(self):
        u = Universe(("a", "b"))
        r = Relation.from_pairs("knows", [["a", "b"], ["b", "b"]], u)
        assert np.array_equal(r.matrix, np.array([[0.0, 1.0], [0.0, 1.0]]))

    def test_zero_one_enforced(self):
        with pytest.raises(UniverseError, match="0/1"):
            Relation("r", np.array([[0.5, 0.0], [0.0, 1.0]]))

    def test_square_enforced(self):
        with pytest.raises(UniverseError, match="square"):
            Relation("r", np.zeros((2, 3)))

    def test_immutable(self):
        r = Relation("r", np.eye(2))
        with pytest.raises(ValueError):
            r.matrix[0, 0] = 0.0

    def test_unknown_name_in_pairs(self):
        u = Universe(("a",))
        with pytest.raises(UnknownIndividualError):
            Relation.from_pairs("r", [["a", "z"]], u)

    def test_first_unknown_name_in_pair_order_is_reported(self):
        u = Universe(("a", "b"))
        with pytest.raises(UnknownIndividualError, match="'y'"):
            Relation.from_pairs("r", [["a", "b"], ["y", "a"], ["b", "z"]], u)

    def test_from_pairs_repeats_and_no_pairs(self):
        u = Universe(("a", "b", "c"))
        r = Relation.from_pairs("r", [["c", "a"], ["c", "a"], ["a", "c"]], u)
        assert np.array_equal(r.matrix, [[0, 0, 1], [0, 0, 0], [1, 0, 0]])
        assert np.array_equal(Relation.from_pairs("r", [], u).matrix, np.zeros((3, 3)))

    def test_zero_one_check_matches_isin(self):
        for value in (0.0, -0.0, 1.0, 0.5, -1.0, np.nan, np.inf, -np.inf):
            m = np.array([[1.0, 0.0], [0.0, value]])
            assert bool(np.isin(m, (0.0, 1.0)).all()) is (value in (0.0, 1.0))
            if value in (0.0, 1.0):
                assert Relation("r", m).matrix[1, 1] == value
            else:
                with pytest.raises(UniverseError, match="0/1"):
                    Relation("r", m)


class TestThemeVector:
    def test_fixture_row(self, example_universe):
        universe, relations = example_universe
        got = theme_vector(universe, relations["likes"], "John")
        assert np.array_equal(got, np.array([1.0, 1.0, 0.0]))

    def test_empty_relation(self):
        u = Universe(("a", "b"))
        r = Relation("r", np.zeros((2, 2)))
        assert np.array_equal(theme_vector(u, r, "a"), np.zeros(2))

    def test_dimension_mismatch(self):
        u = Universe(("a", "b", "c"))
        r = Relation("r", np.eye(2))
        with pytest.raises(UniverseError, match="dimensions differ"):
            theme_vector(u, r, "a")

    def test_lift_type_and_shape(self):
        r = Relation("r", np.eye(3))
        lifted = relation_lift(r)
        assert lifted.type == parse_type("n.r s n.l")
        assert lifted.array.shape == (3, 1, 3)

    def test_categorical_route_equals_row_exhaustively(self):
        for n in (1, 2, 3):
            u = Universe(tuple(f"x{k}" for k in range(n)))
            for rel in _all_relations(n):
                for subject in u.individuals:
                    got = theme_vector_composed(u, rel, subject)
                    want = theme_vector(u, rel, subject)
                    assert np.array_equal(got, want)


class TestMembershipAndIntersect:
    def test_fixture_membership(self, example_universe):
        universe, relations = example_universe
        theme = theme_vector(universe, relations["likes"], "John")
        assert membership(universe, theme, "Mary") == 1
        assert membership(universe, theme, "Sue") == 1
        assert membership(universe, theme, "John") == 0

    def test_fixture_intersection(self, example_universe):
        universe, relations = example_universe
        theme = theme_vector(universe, relations["likes"], "John")
        assert np.array_equal(
            intersect(universe, theme, "Mary"), universe.basis("Mary")
        )
        assert np.array_equal(intersect(universe, theme, "John"), np.zeros(3))

    def test_all_ones_theme(self):
        u = Universe(("a", "b"))
        assert membership(u, np.ones(2), "b") == 1

    def test_non_binary_theme_rejected(self):
        u = Universe(("a", "b"))
        with pytest.raises(ValueError, match="0/1"):
            membership(u, np.array([0.5, 0.0]), "a")

    @pytest.mark.parametrize("value", [0.5, -1.0, np.nan, np.inf])
    def test_non_binary_values_rejected(self, value):
        u = Universe(("a", "b"))
        with pytest.raises(ValueError, match="0/1"):
            membership(u, np.array([1.0, value]), "a")

    def test_negative_zero_accepted(self):
        u = Universe(("a", "b"))
        assert membership(u, np.array([-0.0, 1.0]), "a") == 0
        assert membership(u, np.array([-0.0, 1.0]), "b") == 1

    def test_wrong_length_rejected(self):
        u = Universe(("a", "b"))
        with pytest.raises(ValueError, match="dimension"):
            membership(u, np.ones(3), "a")
        with pytest.raises(ValueError, match="dimension"):
            intersect(u, np.ones(3), "a")

    def test_case_split_exhaustive(self):
        # intersection is e_rheme or zero, nonzero exactly at membership
        for n in (1, 2, 3):
            u = Universe(tuple(f"x{k}" for k in range(n)))
            for rel in _all_relations(n):
                for s in u.individuals:
                    theme = theme_vector(u, rel, s)
                    for r in u.individuals:
                        bit = membership(u, theme, r)
                        inter = intersect(u, theme, r)
                        assert bit == int(rel.matrix[u.index(s), u.index(r)])
                        if bit:
                            assert np.array_equal(inter, u.basis(r))
                        else:
                            assert np.array_equal(inter, np.zeros(n))


class TestLoadUniverse:
    def test_fixture(self, example_universe):
        universe, relations = example_universe
        assert universe.individuals == ("Mary", "Sue", "John")
        assert set(relations) == {"likes"}
        m = relations["likes"].matrix
        assert m[universe.index("John"), universe.index("Mary")] == 1.0
        assert m.sum() == 2.0

    def test_parse_error_line(self, tmp_path):
        p = tmp_path / "u.json"
        p.write_text('{\n "individuals": [\n')
        with pytest.raises(UniverseError, match="line 3"):
            load_universe(p)

    def test_missing_individuals(self, tmp_path):
        p = tmp_path / "u.json"
        p.write_text("{}")
        with pytest.raises(UniverseError, match="individuals"):
            load_universe(p)

    def test_bad_pairs(self, tmp_path):
        p = tmp_path / "u.json"
        p.write_text(json.dumps({"individuals": ["a"], "relations": {"r": [["a"]]}}))
        with pytest.raises(UniverseError, match="pairs"):
            load_universe(p)

    @pytest.mark.parametrize("relations", [[["a", "a"]], "likes", 3])
    def test_relations_must_be_an_object(self, tmp_path, relations):
        p = tmp_path / "u.json"
        p.write_text(json.dumps({"individuals": ["a"], "relations": relations}))
        with pytest.raises(UniverseError, match="'relations' must be an object"):
            load_universe(p)

    def test_unknown_name_in_pair(self, tmp_path):
        p = tmp_path / "u.json"
        p.write_text(
            json.dumps({"individuals": ["a"], "relations": {"r": [["a", "z"]]}})
        )
        with pytest.raises(UnknownIndividualError):
            load_universe(p)


class TestCategoricalAgreement:
    def test_lift_composes_like_plain_sentence(self, example_universe):
        # subject . lifted-relation . object reduces to the 1-dim sentence
        # space carrying the membership bit
        universe, relations = example_universe
        lifted = relation_lift(relations["likes"])
        for s in universe.individuals:
            for o in universe.individuals:
                words = [
                    TypedTensor(atom("n"), universe.basis(s)),
                    lifted,
                    TypedTensor(atom("n"), universe.basis(o)),
                ]
                (diagram,) = reduce([w.type for w in words], atom("s"))
                got = compose(words, diagram)
                want = relations["likes"].matrix[universe.index(s), universe.index(o)]
                assert got.array.shape == (1,)
                assert float(got.array[0]) == want

    def test_intonated_meaning_equals_intersection(self, example_universe):
        # encode the universe as a lexicon; the theme/rheme meaning of
        # "{T s likes} {R o}" is exactly the intersection vector
        universe, relations = example_universe
        d = universe.dim
        entries = {}
        for name in universe.individuals:
            entries[name] = LexiconEntry(
                name,
                (
                    TypedTensor(atom("n"), universe.basis(name)),
                    TypedTensor(atom("rho"), universe.basis(name)),
                ),
            )
        entries["likes"] = LexiconEntry(
            "likes",
            (TypedTensor(parse_type("n.r theta"), relations["likes"].matrix),),
        )
        dims = {"n": d, "s": d, "theta": d, "rho": d}
        lex = Lexicon(dims, entries)
        for s in universe.individuals:
            theme = theme_vector(universe, relations["likes"], s)
            for o in universe.individuals:
                got = meaning(parse_annotated(f"{s} likes {{R {o}}}"), lex)
                assert np.array_equal(got.array, intersect(universe, theme, o))
