import itertools

import numpy as np
import pytest

from intonsem import intonation
from intonsem.frobenius import spider
from intonsem.intonation import (
    PATTERN_DOUBLE,
    PATTERN_RELATIONAL,
    PATTERN_SINGLE,
    PATTERN_SPLIT,
    RHEME,
    THEME,
    AnnotatedSentence,
    AnnotationSyntaxError,
    InfelicitousStructure,
    Span,
    analyses,
    boundary_contraction,
    copy_expand,
    meaning,
    meaning_multiple_rhemes,
    meaning_split_theme,
    parse_annotated,
    type_spans,
)
from intonsem.lexicon import Lexicon, LexiconEntry, LexiconError
from intonsem.pregroup import (
    PregroupType,
    SimpleType,
    atom,
    chart_reductions,
    flatten,
    parse_type,
    reduce,
)
from intonsem.tensor import TypedTensor, compose

from _oracles import brute_force_reductions, inverse_reduce_sequence, random_type_sequence


def _lex(dims, words):
    entries = {}
    for word, senses in words.items():
        entries[word] = LexiconEntry(
            word, tuple(TypedTensor(parse_type(t), a) for t, a in senses)
        )
    return Lexicon(dims, entries)


def _uniform_dims(d):
    return {"n": d, "s": d, "theta": d, "rho": d}


class TestParseAnnotated:
    def test_explicit_spans(self):
        s = parse_annotated("{T Mary likes} {R musicals}")
        assert s.roles == (THEME, RHEME)
        assert s.spans[0].tokens == ("Mary", "likes")
        assert s.spans[1].tokens == ("musicals",)

    def test_bare_tokens_become_theme(self):
        s = parse_annotated("Mary likes {R musicals}")
        assert s == parse_annotated("{T Mary likes} {R musicals}")

    def test_adjacent_same_role_spans_merge(self):
        s = parse_annotated("{T Mary} {T likes} {R musicals}")
        assert s.spans[0].tokens == ("Mary", "likes")

    def test_bare_run_merges_with_explicit_theme(self):
        s = parse_annotated("Mary {T likes} {R musicals}")
        assert s.spans[0].tokens == ("Mary", "likes")

    def test_three_span_sentence(self):
        s = parse_annotated("{R John} likes {R Mary}")
        assert s.roles == (RHEME, THEME, RHEME)

    def test_str_round_trip(self):
        text = "{T Mary wrote} {R a book} {T about art}"
        assert str(parse_annotated(text)) == text

    def test_unclosed_brace(self):
        with pytest.raises(AnnotationSyntaxError, match="unclosed"):
            parse_annotated("{R musicals")

    def test_nested_brace(self):
        with pytest.raises(AnnotationSyntaxError, match="nested"):
            parse_annotated("{R {T x} y}")

    def test_unmatched_close(self):
        with pytest.raises(AnnotationSyntaxError, match="unmatched"):
            parse_annotated("musicals }")

    def test_bad_role_tag(self):
        with pytest.raises(AnnotationSyntaxError, match="'T' or 'R'"):
            parse_annotated("{X musicals}")

    def test_empty_span(self):
        with pytest.raises(AnnotationSyntaxError, match="empty span"):
            parse_annotated("{R }")

    def test_empty_sentence(self):
        with pytest.raises(AnnotationSyntaxError, match="no tokens"):
            parse_annotated("   ")


class TestSpanInvariants:
    def test_span_role_checked(self):
        with pytest.raises(ValueError, match="role"):
            Span("topic", ("x",))

    def test_span_needs_tokens(self):
        with pytest.raises(ValueError, match="token"):
            Span(THEME, ())

    def test_adjacent_roles_must_differ(self):
        a = Span(THEME, ("x",))
        with pytest.raises(ValueError, match="differ"):
            AnnotatedSentence((a, a))

    def test_sentence_needs_spans(self):
        with pytest.raises(ValueError):
            AnnotatedSentence(())


class TestTypeSpans:
    def test_single_rheme_typing(self, example_lexicon):
        s = parse_annotated("Mary likes {R musicals}")
        (typing,) = type_spans(s, example_lexicon)
        theme, rheme = typing
        assert theme.target == atom("theta")
        assert [str(x.type) for x in theme.senses] == ["n", "n.r theta"]
        assert theme.diagram.to_json() == {"links": [[1, 2]], "survivors": [3]}
        assert rheme.target == atom("rho")
        assert [str(x.type) for x in rheme.senses] == ["rho"]

    def test_nested_theme_typing(self, example_lexicon):
        s = parse_annotated("{T Mary wrote a book about} {R art}")
        (typing,) = type_spans(s, example_lexicon)
        theme = typing[0]
        assert theme.target == atom("theta")
        assert [str(x.type) for x in theme.senses] == [
            "n",
            "n.r n n.l",
            "n n.l",
            "n",
            "n.r theta",
        ]

    def test_no_typing_names_span_and_target(self, example_lexicon):
        s = parse_annotated("{T book book} {R musicals}")
        with pytest.raises(InfelicitousStructure) as exc:
            type_spans(s, example_lexicon)
        msg = str(exc.value)
        assert "span 1" in msg and "{T book book}" in msg and "theta" in msg

    def test_unsupported_pattern(self, example_lexicon):
        spans = (
            Span(THEME, ("Mary",)),
            Span(RHEME, ("musicals",)),
            Span(THEME, ("John",)),
            Span(RHEME, ("art",)),
        )
        with pytest.raises(InfelicitousStructure, match="unsupported span pattern"):
            type_spans(AnnotatedSentence(spans), example_lexicon)

    def test_unknown_word(self, example_lexicon):
        s = parse_annotated("Mary likes {R zebras}")
        with pytest.raises(LexiconError, match="zebras"):
            type_spans(s, example_lexicon)


class TestSenseReductions:
    def test_multi_sense_matches_product_of_oracle(self):
        # random lexicons of 2-3 senses per word; each span draws words
        # with repeats, so a word's senses recur at several positions
        rng = np.random.default_rng(37)
        checked = 0
        for _ in range(120):
            pool = random_type_sequence(rng, 6) + inverse_reduce_sequence(rng, [SimpleType("s")], 6)
            pool = list(dict.fromkeys(str(t) for t in pool))
            words = {}
            for k in range(int(rng.integers(1, 4))):
                size = min(len(pool), int(rng.integers(2, 4)))
                picks = rng.choice(len(pool), size=size, replace=False)
                words[f"w{k}"] = [(pool[i], np.ones((1,) * len(parse_type(pool[i])))) for i in picks]
            lex = _lex({"n": 1, "s": 1, "theta": 1, "rho": 1}, words)
            length = int(rng.integers(1, 5))
            span = [f"w{int(k)}" for k in rng.integers(0, len(words), size=length)]
            for target in (atom("s"), PregroupType(())):
                want = []
                for combo in itertools.product(*(lex[w].senses for w in span)):
                    found = brute_force_reductions(flatten([s.type for s in combo]), list(target))
                    types = [str(s.type) for s in combo]
                    want += [(types, links, survivors) for links, survivors in sorted(found)]
                alternatives = [lex[w].types() for w in span]
                got = [
                    ([str(t[k]) for t, k in zip(alternatives, choice)], d.links, d.survivors)
                    for choice, d in chart_reductions(alternatives, target)
                ]
                assert got == want
                checked += len(got)
        assert checked > 50

    @pytest.mark.parametrize("k", [3, 5])
    def test_long_infelicitous_theme_fails_fast(self, example_lexicon, k):
        # 14 and 20 words: the sense product alone has 1.2e5 and 1.8e7 entries
        s = parse_annotated("Mary wrote a book " + "about a book " * k + "about {R art}")
        assert len(s.spans[0].tokens) == 5 + 3 * k
        residual = " ".join(["theta"] * (k + 1))
        with pytest.raises(InfelicitousStructure, match=f"best reached: '{residual}'$"):
            type_spans(s, example_lexicon)

    def test_failure_names_closest_residual(self, example_lexicon):
        s = parse_annotated("{T book book} {R musicals}")
        with pytest.raises(InfelicitousStructure) as exc:
            type_spans(s, example_lexicon)
        assert str(exc.value) == (
            "single-rheme: span 1 {T book book} has no sense assignment "
            "reducing to 'theta'; best reached: 'n n'"
        )


class TestSingleRhemeMeaning:
    def test_fixture_value(self, example_lexicon):
        got = meaning(parse_annotated("Mary likes {R musicals}"), example_lexicon)
        assert got.pattern == PATTERN_SINGLE
        assert got.order == 1
        assert np.array_equal(got.array, np.array([0.0, 3.0, 6.0, 6.0]))

    def test_matches_hand_built_product(self, example_lexicon):
        mary = example_lexicon["Mary"].sense(parse_type("n")).array
        verb = example_lexicon["likes"].sense(parse_type("n.r theta")).array
        rheme = example_lexicon["musicals"].sense(parse_type("rho")).array
        want = (mary @ verb) * rheme
        got = meaning(parse_annotated("Mary likes {R musicals}"), example_lexicon)
        assert np.array_equal(got.array, want)

    def test_rheme_first_orientation_same_value(self, example_lexicon):
        a = meaning(parse_annotated("{R musicals} {T Mary likes}"), example_lexicon)
        b = meaning(parse_annotated("{T Mary likes} {R musicals}"), example_lexicon)
        assert np.array_equal(a.array, b.array)

    def test_all_ones_theme_returns_rheme(self):
        lex = _lex(
            _uniform_dims(3),
            {
                "stuff": [("theta", np.ones(3))],
                "happens": [("rho", np.array([3.0, 0.0, 5.0]))],
            },
        )
        got = meaning(parse_annotated("{T stuff} {R happens}"), lex)
        assert np.array_equal(got.array, np.array([3.0, 0.0, 5.0]))

    def test_zero_rheme_coordinate_zeroes_meaning(self):
        rng = np.random.default_rng(5)
        theme = rng.standard_normal(6)
        rheme = rng.standard_normal(6)
        rheme[2] = 0.0
        lex = _lex(
            _uniform_dims(6),
            {"t": [("theta", theme)], "r": [("rho", rheme)]},
        )
        got = meaning(parse_annotated("{T t} {R r}"), lex)
        assert got.array[2] == 0.0

    def test_nested_theme_fixture(self, example_lexicon):
        got = meaning(
            parse_annotated("{T Mary wrote a book about} {R art}"), example_lexicon
        )
        mary = example_lexicon["Mary"].sense(parse_type("n")).array
        wrote3 = example_lexicon["wrote"].sense(parse_type("n.r n n.l")).array
        a = example_lexicon["a"].sense(parse_type("n n.l")).array
        book = example_lexicon["book"].sense(parse_type("n")).array
        about = example_lexicon["about"].sense(parse_type("n.r theta")).array
        art = example_lexicon["art"].sense(parse_type("rho")).array
        theme = np.tensordot(mary, wrote3, axes=(0, 0))
        theme = np.tensordot(theme, a, axes=(1, 0))
        theme = np.tensordot(theme, book, axes=(1, 0))
        theme = np.tensordot(theme, about, axes=(0, 0))
        assert np.array_equal(got.array, theme * art)

    def test_mixed_dims_rejected(self):
        lex = _lex(
            {"n": 2, "s": 1, "theta": 2, "rho": 2},
            {"t": [("theta", np.ones(2))], "r": [("rho", np.ones(2))]},
        )
        with pytest.raises(LexiconError, match="shared space"):
            meaning(parse_annotated("{T t} {R r}"), lex)


class TestBoundaryContraction:
    def test_equals_elementwise_product(self):
        rng = np.random.default_rng(6)
        for d in (2, 5, 50):
            for _ in range(20):
                theme = rng.standard_normal(d)
                rheme = rng.standard_normal(d)
                got = boundary_contraction(theme, rheme)
                want = theme * rheme
                assert np.allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_orientations_agree(self):
        rng = np.random.default_rng(7)
        theme = rng.standard_normal(5)
        rheme = rng.standard_normal(5)
        a = boundary_contraction(theme, rheme)
        b = boundary_contraction(theme, rheme, rheme_first=True)
        assert np.array_equal(a, b)

    def test_validation(self):
        with pytest.raises(ValueError):
            boundary_contraction(np.ones(3), np.ones(4))
        with pytest.raises(ValueError):
            boundary_contraction(np.ones((2, 2)), np.ones(4))


class TestDoubleRheme:
    def test_fixture_matrix(self, example_lexicon):
        got = meaning_multiple_rhemes(
            parse_annotated("{R John} likes {R Mary}"), example_lexicon
        )
        assert got.pattern == PATTERN_DOUBLE
        assert got.order == 2
        want = np.array(
            [
                [2.0, 0.0, 0.0, 1.0],
                [0.0, 0.0, 0.0, 0.0],
                [4.0, 1.0, 0.0, 1.0],
                [0.0, 0.0, 0.0, 0.0],
            ]
        )
        assert np.array_equal(got.array, want)

    def test_equals_outer_product_restriction(self, example_lexicon):
        got = meaning_multiple_rhemes(
            parse_annotated("{R John} likes {R Mary}"), example_lexicon
        )
        r1 = example_lexicon["John"].sense(parse_type("rho")).array
        r2 = example_lexicon["Mary"].sense(parse_type("rho")).array
        m = example_lexicon["likes"].sense(parse_type("theta theta")).array
        assert np.array_equal(got.array, np.outer(r1, r2) * m)

    def test_basis_vectors_pick_out_one_entry(self):
        m = np.array([[1.0, 2.0], [3.0, 4.0]])
        lex = _lex(
            _uniform_dims(2),
            {
                "john": [("rho", np.array([1.0, 0.0]))],
                "mary": [("rho", np.array([0.0, 1.0]))],
                "likes": [("theta theta", m)],
            },
        )
        got = meaning_multiple_rhemes(
            parse_annotated("{R john} likes {R mary}"), lex
        )
        want = np.zeros((2, 2))
        want[0, 1] = m[0, 1]
        assert np.array_equal(got.array, want)

    def test_all_ones_matrix_gives_outer_product(self):
        rng = np.random.default_rng(9)
        r1, r2 = rng.standard_normal(3), rng.standard_normal(3)
        lex = _lex(
            _uniform_dims(3),
            {
                "a": [("rho", r1)],
                "b": [("rho", r2)],
                "rel": [("theta theta", np.ones((3, 3)))],
            },
        )
        got = meaning_multiple_rhemes(parse_annotated("{R a} rel {R b}"), lex)
        assert np.allclose(got.array, np.outer(r1, r2), rtol=1e-12, atol=1e-12)

    def test_requires_rheme_theme_rheme(self, example_lexicon):
        with pytest.raises(InfelicitousStructure, match="rheme-theme-rheme"):
            meaning_multiple_rhemes(
                parse_annotated("Mary likes {R musicals}"), example_lexicon
            )


class TestRelationalRheme:
    def test_equals_double_rheme_meaning(self, example_lexicon):
        # themes around a relational rheme commute with rhemes around a
        # relational theme: both restrict the same matrix
        a = meaning(parse_annotated("{T John} {R likes} {T Mary}"), example_lexicon)
        b = meaning_multiple_rhemes(
            parse_annotated("{R John} likes {R Mary}"), example_lexicon
        )
        assert a.pattern == PATTERN_RELATIONAL
        assert np.array_equal(a.array, b.array)

    def test_matrix_entry_restriction(self):
        m = np.array([[1.0, 2.0], [3.0, 4.0]])
        lex = _lex(
            _uniform_dims(2),
            {
                "john": [("theta", np.array([1.0, 0.0]))],
                "mary": [("theta", np.array([0.0, 1.0]))],
                "likes": [("rho rho", m)],
            },
        )
        got = meaning(parse_annotated("{T john} {R likes} {T mary}"), lex)
        assert got.pattern == PATTERN_RELATIONAL
        want = np.zeros((2, 2))
        want[0, 1] = m[0, 1]
        assert np.array_equal(got.array, want)


    def test_random_floats_match_outer_product(self):
        rng = np.random.default_rng(18)
        for d in (2, 5, 50):
            t1, t2 = rng.standard_normal(d), rng.standard_normal(d)
            m = rng.standard_normal((d, d))
            lex = _lex(
                _uniform_dims(d),
                {"a": [("theta", t1)], "b": [("theta", t2)], "rel": [("rho rho", m)]},
            )
            got = meaning(parse_annotated("{T a} {R rel} {T b}"), lex)
            assert got.pattern == PATTERN_RELATIONAL
            assert np.allclose(got.array, np.outer(t1, t2) * m, rtol=1e-12, atol=1e-12)


class TestSplitTheme:
    def test_fixture_value(self, example_lexicon):
        got = meaning_split_theme(
            parse_annotated("{T Mary wrote} {R a book} {T about art}"),
            example_lexicon,
        )
        assert got.pattern == PATTERN_SPLIT
        assert got.order == 1
        assert np.array_equal(got.array, np.array([4.0, 12.0, 0.0, 0.0]))

    def test_equals_three_way_product(self, example_lexicon):
        s = parse_annotated("{T Mary wrote} {R a book} {T about art}")
        (a,) = analyses(s, example_lexicon)
        t1, r, t2 = (v.array for v in a.values)
        assert np.array_equal(a.meaning.array, t1 * r * t2)

    def test_chained_boundaries_match_product(self):
        # theme1 . [theta.r rho rho.l] . rheme . [rho.r s theta.l] . theme2
        # normalizes to the three-way element-wise product
        rng = np.random.default_rng(11)
        from intonsem.frobenius import boundary_tensor

        for d in (2, 5, 50):
            t1, r, t2 = (rng.standard_normal(d) for _ in range(3))
            words = [
                TypedTensor(parse_type("theta"), t1),
                TypedTensor(parse_type("theta.r rho rho.l"), spider(1, 2, d)),
                TypedTensor(parse_type("rho"), r),
                boundary_tensor(d, rheme_first=True),
                TypedTensor(parse_type("theta"), t2),
            ]
            diagrams = reduce([w.type for w in words], atom("s"))
            assert len(diagrams) == 1
            got = compose(words, diagrams[0]).array
            assert np.allclose(got, t1 * r * t2, rtol=1e-12, atol=1e-12)

    def test_all_ones_second_theme_reduces_to_single_rheme(self):
        rng = np.random.default_rng(12)
        t1, r = rng.standard_normal(4), rng.standard_normal(4)
        lex = _lex(
            _uniform_dims(4),
            {
                "t1": [("theta", t1)],
                "r": [("rho", r)],
                "t2": [("theta", np.ones(4))],
            },
        )
        split = meaning_split_theme(parse_annotated("{T t1} {R r} {T t2}"), lex)
        single = meaning(parse_annotated("{T t1} {R r}"), lex)
        assert np.array_equal(split.array, single.array)

    def test_requires_theme_rheme_theme(self, example_lexicon):
        with pytest.raises(InfelicitousStructure, match="theme-rheme-theme"):
            meaning_split_theme(
                parse_annotated("{R John} likes {R Mary}"), example_lexicon
            )

    def test_no_split_reading_available(self, example_lexicon):
        # likes has no vector rheme sense, so only the relational reading exists
        s = parse_annotated("{T John} {R likes} {T Mary}")
        with pytest.raises(InfelicitousStructure, match="split-theme"):
            meaning_split_theme(s, example_lexicon)

    def test_split_listed_before_relational(self):
        # a middle word with both a vector and a matrix rheme sense yields
        # both readings, split-theme first
        rng = np.random.default_rng(13)
        lex = _lex(
            _uniform_dims(3),
            {
                "t1": [("theta", rng.standard_normal(3))],
                "t2": [("theta", rng.standard_normal(3))],
                "r": [
                    ("rho", rng.standard_normal(3)),
                    ("rho rho", rng.standard_normal((3, 3))),
                ],
            },
        )
        got = analyses(parse_annotated("{T t1} {R r} {T t2}"), lex)
        assert [a.pattern for a in got] == [PATTERN_SPLIT, PATTERN_RELATIONAL]


class TestAmbiguity:
    def test_two_readings_of_one_rheme_span(self):
        d = 3
        run_vec = np.array([1.0, 2.0, 3.0])
        fast_vec = np.array([2.0, 0.0, 1.0])
        lex = _lex(
            _uniform_dims(d),
            {
                "she": [("theta", np.ones(d))],
                "run": [("rho", run_vec), ("rho rho.l", np.eye(d))],
                "fast": [("rho.r rho", np.eye(d)), ("rho", fast_vec)],
            },
        )
        got = analyses(parse_annotated("{T she} {R run fast}"), lex)
        assert len(got) == 2
        values = sorted(tuple(a.meaning.array) for a in got)
        assert values == sorted([tuple(run_vec), tuple(fast_vec)])

    def test_each_span_option_composed_once(self, monkeypatch):
        # 2 theme options x 2 rheme options: 4 derivations share 4 span values
        d = 3
        rng = np.random.default_rng(19)
        lex = _lex(
            _uniform_dims(d),
            {
                "she": [("theta", rng.standard_normal(d)), ("theta theta.l", np.eye(d))],
                "sang": [("theta.r theta", np.eye(d)), ("theta", rng.standard_normal(d))],
                "run": [("rho", rng.standard_normal(d)), ("rho rho.l", np.eye(d))],
                "fast": [("rho.r rho", np.eye(d)), ("rho", rng.standard_normal(d))],
            },
        )
        calls = []

        def counting_compose(words, diagram):
            calls.append(diagram)
            return compose(words, diagram)

        monkeypatch.setattr(intonation, "compose", counting_compose)
        got = analyses(parse_annotated("{T she sang} {R run fast}"), lex)
        assert len(got) == 4
        assert len(calls) == 4

    def test_deterministic_order(self, example_lexicon):
        s = parse_annotated("Mary likes {R musicals}")
        a = [an.meaning.array for an in analyses(s, example_lexicon)]
        b = [an.meaning.array for an in analyses(s, example_lexicon)]
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert np.array_equal(x, y)


class TestCopyExpand:
    def test_object_copy_entries(self):
        m = np.array([[1.0, 2.0], [3.0, 4.0]])
        t = copy_expand(m, "object")
        for i in range(2):
            for k in range(2):
                for j in range(2):
                    assert t[i, k, j] == (m[i, k] if k == j else 0.0)

    def test_subject_copy_entries(self):
        m = np.array([[1.0, 2.0], [3.0, 4.0]])
        t = copy_expand(m, "subject")
        for i in range(2):
            for k in range(2):
                for j in range(2):
                    assert t[i, k, j] == (m[i, j] if i == k else 0.0)

    def test_identity_matrix_gives_spider(self):
        for d in (1, 2, 4):
            assert np.array_equal(copy_expand(np.eye(d), "object"), spider(1, 2, d))
            assert np.array_equal(copy_expand(np.eye(d), "subject"), spider(1, 2, d))

    def test_object_copy_equivalence(self):
        rng = np.random.default_rng(14)
        for d in (2, 5, 20):
            m = rng.standard_normal((d, d))
            s, o = rng.standard_normal(d), rng.standard_normal(d)
            t = copy_expand(m, "object")
            got = np.tensordot(np.tensordot(s, t, axes=(0, 0)), o, axes=(1, 0))
            want = (s @ m) * o
            assert np.allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_subject_copy_equivalence(self):
        rng = np.random.default_rng(15)
        for d in (2, 5, 20):
            m = rng.standard_normal((d, d))
            s, o = rng.standard_normal(d), rng.standard_normal(d)
            t = copy_expand(m, "subject")
            got = np.tensordot(np.tensordot(s, t, axes=(0, 0)), o, axes=(1, 0))
            want = s * (m @ o)
            assert np.allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_ones_on_middle_wire_recovers_matrix(self):
        rng = np.random.default_rng(16)
        for d in (1, 2, 3, 4):
            m = rng.standard_normal((d, d))
            for which, axes in (("object", 1), ("subject", 1)):
                t = copy_expand(m, which)
                back = np.tensordot(t, np.ones(d), axes=(axes, 0))
                assert np.allclose(back, m, rtol=1e-12, atol=1e-12)

    def test_copy_tensor_in_lexicon_matches_intonated_meaning(self):
        # a verb stored as the object-copied order-3 tensor gives the same
        # sentence meaning as the theme/rheme route with the plain matrix
        rng = np.random.default_rng(17)
        d = 4
        m = rng.standard_normal((d, d))
        subj, obj = rng.standard_normal(d), rng.standard_normal(d)
        lex = _lex(
            _uniform_dims(d),
            {
                "sue": [("n", subj)],
                "likes": [
                    ("n.r s n.l", copy_expand(m, "object")),
                    ("n.r theta", m),
                ],
                "jazz": [("n", obj), ("rho", obj)],
            },
        )
        words = [
            lex["sue"].sense(parse_type("n")),
            lex["likes"].sense(parse_type("n.r s n.l")),
            lex["jazz"].sense(parse_type("n")),
        ]
        (diagram,) = reduce([w.type for w in words], atom("s"))
        plain = compose(words, diagram).array
        intonated = meaning(parse_annotated("sue likes {R jazz}"), lex).array
        assert np.allclose(plain, intonated, rtol=1e-9, atol=1e-9)

    def test_validation(self):
        with pytest.raises(ValueError, match="square"):
            copy_expand(np.zeros((2, 3)))
        with pytest.raises(ValueError, match="which"):
            copy_expand(np.eye(2), "verb")
