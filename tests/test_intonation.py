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
    SentenceMeaning,
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
    closest_residual,
    flatten,
    parse_type,
    reduce,
)
from intonsem.tensor import ContractionError, TypedTensor, compose

from _oracles import (
    brute_force_analyses,
    brute_force_reductions,
    inverse_reduce_sequence,
    random_type_sequence,
)


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

    @pytest.mark.parametrize(
        "text, message",
        [
            ("a } {R b", "unmatched '}' at position 2"),
            ("Mary {R musicals", "unclosed '{' at position 5"),
            ("{T a {R b}", "nested '{' at position 5"),
            ("{T a} {R b {c}", "nested '{' at position 11"),
            ("Mary {X musicals}", "span at position 5 must start with 'T' or 'R'"),
            ("Mary {\u3000}", "span at position 5 must start with 'T' or 'R'"),
            ("Mary {R\t}", "empty span at position 5"),
            (" \t\n\xa0\u3000", "the sentence has no tokens"),
        ],
    )
    def test_error_message_and_position(self, text, message):
        with pytest.raises(AnnotationSyntaxError) as exc:
            parse_annotated(text)
        assert str(exc.value) == message

    @pytest.mark.parametrize("sep", [" ", "\t", "\n", "\xa0", "\u3000"])
    def test_unicode_whitespace_separates_tokens(self, sep):
        s = parse_annotated(f"Mary{sep}likes{sep}{{R{sep}musicals{sep}art}}{sep}")
        assert s.spans == (
            Span(THEME, ("Mary", "likes")),
            Span(RHEME, ("musicals", "art")),
        )

    def test_bare_run_between_spans_merges_with_adjacent_theme(self):
        s = parse_annotated("{R a} b c {T d} {R e}")
        assert s.spans == (
            Span(RHEME, ("a",)),
            Span(THEME, ("b", "c", "d")),
            Span(RHEME, ("e",)),
        )
        assert parse_annotated("{T a}b {R c}").spans[0] == Span(THEME, ("a", "b"))


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

    def test_residual_computed_once_per_failing_span(self, example_lexicon, monkeypatch):
        # split-theme fails spans 1 and 3, relational-rheme spans 1, 2 and 3
        calls = []

        def counting(alternatives):
            calls.append(alternatives)
            return closest_residual(alternatives)

        monkeypatch.setattr(intonation, "closest_residual", counting)
        s = parse_annotated("{T Mary snores} {R John} {T Mary snores}")
        with pytest.raises(InfelicitousStructure) as exc:
            type_spans(s, example_lexicon)
        assert str(exc.value).count("has no sense assignment") == 5
        assert len(calls) == 3


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

    def test_meaning_keeps_the_einsum_result(self, example_lexicon, monkeypatch):
        made, einsum = [], np.einsum

        def recording(*args):
            made.append(einsum(*args))
            return made[-1]

        monkeypatch.setattr(intonation.np, "einsum", recording)
        got = meaning(parse_annotated("Mary likes {R musicals}"), example_lexicon)
        assert got.array is made[-1] and not got.array.flags.writeable

    def test_sentence_meaning_copies_a_writable_array_only(self):
        src = np.arange(3.0)
        got = SentenceMeaning(src, PATTERN_SINGLE)
        src[0] = 9.0
        assert got.array is not src and got.array[0] == 0.0 and not got.array.flags.writeable
        src.setflags(write=False)
        assert SentenceMeaning(src, PATTERN_SINGLE).array is src

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

    def test_composes_the_three_span_values(self, example_lexicon, monkeypatch):
        calls = []

        def counting_compose(words, diagram):
            calls.append(diagram)
            return compose(words, diagram)

        monkeypatch.setattr(intonation, "compose", counting_compose)
        meaning_multiple_rhemes(parse_annotated("{R John} likes {R Mary}"), example_lexicon)
        assert len(calls) == 3

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

    def test_missing_split_reading_composes_nothing(self, example_lexicon, monkeypatch):
        # the relational reading exists, but the split-theme wrapper never
        # computes a derivation it does not return
        s = parse_annotated("{T John} {R likes} {T Mary}")
        calls = []

        def counting_compose(words, diagram):
            calls.append(diagram)
            return compose(words, diagram)

        monkeypatch.setattr(intonation, "compose", counting_compose)
        with pytest.raises(InfelicitousStructure) as exc:
            meaning_split_theme(s, example_lexicon)
        assert str(exc.value) == f"no derivation of {s} realizes the split-theme pattern"
        assert calls == []

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

    def test_unused_relational_reading_is_never_typed(self, monkeypatch):
        rng = np.random.default_rng(13)
        lex = _lex(
            _uniform_dims(3),
            {
                "t1": [("theta", rng.standard_normal(3))],
                "t2": [("theta", rng.standard_normal(3))],
                "r": [("rho", rng.standard_normal(3)), ("rho rho", rng.standard_normal((3, 3)))],
            },
        )
        s = parse_annotated("{T t1} {R r} {T t2}")
        targets = []

        def recording(alternatives, target):
            targets.append(target)
            return chart_reductions(alternatives, target)

        monkeypatch.setattr(intonation, "chart_reductions", recording)
        got = meaning_split_theme(s, lex)
        assert parse_type("rho rho") not in targets
        want = analyses(s, lex)[0].meaning
        assert parse_type("rho rho") in targets
        assert np.array_equal(got.array, want.array)


class TestContractionLimit:
    def test_part_past_numpy_axis_limit_raises_contraction_error(self):
        # A and B merge over one link into a 79-axis part, past numpy's
        # axis limit (64 in numpy 2, 32 in numpy 1)
        lex = _lex(
            _uniform_dims(1),
            {
                "A": [("theta" + " n.l" * 40, np.full((1,) * 41, 2.0))],
                "B": [(" ".join(["n"] * 40), np.full((1,) * 40, 3.0))],
                "r": [("rho", np.ones(1))],
            },
        )
        with pytest.raises(ContractionError, match=r"cannot contract link \(2, 81\)"):
            analyses(parse_annotated("{T A B} {R r}"), lex)


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

    def test_meaning_composes_only_the_first_derivation(self, monkeypatch):
        # the lexicon of test_each_span_option_composed_once: of its 4
        # derivations, meaning() uses the first, one option per span
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
        s = parse_annotated("{T she sang} {R run fast}")
        calls = []

        def counting_compose(words, diagram):
            calls.append(diagram)
            return compose(words, diagram)

        monkeypatch.setattr(intonation, "compose", counting_compose)
        got = meaning(s, lex)
        assert len(calls) == 2
        assert np.array_equal(got.array, analyses(s, lex)[0].meaning.array)

    def test_deterministic_order(self, example_lexicon):
        s = parse_annotated("Mary likes {R musicals}")
        a = [an.meaning.array for an in analyses(s, example_lexicon)]
        b = [an.meaning.array for an in analyses(s, example_lexicon)]
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert np.array_equal(x, y)


# Role sequences of the whole-pipeline oracle test; the last two have no reading.
_ROLE_SEQUENCES = [
    (THEME, RHEME), (RHEME, THEME), (RHEME, THEME, RHEME), (RHEME, THEME, RHEME),
    (THEME, RHEME, THEME), (THEME, RHEME, THEME), (THEME,), (RHEME,),
]


def _random_annotated(rng, distractors):
    """A random sentence over a fresh lexicon of d <= 3.  Each span is
    grown to reduce to its role's target (the middle span of a
    three-span sentence sometimes to the matrix type), or now and then
    drawn at random.  Its first word gets up to two more senses, the
    others up to one, each one of the random ``distractors``, the unit
    type, or (first word only) its type behind one more target factor,
    which gives theme-rheme-theme both readings."""
    d = int(rng.integers(1, 4))
    roles = _ROLE_SEQUENCES[int(rng.integers(len(_ROLE_SEQUENCES)))]
    senses, spans = {}, []
    for k, role in enumerate(roles):
        base = SimpleType("theta" if role == THEME else "rho")
        wide = len(roles) == 3 and k == 1 and (role == THEME or rng.random() < 0.4)
        if rng.random() < 0.05:
            core = random_type_sequence(rng, 4)
        else:
            core = inverse_reduce_sequence(rng, [base] * (1 + wide), 5)
        tokens = []
        for w, t in enumerate(core):
            options = [t]
            for _ in range(int(rng.integers(0, 3 if w == 0 else 2))):
                pick = rng.random()
                if pick < 0.25:
                    options.append(PregroupType(()))
                elif pick < 0.6 and w == 0:
                    options.append(PregroupType((base,)) @ t)
                else:
                    options.append(distractors[int(rng.integers(len(distractors)))])
            word = f"w{len(senses)}"
            senses[word] = list(dict.fromkeys(options))
            tokens.append(word)
        spans.append(Span(role, tuple(tokens)))
    lex = Lexicon(_uniform_dims(d), {
        w: LexiconEntry(w, tuple(TypedTensor(t, rng.standard_normal((d,) * len(t))) for t in ts))
        for w, ts in senses.items()
    })
    return AnnotatedSentence(tuple(spans)), lex


def _derivation_keys(typings_list):
    return [
        ([[str(s.type) for s in t.senses] for t in typings],
         [t.diagram.to_json() for t in typings])
        for typings in typings_list
    ]


def _close(got, want):
    scale = max(float(np.max(np.abs(want))), 1.0)
    return got.shape == want.shape and float(np.max(np.abs(got - want))) <= 1e-12 * scale


class TestPipelineOracle:
    def test_random_sentences_match_brute_force_analyses(self):
        rng = np.random.default_rng(20261018)
        patterns = [PATTERN_SINGLE, PATTERN_DOUBLE, PATTERN_SPLIT, PATTERN_RELATIONAL]
        seen = dict.fromkeys([*patterns, None], 0)  # None: infelicitous
        distractors = [t for _ in range(40) for t in random_type_sequence(rng, 3)]
        for _ in range(2000):
            sentence, lex = _random_annotated(rng, distractors)
            want = brute_force_analyses(sentence, lex)
            if not want:
                seen[None] += 1
                for f in (analyses, type_spans, meaning):
                    with pytest.raises(InfelicitousStructure):
                        f(sentence, lex)
                continue
            for pattern in {w["pattern"] for w in want}:
                seen[pattern] += 1
            got = analyses(sentence, lex)
            keys = [(w["types"], w["diagrams"]) for w in want]
            assert [a.pattern for a in got] == [w["pattern"] for w in want]
            assert _derivation_keys(a.typings for a in got) == keys
            assert _derivation_keys(type_spans(sentence, lex)) == keys
            assert all(_close(a.meaning.array, w["meaning"]) for a, w in zip(got, want))
            first = meaning(sentence, lex)
            assert first.pattern == want[0]["pattern"] and _close(first.array, want[0]["meaning"])
        assert min(seen.values()) >= 200, seen


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
