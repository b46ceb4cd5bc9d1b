import numpy as np
import pytest

from intonsem.lexicon import (
    Lexicon,
    LexiconEntry,
    LexiconError,
    MissingSenseError,
    cosine,
    derive_intonation_senses,
    load_lexicon,
)
from intonsem.pregroup import parse_type
from intonsem.tensor import TypedTensor

DIMS = {"n": 4, "s": 4, "theta": 4, "rho": 4}


def _entry(word, *senses):
    return LexiconEntry(word, tuple(TypedTensor(parse_type(t), a) for t, a in senses))


class TestExampleLexicon:
    def test_loads(self, example_lexicon):
        assert example_lexicon.spaces == DIMS
        for word in ("Mary", "John", "musicals", "book", "art", "likes", "wrote"):
            assert word in example_lexicon

    def test_sidecar_vector(self, example_lexicon):
        art = example_lexicon["art"].sense(parse_type("n"))
        assert np.array_equal(art.array, np.array([0.0, 0.0, 2.0, 1.0]))

    def test_shared_dim(self, example_lexicon):
        assert example_lexicon.shared_dim() == 4

    def test_lookup_missing_word(self, example_lexicon):
        with pytest.raises(LexiconError, match="not in the lexicon"):
            example_lexicon["zebra"]

    def test_words_sorted(self, example_lexicon):
        assert example_lexicon.words() == sorted(example_lexicon.words())


class TestLoadErrors:
    def test_round_trip_minimal(self, write_lexicon):
        p = write_lexicon(
            {
                "dims": {"n": 2, "s": 1, "theta": 2, "rho": 2},
                "entries": [
                    {"word": "ann", "type": "n", "shape": [2], "data": [1, 0]},
                    {
                        "word": "runs",
                        "type": "n.r s",
                        "shape": [2, 1],
                        "data": [1, 0],
                    },
                ],
            }
        )
        lex = load_lexicon(p)
        assert len(lex) == 2
        assert np.array_equal(
            lex["ann"].sense(parse_type("n")).array, np.array([1.0, 0.0])
        )

    def test_shape_mismatch_names_word_and_sense(self, write_lexicon):
        p = write_lexicon(
            {
                "dims": {"n": 2, "s": 1, "theta": 2, "rho": 2},
                "entries": [
                    {"word": "ann", "type": "n", "shape": [3], "data": [1, 0, 0]}
                ],
            }
        )
        with pytest.raises(LexiconError) as exc:
            load_lexicon(p)
        msg = str(exc.value)
        assert "'ann'" in msg and "expected [2]" in msg and "got [3]" in msg

    def test_duplicate_word_type_pair(self, write_lexicon):
        p = write_lexicon(
            {
                "dims": {"n": 2, "s": 1, "theta": 2, "rho": 2},
                "entries": [
                    {"word": "ann", "type": "n", "shape": [2], "data": [1, 0]},
                    {"word": "ann", "type": "n", "shape": [2], "data": [0, 1]},
                ],
            }
        )
        with pytest.raises(LexiconError, match="duplicate sense"):
            load_lexicon(p)

    def test_json_error_carries_line_number(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text('{\n  "dims": {\n')
        with pytest.raises(LexiconError, match="line 3"):
            load_lexicon(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(LexiconError, match="cannot read"):
            load_lexicon(tmp_path / "nope.json")

    def test_missing_required_base(self, write_lexicon):
        p = write_lexicon({"dims": {"n": 2, "s": 1}, "entries": []})
        with pytest.raises(LexiconError, match="theta"):
            load_lexicon(p)

    def test_unknown_base_in_type(self, write_lexicon):
        p = write_lexicon(
            {
                "dims": {"n": 2, "s": 1, "theta": 2, "rho": 2},
                "entries": [{"word": "x", "type": "q", "shape": [2], "data": [1, 0]}],
            }
        )
        with pytest.raises(LexiconError, match="entry 1"):
            load_lexicon(p)

    def test_bad_type_string(self, write_lexicon):
        p = write_lexicon(
            {
                "dims": {"n": 2, "s": 1, "theta": 2, "rho": 2},
                "entries": [{"word": "x", "type": "n$", "shape": [2], "data": [1, 0]}],
            }
        )
        with pytest.raises(LexiconError, match="bad type"):
            load_lexicon(p)

    def test_data_length_mismatch(self, write_lexicon):
        p = write_lexicon(
            {
                "dims": {"n": 2, "s": 1, "theta": 2, "rho": 2},
                "entries": [{"word": "x", "type": "n", "shape": [2], "data": [1]}],
            }
        )
        with pytest.raises(LexiconError, match="data length 1"):
            load_lexicon(p)

    @pytest.mark.parametrize("data", [["x", 0], [[1], [0]], [True, 0], "10"])
    def test_non_numeric_inline_data(self, write_lexicon, data):
        p = write_lexicon(
            {
                "dims": {"n": 2, "s": 1, "theta": 2, "rho": 2},
                "entries": [{"word": "x", "type": "n", "shape": [2], "data": data}],
            }
        )
        with pytest.raises(LexiconError, match="flat list of numbers"):
            load_lexicon(p)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_inline_data(self, write_lexicon, bad):
        p = write_lexicon(
            {
                "dims": {"n": 2, "s": 1, "theta": 2, "rho": 2},
                "entries": [{"word": "x", "type": "n", "shape": [2], "data": [bad, 0]}],
            }
        )
        with pytest.raises(LexiconError, match="NaN or infinity"):
            load_lexicon(p)

    def test_inline_data_beyond_float_range(self, tmp_path):
        p = tmp_path / "lex.json"
        p.write_text(
            '{"dims": {"n": 2, "s": 1, "theta": 2, "rho": 2}, "entries": '
            '[{"word": "x", "type": "n", "shape": [2], "data": [1%s, 0]}]}' % ("0" * 400)
        )
        with pytest.raises(LexiconError, match="out of float range"):
            load_lexicon(p)

    def test_non_finite_sidecar_value(self, tmp_path, write_lexicon):
        (tmp_path / "v.tsv").write_text("x\t1 nan\n")
        p = write_lexicon(
            {
                "dims": {"n": 2, "s": 1, "theta": 2, "rho": 2},
                "entries": [{"word": "x", "type": "n", "data_ref": "v.tsv"}],
            }
        )
        with pytest.raises(LexiconError, match="NaN or infinity"):
            load_lexicon(p)

    @pytest.mark.parametrize("where", ["dims", "shape"])
    def test_bool_is_not_a_dimension(self, write_lexicon, where):
        dims = {"n": 2, "s": 1, "theta": 2, "rho": 2}
        shape = [2]
        if where == "dims":
            dims["s"] = True
        else:
            shape = [True, 2]
        p = write_lexicon(
            {
                "dims": dims,
                "entries": [{"word": "x", "type": "n", "shape": shape, "data": [1, 0]}],
            }
        )
        with pytest.raises(LexiconError, match="positive integers|bad shape"):
            load_lexicon(p)

    @pytest.mark.parametrize(
        "entries",
        [
            5,
            {"word": "x", "type": "n", "shape": [2], "data": [1, 0]},
            [{"word": ["x"], "type": "n", "shape": [2], "data": [1, 0]}],
            [{"word": 7, "type": "n", "shape": [2], "data": [1, 0]}],
            [{"word": "x", "type": 7, "shape": [2], "data": [1, 0]}],
            [{"word": "x", "type": ["n"], "shape": [2], "data": [1, 0]}],
            [{"word": "x", "type": "n", "data_ref": 3}],
            [{"word": "x", "type": "n", "data_ref": []}],
        ],
        ids=["entries-int", "entries-object", "word-list", "word-int", "type-int",
             "type-list", "data_ref-int", "data_ref-list"],
    )
    def test_malformed_entry_structure(self, write_lexicon, entries):
        p = write_lexicon({"dims": {"n": 2, "s": 1, "theta": 2, "rho": 2}, "entries": entries})
        with pytest.raises(LexiconError):
            load_lexicon(p)

    def test_data_ref_requires_vector_type(self, tmp_path, write_lexicon):
        (tmp_path / "v.tsv").write_text("x\t1 0 1 0\n")
        p = write_lexicon(
            {
                "dims": {"n": 2, "s": 1, "theta": 2, "rho": 2},
                "entries": [{"word": "x", "type": "n.r s", "data_ref": "v.tsv"}],
            }
        )
        with pytest.raises(LexiconError, match="data_ref"):
            load_lexicon(p)

    def test_data_ref_missing_row(self, tmp_path, write_lexicon):
        (tmp_path / "v.tsv").write_text("y\t1 0\n")
        p = write_lexicon(
            {
                "dims": {"n": 2, "s": 1, "theta": 2, "rho": 2},
                "entries": [{"word": "x", "type": "n", "data_ref": "v.tsv"}],
            }
        )
        with pytest.raises(LexiconError, match="no row for 'x'"):
            load_lexicon(p)

    def test_sidecar_bad_number(self, tmp_path, write_lexicon):
        (tmp_path / "v.tsv").write_text("x\t1 zebra\n")
        p = write_lexicon(
            {
                "dims": {"n": 2, "s": 1, "theta": 2, "rho": 2},
                "entries": [{"word": "x", "type": "n", "data_ref": "v.tsv"}],
            }
        )
        with pytest.raises(LexiconError, match="non-numeric"):
            load_lexicon(p)

    def test_sidecar_resolved_relative_to_lexicon(self, tmp_path):
        sub = tmp_path / "sub"
        sub.mkdir()
        (sub / "v.tsv").write_text("x\t1 0\n")
        doc = (
            '{"dims": {"n": 2, "s": 1, "theta": 2, "rho": 2}, '
            '"entries": [{"word": "x", "type": "n", "data_ref": "v.tsv"}]}'
        )
        p = sub / "lex.json"
        p.write_text(doc)
        lex = load_lexicon(p)
        assert np.array_equal(lex["x"].sense(parse_type("n")).array, [1.0, 0.0])

    def test_one_sidecar_under_two_spellings(self, tmp_path, write_lexicon):
        (tmp_path / "v.tsv").write_text("x\t1 0\ny\t0 1\n")
        p = write_lexicon(
            {
                "dims": {"n": 2, "s": 1, "theta": 2, "rho": 2},
                "entries": [
                    {"word": "x", "type": "n", "data_ref": "v.tsv"},
                    {"word": "y", "type": "n", "data_ref": "./v.tsv"},
                    {"word": "x", "type": "rho", "data_ref": "./v.tsv"},
                ],
            }
        )
        lex = load_lexicon(p)
        assert np.array_equal(lex["x"].sense(parse_type("n")).array, [1.0, 0.0])
        assert np.array_equal(lex["y"].sense(parse_type("n")).array, [0.0, 1.0])
        assert np.array_equal(lex["x"].sense(parse_type("rho")).array, [1.0, 0.0])


class TestEntryAndLexiconInvariants:
    def test_duplicate_sense_in_entry(self):
        with pytest.raises(LexiconError, match="duplicate sense"):
            _entry("ann", ("n", np.zeros(4)), ("n", np.ones(4)))

    def test_sense_lookup(self):
        e = _entry("ann", ("n", np.arange(4)))
        assert e.sense(parse_type("n")) is not None
        assert e.sense(parse_type("rho")) is None
        assert e.types() == (parse_type("n"),)

    def test_lexicon_validates_shapes(self):
        e = _entry("ann", ("n", np.zeros(3)))
        with pytest.raises(LexiconError, match="shape mismatch"):
            Lexicon(DIMS, {"ann": e})

    def test_lexicon_requires_intonation_bases(self):
        with pytest.raises(LexiconError, match="rho"):
            Lexicon({"n": 2, "s": 1, "theta": 2}, {})

    def test_mixed_dims_shared_dim_errors(self):
        lex = Lexicon({"n": 2, "s": 1, "theta": 2, "rho": 2}, {})
        with pytest.raises(LexiconError, match="shared space"):
            lex.shared_dim()


class TestDeriveIntonationSenses:
    def test_noun_gains_rheme_vector(self):
        e = derive_intonation_senses(_entry("ann", ("n", np.array([1.0, 2.0]))))
        rho = e.sense(parse_type("rho"))
        assert np.array_equal(rho.array, np.array([1.0, 2.0]))

    def test_idempotent(self):
        e = derive_intonation_senses(_entry("ann", ("n", np.arange(3.0))))
        again = derive_intonation_senses(e)
        assert again.types() == e.types()
        assert again is e

    def test_verb_matrix_from_explicit_intonated_sense(self):
        m = np.array([[1.0, 2.0], [3.0, 4.0]])
        e = derive_intonation_senses(
            _entry("likes", ("n.r theta", m)), mode="theme-right"
        )
        got = e.sense(parse_type("theta n.l"))
        assert np.array_equal(got.array, m)

    def test_verb_matrix_from_one_dimensional_sentence_axis(self):
        m = np.array([[0.0, 1.0], [1.0, 0.0]])
        e = derive_intonation_senses(_entry("likes", ("n.r s n.l", m[:, None, :])))
        got = e.sense(parse_type("n.r theta"))
        assert np.array_equal(got.array, m)

    def test_wide_sentence_axis_is_not_squeezed(self):
        arr = np.zeros((2, 3, 2))
        with pytest.raises(MissingSenseError):
            derive_intonation_senses(_entry("likes", ("n.r s n.l", arr)))

    def test_missing_sense(self):
        e = _entry("a", ("n n.l", np.eye(2)))
        with pytest.raises(MissingSenseError, match="'a'"):
            derive_intonation_senses(e)

    def test_unknown_mode(self):
        with pytest.raises(ValueError, match="mode"):
            derive_intonation_senses(_entry("ann", ("n", np.ones(2))), mode="sideways")

    def test_existing_senses_kept(self):
        v = np.array([5.0, 6.0])
        w = np.array([1.0, 1.0])
        e = derive_intonation_senses(_entry("ann", ("n", v), ("rho", w)))
        assert np.array_equal(e.sense(parse_type("rho")).array, w)

    def test_lexicon_wide_derivation_skips_inapplicable(self):
        dims = {"n": 2, "s": 1, "theta": 2, "rho": 2}
        lex = Lexicon(
            dims,
            {
                "ann": _entry("ann", ("n", np.array([1.0, 0.0]))),
                "a": _entry("a", ("n n.l", np.eye(2))),
            },
        )
        out = lex.with_intonation_senses()
        assert out["ann"].sense(parse_type("rho")) is not None
        assert out["a"].types() == (parse_type("n n.l"),)

    def test_lexicon_wide_derivation_validates_shapes(self):
        # an intonated matrix must land in n x theta; unequal dims fail
        dims = {"n": 2, "s": 1, "theta": 3, "rho": 2}
        lex = Lexicon(
            dims,
            {"likes": _entry("likes", ("n.r s n.l", np.ones((2, 1, 2))))},
        )
        with pytest.raises(LexiconError, match="shape mismatch"):
            lex.with_intonation_senses()


class TestCosine:
    def test_identical_is_one(self):
        assert cosine([1.0, 2.0], [1.0, 2.0]) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_is_zero(self):
        assert cosine([1.0, 0.0], [0.0, 3.0]) == 0.0

    def test_opposite_is_minus_one(self):
        assert cosine([1.0, 1.0], [-2.0, -2.0]) == pytest.approx(-1.0, abs=1e-12)

    def test_scale_invariance(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            u = rng.standard_normal(6)
            v = rng.standard_normal(6)
            a = cosine(u, v)
            b = cosine(3.7 * u, 0.25 * v)
            assert abs(a - b) <= 1e-12

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(18)
        u = rng.standard_normal(8)
        v = rng.standard_normal(8)
        want = float(u @ v / (np.linalg.norm(u) * np.linalg.norm(v)))
        assert cosine(u, v) == pytest.approx(want, abs=1e-15)

    @pytest.mark.parametrize("power", [-700, 500, 520])
    def test_invariant_under_power_of_two_scaling(self, power):
        # the squares of 2**-700 underflow and those of 2**520 overflow
        rng = np.random.default_rng(19)
        for _ in range(50):
            u, v = rng.standard_normal(6), rng.standard_normal(6)
            assert cosine(u * 2.0**power, v * 2.0**power) == cosine(u, v)

    def test_tiny_and_huge_vectors(self):
        assert cosine([1e-200, 0.0], [1e-200, 0.0]) == 1.0
        assert cosine([1e-160, 0.0], [1e-160, 1e-160]) == pytest.approx(2**-0.5, rel=1e-15)
        assert cosine([1e160, 0.0], [1e160, 1e160]) == pytest.approx(2**-0.5, rel=1e-15)

    def test_clipped_into_range(self):
        u = np.full(50, 0.1)
        assert cosine(u, u) <= 1.0

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError, match="zero vector"):
            cosine([0.0, 0.0], [1.0, 2.0])

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            cosine([1.0], [1.0, 2.0])
