import os
from pathlib import Path

import numpy as np
import pytest

from intonsem import lexicon as lexicon_module
from intonsem.lexicon import (
    Lexicon,
    LexiconEntry,
    LexiconError,
    cosine,
    load_lexicon,
)
from intonsem.pregroup import parse_type
from intonsem.tensor import TypedTensor, tensor_from_json

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

    def test_sidecar_skips_blank_lines(self, tmp_path, write_lexicon):
        (tmp_path / "v.tsv").write_text("\nx\t1 0\n   \n\t\ny\t0 1\n\n")
        p = write_lexicon(
            {
                "dims": {"n": 2, "s": 1, "theta": 2, "rho": 2},
                "entries": [
                    {"word": "x", "type": "n", "data_ref": "v.tsv"},
                    {"word": "y", "type": "n", "data_ref": "v.tsv"},
                ],
            }
        )
        lex = load_lexicon(p)
        assert np.array_equal(lex["x"].sense(parse_type("n")).array, [1.0, 0.0])
        assert np.array_equal(lex["y"].sense(parse_type("n")).array, [0.0, 1.0])

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

    def test_each_sidecar_file_read_once_whatever_its_spelling(
        self, tmp_path, write_lexicon, monkeypatch
    ):
        (tmp_path / "sub").mkdir()
        (tmp_path / "v.tsv").write_text("x\t1 0\ny\t0 1\n")
        reads = []

        def counting(path):
            reads.append(path)
            return load_sidecar(path)

        load_sidecar = lexicon_module._load_sidecar
        monkeypatch.setattr(lexicon_module, "_load_sidecar", counting)
        p = write_lexicon(
            {
                "dims": {"n": 2, "s": 1, "theta": 2, "rho": 2},
                "entries": [
                    {"word": "x", "type": "n", "data_ref": "v.tsv"},
                    {"word": "y", "type": "n", "data_ref": "./v.tsv"},
                    {"word": "x", "type": "rho", "data_ref": "sub/../v.tsv"},
                ],
            }
        )
        lex = load_lexicon(p)
        assert len(reads) == 1
        assert np.array_equal(lex["y"].sense(parse_type("n")).array, [0.0, 1.0])
        assert np.array_equal(lex["x"].sense(parse_type("rho")).array, [1.0, 0.0])

    def test_sidecars_with_inode_zero_are_kept_apart(self, tmp_path, write_lexicon, monkeypatch):
        # some filesystems report st_ino 0, which then names no file
        (tmp_path / "a.tsv").write_text("x\t1 0\n")
        (tmp_path / "b.tsv").write_text("x\t0 1\n")
        stat = Path.stat

        def inode_zero(self, **kw):
            st = stat(self, **kw)
            return os.stat_result((st.st_mode, 0, *tuple(st)[2:]))

        monkeypatch.setattr(Path, "stat", inode_zero)
        p = write_lexicon(
            {
                "dims": {"n": 2, "s": 1, "theta": 2, "rho": 2},
                "entries": [
                    {"word": "x", "type": "n", "data_ref": "a.tsv"},
                    {"word": "x", "type": "rho", "data_ref": "b.tsv"},
                ],
            }
        )
        lex = load_lexicon(p)
        assert np.array_equal(lex["x"].sense(parse_type("n")).array, [1.0, 0.0])
        assert np.array_equal(lex["x"].sense(parse_type("rho")).array, [0.0, 1.0])

    @pytest.mark.parametrize(
        "sidecar, message",
        [
            (None, "cannot read vector sidecar {0}: [Errno 2] No such file or directory: '{0}'"),
            ("x\t1 0\nx\t0 1\n", "{0}:2: duplicate row for 'x'"),
        ],
        ids=["missing-file", "duplicate-row"],
    )
    def test_sidecar_errors_name_the_resolved_path(
        self, tmp_path, write_lexicon, sidecar, message
    ):
        (tmp_path / "sub").mkdir()
        if sidecar is not None:
            (tmp_path / "v.tsv").write_text(sidecar)
        p = write_lexicon(
            {
                "dims": {"n": 2, "s": 1, "theta": 2, "rho": 2},
                "entries": [{"word": "x", "type": "n", "data_ref": "sub/../v.tsv"}],
            }
        )
        with pytest.raises(LexiconError) as exc:
            load_lexicon(p)
        resolved = (tmp_path / "v.tsv").resolve()
        assert str(exc.value) == f"{p}: entry 1 ('x'): " + message.format(resolved)

    # Each entry's checks run in order (type syntax, data_ref, inline data,
    # shape), and the first entry that fails any of them names the error.
    def test_bad_data_wins_over_later_bad_type(self, write_lexicon):
        p = write_lexicon(
            {
                "dims": {"n": 2, "s": 1, "theta": 2, "rho": 2},
                "entries": [
                    {"word": "a", "type": "n", "shape": [2], "data": [1, 0]},
                    {"word": "b", "type": "n", "shape": [2], "data": [float("nan"), 0]},
                    {"word": "c", "type": "n$", "shape": [2], "data": [1, 0]},
                ],
            }
        )
        with pytest.raises(LexiconError) as exc:
            load_lexicon(p)
        assert str(exc.value) == f"{p}: entry 2 ('b'): data holds NaN or infinity"

    def test_overflow_before_a_valid_entry(self, write_lexicon):
        p = write_lexicon(
            {
                "dims": {"n": 2, "s": 1, "theta": 2, "rho": 2},
                "entries": [
                    {"word": "a", "type": "n", "shape": [2], "data": [10**400, 0]},
                    {"word": "b", "type": "n", "shape": [2], "data": [1, 0]},
                ],
            }
        )
        with pytest.raises(LexiconError) as exc:
            load_lexicon(p)
        assert str(exc.value) == f"{p}: entry 1 ('a'): data value out of float range"

    def test_reused_type_string_with_wrong_shape(self, write_lexicon):
        p = write_lexicon(
            {
                "dims": {"n": 2, "s": 1, "theta": 2, "rho": 2},
                "entries": [
                    {"word": "a", "type": "n.r s", "shape": [2, 1], "data": [1, 0]},
                    {"word": "b", "type": "n.r s", "shape": [2, 1], "data": [0, 1]},
                    {"word": "c", "type": "n.r s", "shape": [2, 2], "data": [0, 1, 1, 0]},
                ],
            }
        )
        with pytest.raises(LexiconError) as exc:
            load_lexicon(p)
        assert str(exc.value) == (
            f"{p}: entry 3 ('c'): shape mismatch for word 'c', sense 'n.r s': "
            "expected [2, 1], got [2, 2]"
        )

    def test_duplicate_sense_under_two_spellings(self, write_lexicon):
        p = write_lexicon(
            {
                "dims": {"n": 2, "s": 1, "theta": 2, "rho": 2},
                "entries": [
                    {"word": "a", "type": "n n.l", "shape": [2, 2], "data": [1, 0, 0, 1]},
                    {"word": "a", "type": "n  n.l", "shape": [2, 2], "data": [0, 1, 1, 0]},
                ],
            }
        )
        with pytest.raises(LexiconError) as exc:
            load_lexicon(p)
        assert str(exc.value) == f"{p}: duplicate sense for word 'a' under type 'n n.l'"

    @pytest.mark.parametrize(
        "tensor",
        [
            {"shape": [0], "data": []},
            {"shape": [True, 2], "data": [1, 0]},
            {"shape": "2", "data": [1, 0]},
            {"shape": [2], "data": ["x", 0]},
            {"shape": [2], "data": [[1], [0]]},
            {"shape": [2], "data": [True, 0]},
            {"shape": [2], "data": [1]},
            {"shape": [2], "data": [1, 0, 0]},
            {"shape": [2], "data": [float("nan"), 0]},
            {"shape": [2], "data": [0, float("inf")]},
            {"shape": [2], "data": [-float("inf"), 0]},
            {"shape": [2], "data": [1, -(10**400)]},
        ],
        ids=["shape-zero", "shape-bool", "shape-string", "data-string", "data-nested",
             "data-true", "too-short", "too-long", "nan", "inf", "minus-inf", "past-float"],
    )
    def test_inline_checks_are_those_of_tensor_from_json(self, write_lexicon, tensor):
        with pytest.raises(ValueError) as want:
            tensor_from_json(tensor)
        p = write_lexicon(
            {
                "dims": {"n": 2, "s": 1, "theta": 2, "rho": 2},
                "entries": [
                    {"word": "a", "type": "n", "shape": [2], "data": [1, 0]},
                    {"word": "x", "type": "n", **tensor},
                ],
            }
        )
        with pytest.raises(LexiconError) as got:
            load_lexicon(p)
        assert str(got.value) == f"{p}: entry 2 ('x'): {want.value}"


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

    def test_shape_checked_for_each_word_sharing_a_type(self):
        entries = {"ann": _entry("ann", ("n", np.zeros(4))), "bob": _entry("bob", ("n", np.zeros(3)))}
        with pytest.raises(LexiconError) as exc:
            Lexicon(DIMS, entries)
        assert str(exc.value) == "shape mismatch for word 'bob', sense 'n': expected [4], got [3]"

    def test_lexicon_reports_unknown_base(self):
        e = _entry("x", ("q", np.zeros(2)))
        with pytest.raises(LexiconError, match="^no space assigned to base 'q'$"):
            Lexicon(DIMS, {"x": e})

    def test_entry_filed_under_another_word(self):
        e = _entry("b", ("n", np.zeros(4)))
        with pytest.raises(LexiconError, match="^entry for 'b' filed under 'a'$"):
            Lexicon(DIMS, {"a": e})

    def test_iteration_yields_words_in_insertion_order(self):
        entries = {w: _entry(w, ("n", np.zeros(4))) for w in ("cat", "ann", "bob")}
        assert list(Lexicon(DIMS, entries)) == ["cat", "ann", "bob"]

    def test_a_lexicon_is_a_dict_of_its_entries(self):
        entries = {w: _entry(w, ("n", np.zeros(4))) for w in ("cat", "ann", "bob")}
        lex = Lexicon(DIMS, entries)
        assert "ann" in lex and "zebra" not in lex and len(lex) == 3
        assert list(lex) == list(lex.keys()) == ["cat", "ann", "bob"]
        assert [e.word for e in lex.values()] == ["cat", "ann", "bob"]
        assert lex == entries and lex["bob"] is entries["bob"]

    def test_unknown_word_raises_lexicon_error(self):
        lex = Lexicon(DIMS, {"ann": _entry("ann", ("n", np.zeros(4)))})
        with pytest.raises(LexiconError, match="^word 'zebra' is not in the lexicon$"):
            lex["zebra"]
        assert lex.get("zebra") is None

    def test_loaded_words_follow_the_file(self, write_lexicon):
        words = ["bob", "ann", "cat", "ann"]
        p = write_lexicon({"dims": {"n": 1, "s": 1, "theta": 1, "rho": 1}, "entries": [
            {"word": w, "type": t, "shape": [1], "data": [1]}
            for w, t in zip(words, ["n", "n", "n", "rho"])
        ]})
        lex = load_lexicon(p)
        assert list(lex) == ["bob", "ann", "cat"] and len(lex) == 3
        assert lex["ann"].types() == (parse_type("n"), parse_type("rho"))

    def test_lexicon_requires_intonation_bases(self):
        with pytest.raises(LexiconError, match="rho"):
            Lexicon({"n": 2, "s": 1, "theta": 2}, {})

    def test_mixed_dims_shared_dim_errors(self):
        lex = Lexicon({"n": 2, "s": 1, "theta": 2, "rho": 2}, {})
        with pytest.raises(LexiconError, match="shared space"):
            lex.shared_dim()


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
