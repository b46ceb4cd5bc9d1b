import json

import numpy as np
import pytest

from intonsem.cli import main
from intonsem.intonation import meaning, parse_annotated
from intonsem.tensor import tensor_from_json


@pytest.fixture()
def run(capsys):
    def _run(*argv):
        code = main(list(argv))
        cap = capsys.readouterr()
        return code, cap.out, cap.err

    return _run


@pytest.fixture(scope="module")
def lexicon_path(tmp_path_factory):
    # fixtures ship with the package
    from conftest import DATA_DIR

    return str(DATA_DIR / "example_lexicon.json")


@pytest.fixture(scope="module")
def universe_path():
    from conftest import DATA_DIR

    return str(DATA_DIR / "universe_likes.json")


class TestReduce:
    def test_text_output(self, run):
        code, out, err = run("reduce", "n n.r s n.l n")
        assert code == 0
        assert "factors: n n.r s n.l n" in out
        assert "links (1,2) (4,5)" in out
        assert "survivors 3" in out

    def test_json_output(self, run):
        code, out, _ = run("reduce", "n n.r s n.l n", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["grammatical"] is True
        assert doc["target"] == "s"
        assert doc["reductions"] == [{"links": [[1, 2], [4, 5]], "survivors": [3]}]

    def test_custom_target(self, run):
        code, out, _ = run("reduce", "n", "--target", "n", "--format", "json")
        assert code == 0
        assert json.loads(out)["reductions"] == [{"links": [], "survivors": [1]}]

    def test_no_reduction_exits_one(self, run):
        code, out, _ = run("reduce", "n n")
        assert code == 1
        assert "no reduction" in out

    def test_type_syntax_error_exits_two(self, run):
        code, _, err = run("reduce", "n$")
        assert code == 2
        assert "error:" in err

    def test_lexicon_mode(self, run, lexicon_path):
        code, out, _ = run(
            "reduce", "Mary likes musicals", "--lexicon", lexicon_path,
            "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["grammatical"] is True
        assert doc["reductions"] == [
            {
                "word_types": ["n", "n.r s n.l", "n"],
                "links": [[1, 2], [4, 5]],
                "survivors": [3],
            }
        ]

    def test_lexicon_mode_unknown_word(self, run, lexicon_path):
        code, _, err = run("reduce", "Mary likes zebras", "--lexicon", lexicon_path)
        assert code == 2
        assert "zebras" in err

    def test_lexicon_mode_ungrammatical(self, run, lexicon_path):
        code, out, _ = run("reduce", "likes likes", "--lexicon", lexicon_path)
        assert code == 1

    def test_dot_diagram(self, run):
        code, out, _ = run("reduce", "n n.r s n.l n", "--emit-diagram", "dot")
        assert code == 0
        assert out.startswith("graph reduction {")
        assert "f1 -- f2 [constraint=false];" in out
        assert "f4 -- f5 [constraint=false];" in out
        assert 'f3 [shape=ellipse, label="s"];' in out
        assert out.rstrip().endswith("}")

    def test_dot_without_reduction(self, run):
        code, _, err = run("reduce", "n n", "--emit-diagram", "dot")
        assert code == 1
        assert "no reduction" in err

    def test_empty_input(self, run):
        code, _, err = run("reduce", "   ")
        assert code == 2
        assert "empty input" in err


class TestMeaning:
    def test_json_fixture(self, run, lexicon_path, example_lexicon):
        code, out, _ = run(
            "meaning", "Mary likes {R musicals}", "--lexicon", lexicon_path,
            "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["sentence"] == "{T Mary likes} {R musicals}"
        assert len(doc["analyses"]) == 1
        a = doc["analyses"][0]
        assert a["pattern"] == "single-rheme"
        assert a["meaning"] == {"shape": [4], "data": [0, 3, 6, 6]}
        assert [s["role"] for s in a["spans"]] == ["theme", "rheme"]
        assert a["spans"][0]["type"] == "theta"
        assert a["spans"][0]["reduction"] == {"links": [[1, 2]], "survivors": [3]}

    def test_json_round_trips_into_library_value(self, run, lexicon_path, example_lexicon):
        code, out, _ = run(
            "meaning", "{T Mary wrote} {R a book} {T about art}",
            "--lexicon", lexicon_path, "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        got = tensor_from_json(doc["analyses"][0]["meaning"])
        want = meaning(
            parse_annotated("{T Mary wrote} {R a book} {T about art}"),
            example_lexicon,
        ).array
        assert np.array_equal(got, want)

    def test_text_output(self, run, lexicon_path):
        code, out, _ = run("meaning", "Mary likes {R musicals}", "--lexicon", lexicon_path)
        assert code == 0
        assert "analysis 1: pattern single-rheme" in out
        assert "theme 'Mary likes' -> theta: [2, 3, 6, 3]" in out
        assert "rheme 'musicals' -> rho: [0, 1, 1, 2]" in out
        assert "meaning (order 1): [0, 3, 6, 6]" in out

    def test_infelicitous_exits_one(self, run, lexicon_path):
        code, _, err = run(
            "meaning", "{T book book} {R musicals}", "--lexicon", lexicon_path
        )
        assert code == 1
        assert "infelicitous structure" in err

    def test_infelicitous_names_closest_residual(self, run, lexicon_path):
        code, _, err = run(
            "meaning", "{T book book} {R musicals}", "--lexicon", lexicon_path
        )
        assert code == 1
        assert err.count("\n") == 1
        assert err.rstrip().endswith(
            "span 1 {T book book} has no sense assignment reducing to 'theta'; "
            "best reached: 'n n'"
        )

    def test_unknown_word_exits_two(self, run, lexicon_path):
        code, _, err = run("meaning", "zebras {R run}", "--lexicon", lexicon_path)
        assert code == 2
        assert "zebras" in err

    def test_annotation_error_exits_two(self, run, lexicon_path):
        code, _, err = run("meaning", "{R musicals", "--lexicon", lexicon_path)
        assert code == 2
        assert "unclosed" in err

    @pytest.mark.parametrize("data", ["[NaN, 1]", "[Infinity, 1]", '["x", 1]'])
    def test_bad_lexicon_data_exits_two(self, run, tmp_path, data):
        p = tmp_path / "lex.json"
        p.write_text(
            '{"dims": {"n": 2, "s": 2, "theta": 2, "rho": 2}, "entries": ['
            '{"word": "t", "type": "theta", "shape": [2], "data": %s}, '
            '{"word": "r", "type": "rho", "shape": [2], "data": [1, 2]}]}' % data
        )
        for argv in (
            ("meaning", "{T t} {R r}", "--lexicon", str(p), "--format", "json"),
            ("compare", "{T t} {R r}", "{T t} {R r}", "--lexicon", str(p)),
        ):
            code, out, err = run(*argv)
            assert (code, out) == (2, "")
            assert "entry 1 ('t')" in err

    def test_bool_dimension_exits_two(self, run, tmp_path):
        p = tmp_path / "lex.json"
        p.write_text('{"dims": {"n": true, "s": 1, "theta": 1, "rho": 1}, "entries": []}')
        code, _, err = run("meaning", "{T t} {R r}", "--lexicon", str(p))
        assert code == 2
        assert "positive integers" in err

    def test_deterministic_output(self, run, lexicon_path):
        a = run("meaning", "{R John} likes {R Mary}", "--lexicon", lexicon_path,
                "--format", "json")
        b = run("meaning", "{R John} likes {R Mary}", "--lexicon", lexicon_path,
                "--format", "json")
        assert a == b


class TestCompare:
    def test_identical_sentences(self, run, lexicon_path):
        code, out, _ = run(
            "compare", "Mary likes {R musicals}", "Mary likes {R musicals}",
            "--lexicon", lexicon_path, "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert abs(doc["cosine"] - 1.0) <= 1e-12
        assert doc["distance"] == 0
        assert doc["equal"] is True

    def test_hand_computed_cosine(self, run, lexicon_path, example_lexicon):
        code, out, _ = run(
            "compare", "Mary likes {R musicals}", "Mary likes {R art}",
            "--lexicon", lexicon_path, "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        u = meaning(parse_annotated("Mary likes {R musicals}"), example_lexicon).array
        v = meaning(parse_annotated("Mary likes {R art}"), example_lexicon).array
        want = float(u @ v / (np.linalg.norm(u) * np.linalg.norm(v)))
        assert doc["cosine"] == pytest.approx(want, abs=1e-15)

    def test_cross_order_refused(self, run, lexicon_path):
        code, _, err = run(
            "compare", "Mary likes {R musicals}", "{R John} likes {R Mary}",
            "--lexicon", lexicon_path,
        )
        assert code == 1
        assert "different spaces" in err

    def test_zero_vector_refused(self, run, lexicon_path):
        # disjoint supports: theme of book is (1,2,0,0), rheme of art (0,0,2,1)
        code, _, err = run(
            "compare", "{T book} {R art}", "Mary likes {R musicals}",
            "--lexicon", lexicon_path,
        )
        assert code == 1
        assert "zero vector" in err

    def test_text_output(self, run, lexicon_path):
        code, out, _ = run(
            "compare", "Mary likes {R musicals}", "Mary likes {R musicals}",
            "--lexicon", lexicon_path,
        )
        assert code == 0
        assert "cosine: " in out
        assert "distance: 0" in out
        assert "equal (within 1.0000000000000001e-09): true" in out


class TestTruth:
    def test_json_member(self, run, universe_path):
        code, out, _ = run(
            "truth", "John likes Mary", "--universe", universe_path,
            "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc == {
            "subject": "John",
            "relation": "likes",
            "rheme": "Mary",
            "theme_vector": {"shape": [3], "data": [1, 1, 0]},
            "intersection": ["Mary"],
            "membership": 1,
        }

    def test_json_non_member(self, run, universe_path):
        code, out, _ = run(
            "truth", "Mary likes John", "--universe", universe_path,
            "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["intersection"] == []
        assert doc["membership"] == 0

    def test_text_output(self, run, universe_path):
        code, out, _ = run("truth", "John likes Sue", "--universe", universe_path)
        assert code == 0
        assert "theme(John likes) = [1, 1, 0]" in out
        assert "intersection: {Sue}" in out
        assert "membership: 1" in out

    def test_text_empty_intersection(self, run, universe_path):
        code, out, _ = run("truth", "Sue likes Mary", "--universe", universe_path)
        assert code == 0
        assert "intersection: ∅" in out
        assert "membership: 0" in out

    def test_boundary_markers_ignored(self, run, universe_path):
        plain = run("truth", "John likes Mary", "--universe", universe_path,
                    "--format", "json")
        marked = run("truth", "John likes ⊳ Mary", "--universe", universe_path,
                     "--format", "json")
        ascii_marked = run("truth", "John likes > Mary", "--universe", universe_path,
                           "--format", "json")
        assert plain == marked == ascii_marked

    def test_unknown_relation(self, run, universe_path):
        code, _, err = run("truth", "John hates Mary", "--universe", universe_path)
        assert code == 2
        assert "unknown relation 'hates'" in err
        assert "likes" in err

    def test_unknown_individual(self, run, universe_path):
        code, _, err = run("truth", "Zeus likes Mary", "--universe", universe_path)
        assert code == 2
        assert "Zeus" in err

    def test_malformed_query(self, run, universe_path):
        code, _, err = run("truth", "John likes", "--universe", universe_path)
        assert code == 2
        assert "subject relation rheme" in err

    def test_missing_universe_file(self, run, tmp_path):
        code, _, err = run("truth", "a r b", "--universe", str(tmp_path / "u.json"))
        assert code == 2
        assert "cannot read" in err

    def test_relations_not_an_object_exits_two(self, run, tmp_path):
        p = tmp_path / "u.json"
        p.write_text(json.dumps({"individuals": ["a", "b"], "relations": [["a", "b"]]}))
        code, out, err = run("truth", "a r b", "--universe", str(p))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "'relations' must be an object" in err


class TestSelfcheck:
    def test_all_pass(self, run):
        code, out, _ = run("selfcheck")
        assert code == 0
        lines = [l for l in out.splitlines() if l.strip()]
        assert len(lines) == 6
        assert all(l.endswith(": PASS") for l in lines)
