import errno
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from _oracles import stable_json_reference
from intonsem import cli, tensor
from intonsem.cli import main
from intonsem.intonation import meaning, parse_annotated
from intonsem.tensor import ContractionError, tensor_from_json


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

    def test_lexicon_mode_text_output(self, run, lexicon_path):
        code, out, _ = run("reduce", "Mary likes John", "--lexicon", lexicon_path)
        assert (code, out) == (
            0, "reduction 1: types n | n.r s n.l | n; links (1,2) (4,5); survivors 3\n"
        )

    def test_no_reduction_text_output(self, run):
        code, out, _ = run("reduce", "n n.r")
        assert (code, out) == (1, "factors: n n.r\nno reduction to 's'\n")

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

    @pytest.mark.parametrize("lexicon", [False, True])
    def test_adjoint_target_exits_two(self, run, lexicon_path, lexicon):
        argv = ["reduce", "n", "--target", "n.r"]
        if lexicon:
            argv = ["reduce", "Mary", "--target", "n.r", "--lexicon", lexicon_path]
        code, out, err = run(*argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "plain factors" in err

    @pytest.mark.parametrize("family", ["chain", "nested"])
    def test_deep_input_has_its_one_reduction(self, run, family):
        # 2,405 and 2,401 factors, each with exactly one reduction to s
        k = 1200
        if family == "chain":
            text = "n n.r s n.l n" + " n.r n" * k
            links = [[1, 2], [4, 2 * k + 5]] + [[i, i + 1] for i in range(5, 2 * k + 5, 2)]
            survivors = [3]
        else:
            text = "s" + " n.l" * k + " n" * k
            links = [[k + 2 - i, k + 1 + i] for i in range(k, 0, -1)]
            survivors = [1]
        code, out, err = run("reduce", text, "--format", "json")
        assert (code, err) == (0, "")
        assert json.loads(out)["reductions"] == [{"links": links, "survivors": survivors}]

    def test_empty_input(self, run):
        code, _, err = run("reduce", "   ")
        assert code == 2
        assert "empty input" in err

    def test_word_and_type_modes_agree(self, run, tmp_path):
        # one sense per word: the words spell out the type string
        lex = tmp_path / "lex.json"
        lex.write_text(json.dumps({
            "dims": {"n": 2, "s": 2, "theta": 2, "rho": 2},
            "entries": [
                {"word": "a", "type": "n", "shape": [2], "data": [1, 0]},
                {"word": "b", "type": "n.r s n.l", "shape": [2, 2, 2], "data": [1] * 8},
                {"word": "c", "type": "n", "shape": [2], "data": [0, 1]},
            ],
        }))
        words = ("reduce", "a b c", "--lexicon", str(lex))
        types = ("reduce", "n n.r s n.l n")
        code_w, out_w, _ = run(*words, "--format", "json")
        code_t, out_t, _ = run(*types, "--format", "json")
        assert code_w == code_t == 0
        (got,) = json.loads(out_w)["reductions"]
        assert got.pop("word_types") == ["n", "n.r s n.l", "n"]
        assert [got] == json.loads(out_t)["reductions"]
        dot_w, dot_t = run(*words, "--emit-diagram", "dot"), run(*types, "--emit-diagram", "dot")
        assert dot_w == dot_t and dot_w[0] == 0


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

    def test_text_output_order_two(self, run, lexicon_path):
        code, out, _ = run("meaning", "{R John} likes {R Mary}", "--lexicon", lexicon_path)
        assert code == 0
        assert out == (
            "{R John} {T likes} {R Mary}\n"
            "analysis 1: pattern double-rheme\n"
            "  rheme 'John' -> rho: [1, 0, 1, 0]\n"
            "  theme 'likes' -> theta theta: "
            "[1, 0, 2, 1, 0, 1, 1, 0, 2, 1, 0, 1, 0, 2, 1, 1]\n"
            "  rheme 'Mary' -> rho: [2, 1, 0, 1]\n"
            "  meaning (order 2): [2, 0, 0, 1, 0, 0, 0, 0, 4, 1, 0, 1, 0, 0, 0, 0]\n"
        )

    def test_text_output_two_analyses(self, run, tmp_path):
        # the rheme has a rho and a rho rho sense: split-theme, then relational
        lex = tmp_path / "lex.json"
        lex.write_text(json.dumps({
            "dims": {"n": 2, "s": 2, "theta": 2, "rho": 2},
            "entries": [
                {"word": "a", "type": "theta", "shape": [2], "data": [1, 2]},
                {"word": "b", "type": "rho", "shape": [2], "data": [3, 4]},
                {"word": "b", "type": "rho rho", "shape": [2, 2], "data": [1, 2, 3, 4]},
                {"word": "c", "type": "theta", "shape": [2], "data": [5, 6]},
            ],
        }))
        code, out, _ = run("meaning", "{T a} {R b} {T c}", "--lexicon", str(lex))
        assert code == 0
        assert out == (
            "{T a} {R b} {T c}\n"
            "analysis 1: pattern split-theme\n"
            "  theme 'a' -> theta: [1, 2]\n"
            "  rheme 'b' -> rho: [3, 4]\n"
            "  theme 'c' -> theta: [5, 6]\n"
            "  meaning (order 1): [15, 48]\n"
            "analysis 2: pattern relational-rheme\n"
            "  theme 'a' -> theta: [1, 2]\n"
            "  rheme 'b' -> rho rho: [1, 2, 3, 4]\n"
            "  theme 'c' -> theta: [5, 6]\n"
            "  meaning (order 2): [5, 12, 30, 48]\n"
        )

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

    def test_entries_not_a_list_exits_two(self, run, tmp_path):
        p = tmp_path / "lex.json"
        p.write_text('{"dims": {"n": 1, "s": 1, "theta": 1, "rho": 1}, "entries": 5}')
        code, out, err = run("meaning", "{T t} {R r}", "--lexicon", str(p))
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "'entries' list" in err

    @pytest.mark.parametrize("fmt", ["json", "text"])
    @pytest.mark.parametrize("sentence", ["{T t} {R r}", "{T a v} {R r}"])
    def test_float_overflow_exits_one(self, run, tmp_path, fmt, sentence):
        # every value is finite, but the boundary product (t, r) or the
        # theme's contraction (a v) is not
        p = tmp_path / "lex.json"
        p.write_text(
            '{"dims": {"n": 2, "s": 2, "theta": 2, "rho": 2}, "entries": ['
            '{"word": "t", "type": "theta", "shape": [2], "data": [1e300, 1]}, '
            '{"word": "a", "type": "n", "shape": [2], "data": [1e300, 1]}, '
            '{"word": "v", "type": "n.r theta", "shape": [2, 2], "data": [1e300, 0, 0, 1]}, '
            '{"word": "r", "type": "rho", "shape": [2], "data": [1e10, 1]}]}'
        )
        for argv in (
            ("meaning", sentence, "--lexicon", str(p), "--format", fmt),
            ("compare", sentence, sentence, "--lexicon", str(p), "--format", fmt),
        ):
            code, out, err = run(*argv)
            assert (code, out) == (1, "")
            assert err.startswith("error: ") and err.count("\n") == 1
            assert "not finite" in err

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


class TestDeepMeaning:
    def test_nested_theme_of_2401_words(self, run, write_lexicon):
        # theta n.l | n.l x 1199 | n x 1200: 1,200 nested links, d = 1
        lex = write_lexicon({
            "dims": {"n": 1, "s": 1, "theta": 1, "rho": 1},
            "entries": [
                {"word": "t", "type": "theta n.l", "shape": [1, 1], "data": [2]},
                {"word": "l", "type": "n.l", "shape": [1], "data": [-1]},
                {"word": "m", "type": "n", "shape": [1], "data": [1]},
                {"word": "r", "type": "rho", "shape": [1], "data": [3]},
            ],
        })
        theme = " ".join(["t"] + ["l"] * 1199 + ["m"] * 1200)
        code, out, err = run(
            "meaning", "{T %s} {R r}" % theme, "--lexicon", str(lex), "--format", "json"
        )
        assert (code, err) == (0, "")
        (a,) = json.loads(out)["analyses"]
        assert a["meaning"] == {"shape": [1], "data": [-6]}  # 2 * (-1)^1199 * 3


class TestContractionLimit:
    @pytest.mark.parametrize("command", ["meaning", "compare"])
    def test_part_past_numpy_axis_limit_exits_one(self, run, write_lexicon, command):
        # A and B merge over one link into a 79-axis part
        lex = write_lexicon({
            "dims": {"n": 1, "s": 1, "theta": 1, "rho": 1},
            "entries": [
                {"word": "A", "type": "theta" + " n.l" * 40, "shape": [1] * 41, "data": [2]},
                {"word": "B", "type": " ".join(["n"] * 40), "shape": [1] * 40, "data": [3]},
                {"word": "r", "type": "rho", "shape": [1], "data": [1]},
            ],
        })
        sentence = "{T A B} {R r}"
        argv = [command, sentence] + [sentence] * (command == "compare")
        code, out, err = run(*argv, "--lexicon", str(lex))
        assert (code, out) == (1, "")
        assert err.startswith("error: cannot contract link (2, 81): ")
        assert err.count("\n") == 1

    def test_merge_past_memory_exits_one(self, run, lexicon_path, monkeypatch):
        def no_memory(*args):
            raise MemoryError("Unable to allocate 1.00 TiB")

        monkeypatch.setattr(tensor, "_tensordot", no_memory)
        code, out, err = run("meaning", "Mary likes {R musicals}", "--lexicon", lexicon_path)
        assert (code, out) == (1, "")
        assert err == "error: cannot contract link (1, 2): Unable to allocate 1.00 TiB\n"


class TestWriteFailures:
    # the failure is the process's own stdout or stderr, so each case runs in a child
    @staticmethod
    def _child(argv, stdout, stderr):
        from conftest import DATA_DIR

        src = str(DATA_DIR.parent.parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])
        )}
        return subprocess.run(
            [sys.executable, "-m", "intonsem.cli", *argv],
            stdout=stdout, stderr=stderr, env=env, timeout=60,
        )

    @staticmethod
    def _reduce_to(stdout):
        return TestWriteFailures._child(["reduce", "n n.r s n.l n"], stdout, subprocess.PIPE)

    def test_closed_pipe_exits_one(self):
        r, w = os.pipe()
        os.close(r)
        try:
            proc = self._reduce_to(w)
        finally:
            os.close(w)
        assert proc.returncode == 1
        assert proc.stderr.decode() == f"error: cannot write output: {os.strerror(errno.EPIPE)}\n"

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    def test_full_device_exits_one(self):
        with open("/dev/full", "wb") as full:
            proc = self._reduce_to(full)
        assert proc.returncode == 1
        assert proc.stderr.decode() == f"error: cannot write output: {os.strerror(errno.ENOSPC)}\n"

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    def test_full_stderr_keeps_the_failures_exit_code(self):
        with open("/dev/full", "wb") as full:
            proc = self._child(["reduce", "n$"], subprocess.PIPE, full)
        assert proc.returncode == 2  # a type syntax error
        assert proc.stdout == b""

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    def test_help_to_a_full_device_exits_one(self):
        with open("/dev/full", "wb") as full:
            proc = self._child(["meaning", "--help"], full, subprocess.PIPE)
        assert proc.returncode == 1
        assert proc.stderr.decode() == f"error: cannot write output: {os.strerror(errno.ENOSPC)}\n"


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

    def test_huge_meaning_compares_with_itself(self, run, tmp_path):
        # the meaning [1e160, 1e80] is finite, but its squares are not
        p = tmp_path / "lex.json"
        p.write_text(
            '{"dims": {"n": 2, "s": 2, "theta": 2, "rho": 2}, "entries": ['
            '{"word": "t", "type": "theta", "shape": [2], "data": [1e160, 1e80]}, '
            '{"word": "r", "type": "rho", "shape": [2], "data": [1, 1]}]}'
        )
        code, out, _ = run("meaning", "{T t} {R r}", "--lexicon", str(p))
        assert code == 0 and "[1e+160, 1e+80]" in out
        code, out, err = run("compare", "{T t} {R r}", "{T t} {R r}", "--lexicon", str(p))
        assert (code, err) == (0, "")
        assert out.splitlines()[:2] == ["cosine: 1", "distance: 0"]

    def test_unused_overflowing_reading_is_not_computed(self, run, tmp_path):
        # only the relational-rheme reading, which compare does not use,
        # overflows: 1 * 1e300 * 1e10
        p = tmp_path / "lex.json"
        p.write_text(json.dumps({"dims": {"n": 2, "s": 2, "theta": 2, "rho": 2}, "entries": [
            {"word": "a", "type": "theta", "shape": [2], "data": [1, 1]},
            {"word": "b", "type": "rho", "shape": [2], "data": [1, 1]},
            {"word": "b", "type": "rho rho", "shape": [2, 2], "data": [1e300] * 4},
            {"word": "c", "type": "theta", "shape": [2], "data": [1e10, 1e10]},
        ]}))
        sentence = "{T a} {R b} {T c}"
        code, out, err = run("compare", sentence, sentence, "--lexicon", str(p))
        assert (code, err) == (0, "")
        assert out.splitlines()[1:] == [
            "distance: 0", "equal (within 1.0000000000000001e-09): true"
        ]
        code, out, err = run("meaning", sentence, "--lexicon", str(p))
        assert (code, out) == (1, "")
        assert err == (
            "error: the result is not finite in float64 (overflow encountered in einsum)\n"
        )

    def test_text_output(self, run, lexicon_path):
        code, out, _ = run(
            "compare", "Mary likes {R musicals}", "Mary likes {R musicals}",
            "--lexicon", lexicon_path,
        )
        assert code == 0
        assert "cosine: " in out
        assert "distance: 0" in out
        assert "equal (within 1.0000000000000001e-09): true" in out


    @pytest.mark.parametrize("tolerance", ["nan", "-1", "-inf"])
    def test_bad_tolerance_exits_two(self, run, lexicon_path, tolerance):
        code, out, err = run(
            "compare", "Mary likes {R musicals}", "Mary likes {R musicals}",
            "--lexicon", lexicon_path, f"--tolerance={tolerance}",
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "--tolerance must be a non-negative number" in err

    def test_infinite_tolerance_is_valid(self, run, lexicon_path):
        code, out, _ = run(
            "compare", "Mary likes {R musicals}", "Mary likes {R art}",
            "--lexicon", lexicon_path, "--tolerance", "inf",
        )
        assert code == 0
        assert "equal (within inf): true" in out

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

    def test_text_non_member_with_boundary(self, run, universe_path):
        code, out, _ = run("truth", "Sue > likes John", "--universe", universe_path)
        assert (code, out) == (
            0, "theme(Sue likes) = [0, 0, 0]\nintersection: ∅\nmembership: 0\n"
        )

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

    def test_unhashable_name_in_pair_exits_two(self, run, tmp_path):
        p = tmp_path / "u.json"
        p.write_text(json.dumps({"individuals": ["a", "b"], "relations": {"r": [[["a"], "b"]]}}))
        code, out, err = run("truth", "a r b", "--universe", str(p))
        assert (code, out) == (2, "")
        assert err == "error: unknown individual ['a']; universe has a, b\n"

    def test_relations_not_an_object_exits_two(self, run, tmp_path):
        p = tmp_path / "u.json"
        p.write_text(json.dumps({"individuals": ["a", "b"], "relations": [["a", "b"]]}))
        code, out, err = run("truth", "a r b", "--universe", str(p))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "'relations' must be an object" in err


class TestArgumentErrors:
    @pytest.mark.parametrize(
        "argv, message",
        [
            (("meaning", "{T t} {R r}"), "required: --lexicon"),
            (("parse", "n"), "invalid choice: 'parse'"),
            (("reduce", "n", "--format", "xml"), "invalid choice: 'xml'"),
            (("compare", "a", "b", "--lexicon", "l.json", "--tolerance", "abc"),
             "invalid float value: 'abc'"),
        ],
        ids=["missing-lexicon", "unknown-subcommand", "bad-format", "bad-tolerance"],
    )
    def test_one_error_line_exit_two(self, run, argv, message):
        code, out, err = run(*argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err

    def test_help_unchanged(self, run):
        with pytest.raises(SystemExit) as exc:
            run("meaning", "--help")
        assert exc.value.code == 0


class TestParserReuse:
    def test_parser_is_not_rebuilt_per_call(self, run, monkeypatch):
        built = []
        init = cli._Parser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(cli._Parser, "__init__", counting_init)
        run("reduce", "n n.r s")
        first = len(built)
        for argv in (("reduce", "n"), ("selfcheck", "--tolerance", "x"), ("parse",)):
            run(*argv)
        # at most one parser tree (top level and five subcommands), built once
        assert len(built) == first <= 6

    def test_a_sequence_of_calls_matches_each_call_alone(
        self, run, monkeypatch, lexicon_path, universe_path
    ):
        calls = [
            ("reduce", "n", "--format", "xml"),
            ("reduce", "n n.r s n.l n", "--format", "json"),
            ("reduce", "Mary likes musicals", "--lexicon", lexicon_path),
            ("reduce", "n n.r s n.l n"),
            ("reduce", "n n.r s", "--emit-diagram", "dot"),
            ("reduce", "n n"),
            ("compare", "a", "b", "--lexicon", lexicon_path, "--tolerance", "abc"),
            ("compare", "{T Mary likes} {R musicals}", "{T Mary likes} {R musicals}",
             "--lexicon", lexicon_path, "--tolerance", "0.5"),
            ("compare", "{T Mary likes} {R musicals}", "{T Mary likes} {R musicals}",
             "--lexicon", lexicon_path),
            ("meaning", "{T Mary likes} {R musicals}", "--lexicon", lexicon_path,
             "--format", "json"),
            ("truth", "John likes Mary", "--universe", universe_path, "--format", "json"),
            ("truth", "Zeus likes Mary", "--universe", universe_path),
            ("truth", "John likes Mary", "--universe", universe_path),
            ("meaning", "{T Mary likes} {R musicals}"),
            ("meaning", "{T Mary likes} {R musicals}", "--lexicon", lexicon_path),
        ]
        together = [run(*argv) for argv in calls]
        # each call alone: a parser built afresh for it
        monkeypatch.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
        alone = [run(*argv) for argv in calls]
        assert [(c, out) for c, out, _ in together] == [(c, out) for c, out, _ in alone]
        assert [c for c, _, _ in together] == [2, 0, 0, 0, 0, 1, 2, 0, 0, 0, 0, 2, 0, 2, 0]

    @pytest.mark.parametrize("argv", [("--help",), ("meaning", "--help")])
    def test_help_twice(self, capsys, argv):
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                main(list(argv))
            assert exc.value.code == 0
            assert capsys.readouterr().out.startswith("usage: intonsem")


class TestSidecarErrors:
    @pytest.mark.parametrize(
        "sidecar, message",
        [
            (None, "cannot read vector sidecar"),
            ("x 1 0\n", "v.tsv:1: expected 'word<TAB>values'"),
            ("x\t1 0\nx\t0 1\n", "v.tsv:2: duplicate row for 'x'"),
        ],
        ids=["missing-file", "no-tab", "duplicate-row"],
    )
    def test_exits_two(self, run, tmp_path, sidecar, message):
        if sidecar is not None:
            (tmp_path / "v.tsv").write_text(sidecar)
        p = tmp_path / "lex.json"
        p.write_text(json.dumps({
            "dims": {"n": 2, "s": 2, "theta": 2, "rho": 2},
            "entries": [{"word": "x", "type": "n", "data_ref": "v.tsv"}],
        }))
        code, out, err = run("meaning", "{T x} {R x}", "--lexicon", str(p))
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err


class TestSelfcheck:
    def test_all_pass(self, run):
        code, out, _ = run("selfcheck")
        assert code == 0
        lines = [l for l in out.splitlines() if l.strip()]
        assert len(lines) == 6
        assert all(l.endswith(": PASS") for l in lines)

    @pytest.mark.parametrize(
        "name, broken, failing",
        [
            ("delta", lambda v: np.diag(2 * v), "copy/merge round trips"),
            ("fuse", lambda a, b, wires=1: a, "spider fusion sample"),
            # column maxima: exact on non-negative diagonal or equal-row matrices
            ("mu", lambda w: np.max(w, axis=0), "copy/merge round trips"),
        ],
        ids=["delta", "fuse", "mu"],
    )
    def test_a_broken_map_fails_its_property_alone(
        self, run, monkeypatch, name, broken, failing
    ):
        monkeypatch.setattr(cli, name, broken)
        code, out, err = run("selfcheck")
        assert (code, err) == (1, "")
        verdicts = dict(line.rsplit(": ", 1) for line in out.splitlines())
        assert len(verdicts) == 6
        assert {p for p, v in verdicts.items() if v != "PASS"} == {failing}
        assert verdicts[failing] == "FAIL"

    def test_a_raising_property_prints_nothing_on_stdout(self, run, monkeypatch):
        # fuse is the fourth property: three verdicts are known before it raises
        def broken(a, b, wires=1):
            raise ContractionError("fuse broke")

        monkeypatch.setattr(cli, "fuse", broken)
        code, out, err = run("selfcheck")
        assert (code, out, err) == (1, "", "error: fuse broke\n")

    def test_tolerance_is_not_an_option(self, run):
        code, out, err = run("selfcheck", "--tolerance", "nan")
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1


class _Text(str):
    def __str__(self):
        return "not the data"


class _Count(int):
    pass


def _random_document(rng, depth=0):
    """A JSON-able value with the awkward corners of the writer's input."""
    chars = ["a", "Z", " ", '"', "\\", "/", "é", "ß", "日", "😀", "\ud800", "\x7f", "\u2028"]
    chars += [chr(c) for c in range(32)]

    def text():
        return "".join(rng.choice(chars) for _ in range(rng.integers(0, 6)))

    leaves = [
        lambda: float(rng.choice([0.0, -0.0, 5e-324, -2.5e-310, 1e-300, 0.1, 1 / 3, 1e300,
                                  -1.7976931348623157e308])),
        lambda: float(rng.normal() * 10.0 ** rng.integers(-30, 30)),
        lambda: np.float64(rng.normal()),
        lambda: int(rng.integers(-5, 5)) * 10 ** int(rng.integers(0, 40)),
        lambda: _Count(rng.integers(100)),
        lambda: bool(rng.integers(2)),
        text,
        lambda: _Text(text()),
    ]
    if depth < 4 and rng.random() < 0.5:
        if rng.random() < 0.5:
            return [_random_document(rng, depth + 1) for _ in range(rng.integers(0, 5))]
        keys = [text, lambda: int(rng.integers(-3, 3)), lambda: 0.5, lambda: True, lambda: None]
        return {keys[rng.integers(len(keys))]() if rng.random() < 0.2 else text():
                _random_document(rng, depth + 1) for _ in range(rng.integers(0, 5))}
    return leaves[rng.integers(len(leaves))]()


class TestStableJson:
    def test_matches_the_reference_writer_on_generated_documents(self):
        rng = np.random.default_rng(20261019)
        for _ in range(2000):
            doc = _random_document(rng)
            assert cli._stable_json(doc) == stable_json_reference(doc), repr(doc)

    def test_document_round_trips_through_json_loads(self):
        doc = {"é": ["\x00\u2028😀", -0.0, 5e-324, 10 ** 30, True], "x": {"y": []}}
        assert json.loads(cli._stable_json(doc)) == doc

    @pytest.mark.parametrize("value", [None, (1, 2), np.int64(3), {"k": {1, 2}}])
    def test_unsupported_values_raise_the_same_error(self, value):
        with pytest.raises(TypeError) as want:
            stable_json_reference(value)
        with pytest.raises(TypeError, match=f"^{want.value}$"):
            cli._stable_json(value)
