import copy
import dataclasses
import itertools
import json
import pickle
from types import SimpleNamespace

import numpy as np
import pytest

from intonsem import tensor
from intonsem.pregroup import (
    PregroupType,
    ReductionDiagram,
    SimpleType,
    atom,
    parse_type,
    reduce,
)
from intonsem.tensor import (
    ContractionError,
    TypedTensor,
    UnknownBaseError,
    compose,
    epsilon_contract,
    eta,
    semantic_shape,
    tensor_from_json,
    tensor_to_json,
)

from _oracles import inverse_reduce_sequence, naive_contract

SPACES = {"n": 4, "s": 2, "theta": 3, "rho": 3}


def _no_memory(*args):
    raise MemoryError("Unable to allocate 1.00 TiB for an array")


def _random_words(rng, types, spaces=SPACES, low=-2, high=3):
    words = []
    for t in types:
        shape = semantic_shape(t, spaces)
        words.append(TypedTensor(t, rng.integers(low, high, size=shape)))
    return words


def _random_diagram(rng, spaces, max_factors=8):
    """Integer words and a diagram over them whose links join random positions, so
    they may cross: every link cancels, the other factors survive."""
    size = int(rng.integers(4, max_factors + 1))
    ids = [int(k) for k in rng.permutation(size)]
    k = int(rng.integers(2, size // 2 + 1))
    links = sorted(tuple(sorted(ids[2 * m:2 * m + 2])) for m in range(k))
    factors, bases = [None] * size, sorted(spaces)
    for i, j in links:
        base, z = bases[rng.integers(len(bases))], int(rng.integers(-1, 2))
        factors[i], factors[j] = SimpleType(base, z), SimpleType(base, z + 1)
    for s in ids[2 * k:]:
        factors[s] = SimpleType(bases[rng.integers(len(bases))])
    cuts = sorted(int(c) for c in rng.choice(range(1, size), int(rng.integers(size)), replace=False))
    types = [PregroupType(factors[a:b]) for a, b in zip([0, *cuts], [*cuts, size])]
    return _random_words(rng, types, spaces), ReductionDiagram(tuple(links), tuple(sorted(ids[2 * k:])), size)


class TestSemanticShape:
    def test_examples(self):
        assert semantic_shape(parse_type("n.r s n.l"), {"n": 4, "s": 2}) == (4, 2, 4)
        assert semantic_shape(PregroupType(), {}) == ()
        assert semantic_shape(parse_type("theta.r s rho.l"), SPACES) == (3, 2, 3)

    def test_adjoint_insensitive_per_factor(self):
        rng = np.random.default_rng(3)
        for _ in range(500):
            base = str(rng.choice(list(SPACES)))
            z = int(rng.integers(-3, 4))
            t = atom(base, z)
            assert semantic_shape(t, SPACES) == semantic_shape(atom(base), SPACES)

    def test_monoidal_on_concatenation(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            p = PregroupType(
                tuple(
                    parse_type(str(rng.choice(list(SPACES))))[0].r
                    for _ in range(rng.integers(0, 4))
                )
            )
            q = PregroupType(
                tuple(
                    parse_type(str(rng.choice(list(SPACES))))[0].l
                    for _ in range(rng.integers(0, 4))
                )
            )
            assert semantic_shape(p @ q, SPACES) == (
                semantic_shape(p, SPACES) + semantic_shape(q, SPACES)
            )

    def test_unknown_base(self):
        with pytest.raises(UnknownBaseError):
            semantic_shape(parse_type("q"), SPACES)

    def test_bad_dimension(self):
        with pytest.raises(UnknownBaseError):
            semantic_shape(parse_type("n"), {"n": 0})


class TestTypedTensor:
    def test_order_mismatch(self):
        with pytest.raises(ContractionError):
            TypedTensor(parse_type("n"), np.zeros((2, 2)))
        with pytest.raises(ContractionError):
            TypedTensor(PregroupType(), np.zeros(3))

    def test_scalar_for_unit(self):
        t = TypedTensor(PregroupType(), np.asarray(2.5))
        assert t.order == 0
        assert float(t.array) == 2.5

    def test_immutable(self):
        t = TypedTensor(parse_type("n"), np.arange(3))
        with pytest.raises(ValueError):
            t.array[0] = 9.0

    def test_copies_input(self):
        src = np.arange(3, dtype=np.float64)
        t = TypedTensor(parse_type("n"), src)
        src[0] = 100.0
        assert t.array[0] == 0.0

    def test_keeps_read_only_float64_without_copy(self):
        src = np.arange(3, dtype=np.float64)
        src.setflags(write=False)
        assert TypedTensor(parse_type("n"), src).array is src

    def test_shares_another_tensors_array(self):
        t = TypedTensor(parse_type("n"), np.arange(3))
        assert TypedTensor(parse_type("rho"), t.array).array is t.array

    def test_copies_read_only_view_of_writable_array(self):
        base = np.arange(3, dtype=np.float64)
        view = base[:]
        view.setflags(write=False)
        t = TypedTensor(parse_type("n"), view)
        base[0] = 100.0
        assert t.array[0] == 0.0

    @pytest.mark.parametrize(
        "src",
        [np.arange(4, dtype=np.float32).reshape(2, 2), np.arange(4.0).reshape(2, 2).T],
        ids=["float32", "fortran-order"],
    )
    def test_converts_other_dtype_or_layout(self, src):
        src.setflags(write=False)
        t = TypedTensor(parse_type("n n"), src)
        assert t.array is not src
        assert t.array.dtype == np.float64 and t.array.flags.c_contiguous
        assert not t.array.flags.writeable
        assert np.array_equal(t.array, src)

    def test_loaded_sense_is_read_only(self, example_lexicon):
        for word in example_lexicon:
            for s in example_lexicon[word].senses:
                assert not s.array.flags.writeable
                with pytest.raises(ValueError):
                    s.array[(0,) * s.order] = 9.0

    @pytest.mark.parametrize(
        "remake",
        [dataclasses.replace, copy.copy, copy.deepcopy,
         lambda t: pickle.loads(pickle.dumps(t)),
         lambda t: pickle.loads(pickle.dumps(t, protocol=pickle.HIGHEST_PROTOCOL))],
        ids=["replace", "copy", "deepcopy", "pickle", "pickle-highest"],
    )
    def test_a_remade_tensor_is_read_only(self, remake):
        t = TypedTensor(parse_type("n.r s"), np.arange(6.0).reshape(3, 2))
        u = remake(t)
        assert type(u) is TypedTensor and u.type == t.type
        assert np.array_equal(u.array, t.array) and u.array.dtype == np.float64
        assert not u.array.flags.writeable
        with pytest.raises(ValueError):
            u.array[0, 0] = 9.0

    def test_replace_checks_the_new_array(self):
        t = TypedTensor(parse_type("n"), np.arange(3.0))
        u = dataclasses.replace(t, array=np.ones(3))
        assert u.type == t.type and np.array_equal(u.array, np.ones(3))
        assert not u.array.flags.writeable
        with pytest.raises(ContractionError):
            dataclasses.replace(t, array=np.ones((3, 3)))

    @pytest.mark.parametrize("field", ["type", "array"])
    def test_fields_cannot_be_assigned(self, field):
        t = TypedTensor(parse_type("n"), np.arange(3.0))
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(t, field, getattr(t, field))


class TestEpsilonContract:
    def test_vector_matrix(self):
        v = TypedTensor(parse_type("n"), np.array([1.0, 2.0]))
        m = TypedTensor(parse_type("n.r s"), np.array([[3.0, 4.0], [5.0, 6.0]]))
        out = epsilon_contract(v, 0, m, 0)
        assert out.type == parse_type("s")
        assert np.array_equal(out.array, np.array([13.0, 16.0]))

    def test_non_cancelling_rejected(self):
        v = TypedTensor(parse_type("n"), np.zeros(2))
        w = TypedTensor(parse_type("n"), np.zeros(2))
        with pytest.raises(ContractionError):
            epsilon_contract(v, 0, w, 0)

    def test_wrong_side_rejected(self):
        v = TypedTensor(parse_type("n"), np.zeros(2))
        m = TypedTensor(parse_type("s n.l"), np.zeros((2, 2)))
        # n . (s n.l) has the cancelling pair in the other order
        with pytest.raises(ContractionError):
            epsilon_contract(v, 0, m, 1)

    def test_dimension_mismatch(self):
        v = TypedTensor(parse_type("n"), np.zeros(2))
        m = TypedTensor(parse_type("n.r s"), np.zeros((3, 2)))
        with pytest.raises(ContractionError):
            epsilon_contract(v, 0, m, 0)

    def test_negative_axes_count_from_the_end(self):
        rng = np.random.default_rng(7)
        v = TypedTensor(parse_type("n"), rng.standard_normal(4))
        m = TypedTensor(parse_type("n.r s n.l"), rng.standard_normal((4, 2, 4)))
        w = TypedTensor(parse_type("n"), rng.standard_normal(4))
        for got, want in (
            (epsilon_contract(v, -1, m, -3), epsilon_contract(v, 0, m, 0)),
            (epsilon_contract(m, -1, w, -1), epsilon_contract(m, 2, w, 0)),
        ):
            assert got.type == want.type
            assert np.array_equal(got.array, want.array)

    def test_axis_out_of_range(self):
        v = TypedTensor(parse_type("n"), np.zeros(4))
        m = TypedTensor(parse_type("n.r s"), np.zeros((4, 2)))
        for axis_v, axis_m in ((1, 0), (0, 2), (-2, 0), (0, -3)):
            with pytest.raises(IndexError):
                epsilon_contract(v, axis_v, m, axis_m)

    def test_yanking_left(self):
        # bending a wire with the identity matrix and contracting undoes itself
        rng = np.random.default_rng(8)
        v = rng.standard_normal(5)
        cap = TypedTensor(parse_type("n n.l"), eta(5))
        w = TypedTensor(parse_type("n"), v)
        out = epsilon_contract(cap, 1, w, 0)
        assert out.type == parse_type("n")
        assert np.array_equal(out.array, v)

    def test_yanking_right(self):
        rng = np.random.default_rng(9)
        v = rng.standard_normal(5)
        cap = TypedTensor(parse_type("n.r n"), eta(5))
        w = TypedTensor(parse_type("n"), v)
        out = epsilon_contract(w, 0, cap, 0)
        assert out.type == parse_type("n")
        assert np.array_equal(out.array, v)


class TestEta:
    def test_values(self):
        assert np.array_equal(eta(1), np.array([[1.0]]))
        assert np.array_equal(eta(3), np.eye(3))

    def test_positive_dim(self):
        with pytest.raises(ValueError):
            eta(0)


class TestCompose:
    def test_transitive_sentence_matches_chained_contractions(self):
        rng = np.random.default_rng(12)
        n, s = atom("n"), atom("s")
        subj = TypedTensor(n, rng.integers(0, 4, size=4))
        verb = TypedTensor(n.r @ s @ n.l, rng.integers(0, 4, size=(4, 2, 4)))
        obj = TypedTensor(n, rng.integers(0, 4, size=4))
        (diagram,) = reduce([subj.type, verb.type, obj.type], s)
        got = compose([subj, verb, obj], diagram)
        step = epsilon_contract(subj, 0, verb, 0)
        want = epsilon_contract(step, 1, obj, 0)
        assert got.type == s
        assert np.array_equal(got.array, want.array)

    def test_single_word_no_links(self):
        v = TypedTensor(atom("n"), np.array([1.0, 2.0, 3.0, 4.0]))
        d = ReductionDiagram((), (0,), 1)
        out = compose([v], d)
        assert out.type == atom("n")
        assert np.array_equal(out.array, v.array)

    def test_result_keeps_the_array_compose_built(self, monkeypatch):
        # the product of the one link is the result's memory, read-only
        built = []
        dot = np.dot

        def spy(a, b):
            built.append(dot(a, b))
            return built[-1]

        monkeypatch.setattr(np, "dot", spy)
        rng = np.random.default_rng(31)
        v = TypedTensor(atom("n"), rng.random(4))
        verb = TypedTensor(parse_type("n.r s n.l"), rng.random((4, 2, 4)))
        out = compose([v, verb], ReductionDiagram(((0, 1),), (2, 3), 4))
        assert len(built) == 1 and np.shares_memory(out.array, built[0])
        assert not out.array.flags.writeable
        assert np.array_equal(out.array, np.tensordot(v.array, verb.array, axes=(0, 0)))

    def test_one_unlinked_word_shares_its_sense(self):
        v = TypedTensor(atom("n"), np.array([1.0, 2.0, 3.0, 4.0]))
        out = compose([v], ReductionDiagram((), (0,), 1))
        assert np.shares_memory(out.array, v.array)
        assert not out.array.flags.writeable

    def test_transposed_result_is_read_only_and_c_contiguous(self):
        # the third word's part is folded before the merged first two
        rng = np.random.default_rng(32)
        words = [TypedTensor(t, rng.random(semantic_shape(t, SPACES)))
                 for t in (parse_type("n"), parse_type("n.r s"), parse_type("theta"))]
        out = compose(words, ReductionDiagram(((0, 1),), (2, 3), 4))
        want = np.multiply.outer(np.tensordot(words[0].array, words[1].array, axes=(0, 0)),
                                 words[2].array)
        assert np.array_equal(out.array, want)
        assert out.array.flags.c_contiguous and not out.array.flags.writeable

    def test_trace_within_one_word(self):
        m = np.arange(9.0).reshape(3, 3)
        w = TypedTensor(parse_type("n n.r"), m)
        d = ReductionDiagram(((0, 1),), (), 2)
        out = compose([w], d)
        assert out.type == PregroupType(())
        assert float(out.array) == np.trace(m)

    def test_outer_product_of_survivors(self):
        a = TypedTensor(atom("n"), np.array([1.0, 2.0, 0.0, 1.0]))
        b = TypedTensor(atom("s"), np.array([3.0, 5.0]))
        d = ReductionDiagram((), (0, 1), 2)
        out = compose([a, b], d)
        assert out.type == parse_type("n s")
        assert np.array_equal(out.array, np.outer(a.array, b.array))

    def test_scalar_times_survivor(self):
        # a closed loop multiplies the surviving tensor by its trace
        loop = TypedTensor(parse_type("n n.r"), 2.0 * np.eye(4))
        v = TypedTensor(atom("s"), np.array([1.0, 7.0]))
        d = ReductionDiagram(((0, 1),), (2,), 3)
        out = compose([loop, v], d)
        assert np.array_equal(out.array, 8.0 * v.array)

    def test_no_words_compose_to_one(self):
        out = compose([], ReductionDiagram((), (), 0))
        assert out.type == PregroupType(())
        assert out.array.shape == () and float(out.array) == 1.0

    def test_sixty_unlinked_axes(self):
        t = parse_type(" ".join(["n"] * 60))
        w = TypedTensor(t, np.full((1,) * 60, 3.0))
        out = compose([w], ReductionDiagram((), tuple(range(60)), 60))
        assert out.type == t
        assert out.array.shape == (1,) * 60 and out.array.item() == 3.0

    def test_fold_past_numpy_axis_limit_raises_contraction_error(self):
        # two unlinked 40-axis words fold into 80 axes, past numpy's axis
        # limit (64 in numpy 2, 32 in numpy 1)
        w = TypedTensor(PregroupType(atom("n").factors * 40), np.ones((1,) * 40))
        with pytest.raises(ContractionError, match="cannot fold the unlinked parts"):
            compose([w, w], ReductionDiagram((), tuple(range(80)), 80))

    def test_merge_past_memory_raises_contraction_error(self, monkeypatch):
        monkeypatch.setattr(tensor, "_tensordot", _no_memory)
        n = TypedTensor(atom("n"), np.ones(4))
        verb = TypedTensor(parse_type("n.r s"), np.ones((4, 2)))
        with pytest.raises(ContractionError, match=r"^cannot contract link \(1, 2\): Unable to"):
            compose([n, verb], ReductionDiagram(((0, 1),), (2,), 3))

    def test_fold_past_memory_raises_contraction_error(self, monkeypatch):
        monkeypatch.setattr(np, "multiply", SimpleNamespace(outer=_no_memory))
        w = TypedTensor(atom("n"), np.ones(4))
        with pytest.raises(ContractionError, match="^cannot fold the unlinked parts: Unable to"):
            compose([w, w], ReductionDiagram((), (0, 1), 2))

    def test_matches_naive_oracle_on_random_reductions(self):
        rng = np.random.default_rng(21)
        spaces = {"n": 2, "s": 3, "theta": 2, "rho": 3}
        for _ in range(60):
            types = inverse_reduce_sequence(
                rng, [f for f in parse_type("s")], max_factors=8
            )
            words = _random_words(rng, types, spaces)
            for d in reduce(types, atom("s")):
                got = compose(words, d)
                want = naive_contract(words, d)
                assert np.allclose(got.array, want, rtol=1e-12, atol=1e-12)

    def test_survivor_axes_follow_factor_order(self):
        # the first two words merge into a part folded after the third word
        rng = np.random.default_rng(24)
        words = _random_words(rng, [atom("n"), parse_type("n.r theta"), atom("rho")])
        out = compose(words, ReductionDiagram(((0, 1),), (2, 3), 4))
        assert out.type == parse_type("theta rho")
        want = np.outer(words[0].array @ words[1].array, words[2].array)
        assert np.array_equal(out.array, want)

    def test_matches_naive_oracle_with_several_survivors(self):
        rng = np.random.default_rng(25)
        spaces = {"n": 2, "s": 3, "theta": 2, "rho": 3}
        target = parse_type("theta s rho")
        for _ in range(60):
            types = inverse_reduce_sequence(rng, list(target), max_factors=9)
            words = _random_words(rng, types, spaces)
            for d in reduce(types, target):
                got = compose(words, d)
                assert got.type == target
                assert np.array_equal(got.array, naive_contract(words, d))

    def test_matches_naive_oracle_on_crossing_links(self, monkeypatch):
        # no reduction crosses its links, but a library caller's diagram may: then a
        # merge contracts axes in the middle of its parts, and a link whose ends a
        # merge has joined is a trace
        moved, traces = [], []
        real_dot, real_trace = tensor._tensordot, np.trace

        def dot_spy(a, ia, b, ib):
            moved.append(sorted(ia) != list(range(a.ndim - len(ia), a.ndim)))
            return real_dot(a, ia, b, ib)

        monkeypatch.setattr(tensor, "_tensordot", dot_spy)
        monkeypatch.setattr(np, "trace", lambda *a, **k: traces.append(1) or real_trace(*a, **k))
        rng = np.random.default_rng(26)
        spaces = {"n": 2, "s": 3}
        for _ in range(150):
            words, d = _random_diagram(rng, spaces)
            assert np.array_equal(compose(words, d).array, naive_contract(words, d))
        assert any(moved) and traces

    def test_linear_in_each_word(self):
        rng = np.random.default_rng(23)
        types = [parse_type("n"), parse_type("n.r s n.l"), parse_type("n")]
        words = _random_words(rng, types)
        (d,) = reduce(types, atom("s"))
        base = compose(words, d).array
        for k in range(3):
            scaled = list(words)
            scaled[k] = TypedTensor(words[k].type, 2.5 * words[k].array)
            assert np.allclose(
                compose(scaled, d).array, 2.5 * base, rtol=1e-12, atol=1e-12
            )

    def test_size_mismatch(self):
        v = TypedTensor(atom("n"), np.zeros(4))
        d = ReductionDiagram((), (0, 1), 2)
        with pytest.raises(ContractionError):
            compose([v], d)

    def test_non_cancelling_link(self):
        a = TypedTensor(atom("n"), np.zeros(4))
        b = TypedTensor(atom("n"), np.zeros(4))
        d = ReductionDiagram(((0, 1),), (), 2)
        with pytest.raises(ContractionError):
            compose([a, b], d)

    def test_dimension_mismatch_on_link(self):
        a = TypedTensor(atom("n"), np.zeros(4))
        b = TypedTensor(atom("n", 1), np.zeros(3))
        d = ReductionDiagram(((0, 1),), (), 2)
        with pytest.raises(ContractionError):
            compose([a, b], d)

    @pytest.mark.parametrize("order", [None, *itertools.permutations(range(2))])
    def test_every_schedule_names_the_lowest_bad_link(self, order):
        # n (s s) n: both links join non-cancelling factors; innermost-first reaches (2, 3)
        # first, but every link is checked, in ascending order, before any merge, however
        # the diagram lists its links (order None keeps the listing as given)
        words = [TypedTensor(parse_type(t), np.zeros((2,) * len(t.split())))
                 for t in ("n s", "s n")]
        links = ((0, 3), (1, 2))
        if order is not None:
            links = tuple(links[k] for k in order)
        d = ReductionDiagram(links, (), 4)
        with pytest.raises(ContractionError) as info:
            compose(words, d)
        assert str(info.value) == "link (1, 4) joins non-cancelling factors 'n' and 'n'"

    def test_schedule_never_moves_an_axis(self, monkeypatch):
        # innermost-first: each merge contracts the last axes of the part holding the
        # links' left ends against the first axes of the other part, so no operand is
        # transposed into a copy; checked on random planar diagrams and the ditransitive
        merges, real = [], tensor._tensordot

        def spy(a, ia, b, ib):
            merges.append((a.ndim, list(ia), list(ib)))
            return real(a, ia, b, ib)

        monkeypatch.setattr(tensor, "_tensordot", spy)
        rng = np.random.default_rng(5)
        spaces = {"n": 2, "s": 2, "theta": 2, "rho": 2}
        cases = [([atom("n"), parse_type("n.r s n.l n.l"), atom("n"), atom("n")], atom("s"))]
        cases += [(inverse_reduce_sequence(rng, [atom("s")[0]]), atom("s")) for _ in range(300)]
        for types, target in cases:
            words = _random_words(rng, types, spaces)
            for d in reduce(types, target):
                assert np.array_equal(compose(words, d).array, naive_contract(words, d))
        assert len(merges) > 300
        for ndim, ia, ib in merges:
            k = len(ia)
            if k == 1:
                assert (ia, ib) == ([ndim - 1], [0])
            assert sorted(ia) == list(range(ndim - k, ndim)) and sorted(ib) == list(range(k))

    def test_nested_links_between_two_words_merge_at_once(self, monkeypatch):
        # theta n.l^40 against n^40: one tensordot over all 40 links, where one link at
        # a time made a 79-axis part, past numpy's axis limit (64 in numpy 2)
        merges, real = [], tensor._tensordot
        monkeypatch.setattr(tensor, "_tensordot", lambda *args: merges.append(args) or real(*args))
        a = TypedTensor(parse_type("theta" + " n.l" * 40), np.full((1,) * 41, 2.0))
        b = TypedTensor(parse_type(" ".join(["n"] * 40)), np.full((1,) * 40, 3.0))
        (d,) = reduce([a.type, b.type], atom("theta"))
        out = compose([a, b], d)
        assert out.array.tolist() == [6.0] and len(merges) == 1

    def test_merge_past_the_element_limit_raises_before_allocating(self, monkeypatch):
        # s^15 n.l against n s^15 at d = 2: the answer itself holds 2**30 elements,
        # so no schedule could compute it
        merges = []
        monkeypatch.setattr(tensor, "_tensordot", lambda *args: merges.append(args))
        words = [TypedTensor(parse_type(t), np.ones((2,) * 16))
                 for t in ("s " * 15 + "n.l", "n" + " s" * 15)]
        d = ReductionDiagram(((15, 16),), (*range(15), *range(17, 32)), 32)
        with pytest.raises(ContractionError) as info:
            compose(words, d)
        assert str(info.value) == ("cannot contract link (16, 17): the result would hold "
                                   f"{2**30} elements, past the limit of {2**28}")
        assert merges == [] and tensor.MAX_ELEMENTS == 2**28

    def test_fold_past_the_element_limit_raises_before_allocating(self, monkeypatch):
        monkeypatch.setattr(np, "multiply", SimpleNamespace(outer=_no_memory))
        w = TypedTensor(PregroupType(atom("n").factors * 17), np.ones((2,) * 17))
        with pytest.raises(ContractionError) as info:
            compose([w, w], ReductionDiagram((), tuple(range(34)), 34))
        assert str(info.value) == ("cannot fold the unlinked parts: the result would hold "
                                   f"{2**34} elements, past the limit of {2**28}")


class TestDitransitiveBracketing:
    def test_orders_agree(self):
        # subject (verb expecting two objects) object object: compose against
        # both epsilon_contract bracketings, subject first and objects first
        rng = np.random.default_rng(31)
        n, s = atom("n"), atom("s")
        types = [n, n.r @ s @ n.l @ n.l, n, n]
        for dim in (2, 3, 5):
            spaces = {"n": dim, "s": dim}
            subj, verb, obj1, obj2 = words = _random_words(rng, types, spaces)
            (d,) = reduce(types, s)
            ref = compose(words, d)
            subject_first = epsilon_contract(
                epsilon_contract(epsilon_contract(subj, 0, verb, 0), 2, obj1, 0), 1, obj2, 0)
            objects_first = epsilon_contract(
                subj, 0, epsilon_contract(epsilon_contract(verb, 3, obj1, 0), 2, obj2, 0), 0)
            for alt in (subject_first, objects_first):
                assert alt.type == ref.type == s
                assert np.array_equal(alt.array, ref.array)  # integer data: exact


class TestJsonRoundTrip:
    def test_round_trip_bitwise(self):
        rng = np.random.default_rng(41)
        for shape in ((), (3,), (2, 4), (2, 3, 2)):
            arr = rng.standard_normal(shape)
            blob = json.dumps(tensor_to_json(arr))
            back = tensor_from_json(json.loads(blob))
            assert back.shape == arr.shape
            assert np.array_equal(back, arr)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            tensor_from_json({"shape": [2, 2], "data": [1.0, 2.0, 3.0]})

    @pytest.mark.parametrize(
        "arr",
        [
            np.array([0.0, -0.0, 5e-324, -2.2250738585072e-308, 1e308, -1e308, 0.1]),
            np.array([[1.5, -0.0], [np.inf, np.nan]]),
            np.array([0.1, -0.0, 1e-45, 3.4e38], dtype=np.float32),
            np.array([[0, -7], [2**53 + 1, -(2**62) - 1]]),
            np.array(-0.0),
            np.array(3),
        ],
        ids=["float64", "float64-inf-nan", "float32", "int", "0d-float", "0d-int"],
    )
    def test_data_is_builtin_floats_bit_identical_to_per_element(self, arr):
        data = tensor_to_json(arr)["data"]
        assert all(type(x) is float for x in data)
        want = [float(x) for x in np.asarray(arr, dtype=np.float64).ravel()]
        assert [x.hex() for x in data] == [x.hex() for x in want]
        assert [x.hex() for x in data] == [float(x).hex() for x in arr.ravel()]

    @pytest.mark.parametrize(
        "obj, message",
        [
            ({"shape": [2], "data": [float("nan"), 1.0]}, "NaN or infinity"),
            ({"shape": [2], "data": [float("inf"), 1.0]}, "NaN or infinity"),
            ({"shape": [2], "data": [True, 1.0]}, "flat list of numbers"),
            ({"shape": [2], "data": [[1.0], [2.0]]}, "flat list of numbers"),
            ({"shape": [2], "data": "12"}, "flat list of numbers"),
            ({"shape": [2], "data": [10**400, 1]}, "out of float range"),
            ({"shape": [0], "data": []}, "bad shape"),
            ({"shape": [True, 2], "data": [1.0, 2.0]}, "bad shape"),
            ({"shape": 2, "data": [1.0, 2.0]}, "bad shape"),
            ({"shape": [2]}, "'shape' and 'data'"),
            ({"data": [1.0, 2.0]}, "'shape' and 'data'"),
            ([2], "'shape' and 'data'"),
        ],
    )
    def test_rejects_malformed_wire_form(self, obj, message):
        with pytest.raises(ValueError, match=message):
            tensor_from_json(obj)
