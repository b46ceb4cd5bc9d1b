import itertools

import numpy as np
import pytest

from intonsem import frobenius
from intonsem.frobenius import (
    Spider,
    boundary_tensor,
    delta,
    delta_tensor,
    frobenius_condition_check,
    fuse,
    iota,
    mu,
    mu_tensor,
    spider,
    zeta,
)
from intonsem.pregroup import parse_type


class TestGenerators:
    def test_delta_example(self):
        assert np.array_equal(delta([1.0, 2.0]), np.array([[1.0, 0.0], [0.0, 2.0]]))

    def test_delta_rejects_matrix(self):
        with pytest.raises(ValueError):
            delta(np.zeros((2, 2)))

    def test_mu_example(self):
        assert np.array_equal(mu([[1.0, 2.0], [3.0, 4.0]]), np.array([1.0, 4.0]))
        assert np.array_equal(mu(np.eye(3)), np.ones(3))

    def test_mu_rejects_non_square(self):
        with pytest.raises(ValueError):
            mu(np.zeros((2, 3)))
        with pytest.raises(ValueError):
            mu(np.zeros(4))

    def test_iota_sums(self):
        assert iota([1.0, 2.0, 3.0]) == 6.0
        assert iota(np.zeros(5)) == 0.0

    def test_iota_rejects_matrix(self):
        with pytest.raises(ValueError, match="^iota expects a vector$"):
            iota(np.ones((2, 2)))

    def test_zeta_ones(self):
        assert np.array_equal(zeta(3), np.ones(3))
        with pytest.raises(ValueError):
            zeta(0)

    def test_merge_undoes_copy(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            v = rng.standard_normal(int(rng.integers(1, 9)))
            assert np.array_equal(mu(delta(v)), v)

    def test_merge_of_outer_is_pointwise_product(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            d = int(rng.integers(1, 9))
            u, v = rng.standard_normal(d), rng.standard_normal(d)
            assert np.array_equal(mu(np.outer(u, v)), u * v)

    def test_unit_laws_force_iota_and_zeta(self):
        # merging with the all-ones vector is the identity, and copying
        # then summing one output is the identity
        rng = np.random.default_rng(3)
        for d in range(1, 7):
            v = rng.standard_normal(d)
            assert np.array_equal(mu(np.outer(zeta(d), v)), v)
            assert np.array_equal(delta(v) @ zeta(d), v)
            assert iota(v) == pytest.approx(float(np.sum(v)))


class TestSpider:
    def test_identity(self):
        assert np.array_equal(spider(1, 1, 4), np.eye(4))

    def test_copy_and_merge_are_spiders(self):
        for d in range(1, 6):
            assert np.array_equal(delta_tensor(d), spider(1, 2, d))
            assert np.array_equal(mu_tensor(d), spider(2, 1, d))

    def test_single_leg_is_all_ones(self):
        assert np.array_equal(spider(0, 1, 3), np.ones(3))
        assert np.array_equal(spider(1, 0, 3), np.ones(3))

    def test_entries(self):
        t = spider(2, 2, 3)
        for idx in itertools.product(range(3), repeat=4):
            want = 1.0 if len(set(idx)) == 1 else 0.0
            assert t[idx] == want

    def test_applying_copy_tensor_matches_delta(self):
        rng = np.random.default_rng(4)
        v = rng.standard_normal(5)
        assert np.array_equal(np.tensordot(v, delta_tensor(5), axes=(0, 0)), delta(v))

    def test_contracting_merge_tensor_matches_mu(self):
        rng = np.random.default_rng(5)
        u, v = rng.standard_normal(4), rng.standard_normal(4)
        step = np.tensordot(u, mu_tensor(4), axes=(0, 0))
        assert np.array_equal(np.tensordot(v, step, axes=(0, 0)), u * v)

    def test_validation(self):
        with pytest.raises(ValueError):
            spider(0, 0, 3)
        with pytest.raises(ValueError):
            spider(-1, 2, 3)
        with pytest.raises(ValueError):
            spider(1, 1, 0)

    def test_symbolic_spider_needs_a_leg(self):
        with pytest.raises(ValueError, match="^a spider needs at least one leg$"):
            Spider(0, 0, 3)

    @pytest.mark.parametrize("legs, message", [
        ((-1, 2, 3), "leg counts must be non-negative"),
        ((2, -1, 3), "leg counts must be non-negative"),
        ((1, 1, 0), "dimension must be positive"),
    ])
    def test_symbolic_spider_rejects_what_spider_rejects(self, legs, message):
        for build in (Spider, spider):
            with pytest.raises(ValueError) as info:
                build(*legs)
            assert str(info.value) == message


class TestFuse:
    def test_symbolic_example(self):
        assert fuse(Spider(2, 2, 5), Spider(2, 3, 5), wires=2) == Spider(2, 3, 5)
        assert fuse(Spider(1, 2, 4), Spider(1, 1, 4)) == Spider(1, 2, 4)

    def test_closed_loop_is_dimension(self):
        assert fuse(Spider(0, 1, 7), Spider(1, 0, 7)) == 7.0
        assert fuse(Spider(0, 2, 4), Spider(2, 0, 4), wires=2) == 4.0

    def test_validation(self):
        with pytest.raises(ValueError):
            fuse(Spider(1, 1, 2), Spider(1, 1, 3))
        with pytest.raises(ValueError):
            fuse(Spider(1, 1, 2), Spider(1, 1, 2), wires=2)
        with pytest.raises(ValueError):
            fuse(Spider(1, 1, 2), Spider(1, 1, 2), wires=0)

    def test_matches_dense_contraction(self):
        # fusing along k wires equals contracting k output axes of the
        # first dense spider against k input axes of the second
        for dim in range(1, 4):
            for i1, o1, i2, o2 in itertools.product(range(3), repeat=4):
                if not (1 <= i1 + o1 <= 3 and 1 <= i2 + o2 <= 3):
                    continue
                for k in range(1, min(o1, i2) + 1):
                    a, b = spider(i1, o1, dim), spider(i2, o2, dim)
                    dense = np.tensordot(
                        a, b, axes=(list(range(i1 + o1 - k, i1 + o1)), list(range(k)))
                    )
                    got = fuse(Spider(i1, o1, dim), Spider(i2, o2, dim), wires=k)
                    if isinstance(got, float):
                        assert dense.shape == ()
                        assert float(dense) == got
                    else:
                        assert np.array_equal(
                            dense, spider(got.inputs, got.outputs, dim)
                        )
                        assert np.array_equal(dense, got.array())


class TestFrobeniusCondition:
    def test_holds_at_dims_one_to_eight(self):
        for dim in range(1, 9):
            assert frobenius_condition_check(dim)

    def test_fails_for_perturbed_copy(self, monkeypatch):
        d3 = delta_tensor(3).copy()
        d3[0, 0, 1] += 1e-3
        monkeypatch.setattr(frobenius, "delta_tensor", lambda dim: d3)
        assert not frobenius_condition_check(3)

    def test_fails_for_perturbed_merge(self, monkeypatch):
        m3 = mu_tensor(4).copy()
        m3[1, 2, 3] += 1e-3
        monkeypatch.setattr(frobenius, "mu_tensor", lambda dim: m3)
        assert not frobenius_condition_check(4)

    def test_composites_built_explicitly(self):
        # spell out (mu x 1)(1 x delta) with loops and compare
        dim = 3
        d3, m3 = delta_tensor(dim), mu_tensor(dim)
        left = np.zeros((dim,) * 4)
        for a, b, c, e in itertools.product(range(dim), repeat=4):
            left[a, b, c, e] = sum(m3[a, k, c] * d3[b, k, e] for k in range(dim))
        got = np.tensordot(m3, d3, axes=(1, 1)).transpose(0, 2, 1, 3)
        assert np.array_equal(left, got)


class TestBoundaryTensor:
    def test_types(self):
        assert boundary_tensor(3).type == parse_type("theta.r s rho.l")
        assert boundary_tensor(3, rheme_first=True).type == parse_type(
            "rho.r s theta.l"
        )

    def test_entries(self):
        t = boundary_tensor(2).array
        for i, k, j in itertools.product(range(2), repeat=3):
            assert t[i, k, j] == (1.0 if i == k == j else 0.0)

    def test_orientations_share_the_array(self):
        for d in (1, 2, 5):
            assert np.array_equal(
                boundary_tensor(d).array, boundary_tensor(d, rheme_first=True).array
            )

    def test_equals_caps_followed_by_merge(self):
        # two bent wires (eta x eta) with the middle pair merged:
        # B[i, m, j] = sum_{k, l} I[i, k] I[l, j] mu[k, l, m]
        for d in (1, 2, 3, 5):
            caps = np.tensordot(np.eye(d), np.eye(d), axes=0)  # [i, k, l, j]
            merged = np.tensordot(caps, mu_tensor(d), axes=([1, 2], [0, 1]))
            want = merged.transpose(0, 2, 1)  # [i, m, j]
            assert np.array_equal(boundary_tensor(d).array, want)

    def test_contraction_is_pointwise_product(self):
        theme = np.array([1.0, 2.0, 3.0])
        rheme = np.array([4.0, 0.0, 1.0])
        b = boundary_tensor(3).array
        step = np.tensordot(theme, b, axes=(0, 0))
        out = np.tensordot(step, rheme, axes=(1, 0))
        assert np.array_equal(out, np.array([4.0, 0.0, 3.0]))
