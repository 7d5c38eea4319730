import numpy as np
import pytest

from hypdiss.grids import (
    antipodal_expand,
    antipodal_fold,
    direction_major_grid,
    product_grid,
    radial_quadrature,
    unit_directions,
)


def _assert_fold(points, keep, src):
    # every row is its kept representative or that row's negation, the kept
    # rows are in order, represent themselves, and hold no pair
    kept = points[keep][src]
    assert np.all(np.all(kept == points, axis=1) | np.all(kept == -points, axis=1))
    assert np.all(np.diff(keep) > 0)
    assert np.array_equal(src[keep], np.arange(len(keep)))
    k = points[keep]
    same = np.all(k[:, None] == k[None], axis=2) | np.all(k[:, None] == -k[None], axis=2)
    assert np.array_equal(same, np.eye(len(keep), dtype=bool))


class TestAntipodalFold:
    @pytest.mark.parametrize("d, kept", [(1, 1), (2, 32), (3, 13)])
    def test_default_direction_sets_fold_in_half(self, d, kept):
        om, _ = unit_directions(d)
        keep, src = antipodal_fold(om)
        assert len(keep) == kept
        _assert_fold(om, keep, src)

    def test_frequency_stacks_fold_in_half(self):
        # r (-omega) = -(r omega) exactly, so the checker and decay stacks fold
        om, w = unit_directions(3)
        xi = direction_major_grid(om, np.logspace(-3, 3, 49))[0]
        keep, src = antipodal_fold(xi)
        assert len(keep) == 13 * 49
        _assert_fold(xi, keep, src)
        r, wr = radial_quadrature(1e-3, 1e2, 64, 3)
        xi = product_grid(om, w, r, wr)[0]
        keep, src = antipodal_fold(xi)
        assert len(keep) == 832
        _assert_fold(xi, keep, src)

    @pytest.mark.parametrize("count, kept", [(6, 3), (7, 7)])
    def test_equiangular_sets_of_even_and_odd_size(self, count, kept):
        om, _ = unit_directions(2, count)
        keep, src = antipodal_fold(om)
        assert len(keep) == kept
        _assert_fold(om, keep, src)

    def test_set_without_pairs_folds_nothing(self):
        pts = np.random.default_rng(3).normal(size=(9, 3))
        keep, src = antipodal_fold(pts)
        assert np.array_equal(keep, np.arange(9)) and np.array_equal(src, np.arange(9))

    def test_signed_zeros_are_equal(self):
        pts = np.array([[1.0, 0.0], [-1.0, -0.0], [-1.0, 0.0],
                        [0.0, 0.0], [-0.0, -0.0], [0.0, -0.0]])
        keep, src = antipodal_fold(pts)
        assert keep.tolist() == [0, 3] and src.tolist() == [0, 0, 0, 1, 1, 1]

    def test_pairs_are_matched_exactly(self):
        # one ulp off the negation is no pair
        pts = np.array([[0.3, 0.4], [-0.3, np.nextafter(-0.4, 0.0)], [-0.3, -0.4]])
        keep, src = antipodal_fold(pts)
        assert keep.tolist() == [0, 1] and src.tolist() == [0, 1, 0]

    def test_empty_stack(self):
        keep, src = antipodal_fold(np.zeros((0, 3)))
        assert keep.shape == (0,) and src.shape == (0,)

    @pytest.mark.parametrize("axis", [0, 1])
    def test_expand_conjugates_the_negated_rows(self, axis):
        # f(xi) = i a.xi + |xi|^2 has f(-xi) = conj f(xi) exactly; the
        # signed zeros are one row and are not conjugated
        rng = np.random.default_rng(5)
        pts = rng.normal(size=(7, 3))
        pts = np.concatenate([pts, -pts[:4], [[0.0, 0.0, 0.0], [-0.0, -0.0, -0.0]]])
        pts = pts[rng.permutation(len(pts))]
        a = rng.normal(size=3)

        def f(x):
            v = 1j * (x @ a) + np.sum(x * x, axis=1) + 0.0
            return np.stack([v, 2.0 * v], axis=1 - axis)

        keep, src = antipodal_fold(pts)
        assert len(keep) == 8
        assert np.array_equal(antipodal_expand(f(pts[keep]), pts, keep, src, axis=axis), f(pts))


def test_even_equiangular_set_is_exactly_antipodal():
    # cos(th + pi) used to differ from -cos(th) in the last bits, so 64
    # directions folded to 63
    om, w = unit_directions(2)
    assert np.array_equal(om[32:], -om[:32])
    np.testing.assert_allclose(np.linalg.norm(om, axis=1), 1.0, rtol=0, atol=1e-15)
    th = 2.0 * np.pi * np.arange(64) / 64
    np.testing.assert_allclose(om, np.stack([np.cos(th), np.sin(th)], axis=1), rtol=0, atol=1e-15)
    assert np.array_equal(w, np.full(64, 2.0 * np.pi / 64))
