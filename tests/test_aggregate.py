import numpy as np
import pytest

from ranksieve import LocalEstimateSet, aggregate_lad, aggregate_ls

from oracles import lad_candidates, lad_loss, ls_loss


def _make_set(curves, weights=None):
    curves = np.atleast_2d(np.asarray(curves, dtype=float))
    grid = np.arange(curves.shape[1], dtype=float)[:, None]
    return LocalEstimateSet(grid=grid, curves=curves, weights=weights)


def test_single_curve_returned_unchanged():
    curve = np.array([1.0, -2.0, 3.5])
    est = _make_set([curve])
    np.testing.assert_array_equal(aggregate_ls(est), curve)
    np.testing.assert_array_equal(aggregate_lad(est), curve)


def test_ls_symmetry():
    c = np.array([1.0, 2.0, -3.0, 0.5])
    est = _make_set([c, -c])
    np.testing.assert_allclose(aggregate_ls(est), 0.0, atol=1e-15)


def test_lad_robust_to_outlier():
    est = _make_set([[1.0], [2.0], [100.0]])
    assert aggregate_lad(est)[0] == 2.0
    assert aggregate_ls(est)[0] == pytest.approx(103.0 / 3.0)


def test_lad_even_count_midpoint():
    est = _make_set([[1.0], [2.0], [3.0], [10.0]])
    assert aggregate_lad(est)[0] == 2.5


def test_weighted_ls_matches_scalar_minimization():
    scipy_opt = pytest.importorskip("scipy.optimize")
    rng = np.random.default_rng(0)
    curves = rng.normal(size=(5, 9))
    weights = np.array([0.5, 0.2, 0.1, 0.1, 0.1])
    est = _make_set(curves, weights=weights)
    agg = aggregate_ls(est)
    for j in range(curves.shape[1]):
        res = scipy_opt.minimize_scalar(
            lambda q: ls_loss(curves[:, j], weights, q),
            bounds=(curves[:, j].min() - 1, curves[:, j].max() + 1),
            method="bounded",
            options={"xatol": 1e-10},
        )
        assert agg[j] == pytest.approx(res.x, abs=1e-6)


def test_weighted_lad_matches_candidate_scan():
    rng = np.random.default_rng(1)
    for trial in range(20):
        n = int(rng.integers(1, 8))
        curves = rng.normal(size=(n, 5))
        w = rng.random(n)
        w /= w.sum()
        est = _make_set(curves, weights=w)
        agg = aggregate_lad(est)
        for j in range(5):
            best = min(lad_loss(curves[:, j], w, q) for q in lad_candidates(curves[:, j]))
            assert lad_loss(curves[:, j], w, agg[j]) <= best + 1e-12


def test_uniform_lad_matches_candidate_scan():
    rng = np.random.default_rng(2)
    curves = rng.normal(size=(6, 11))
    est = _make_set(curves)
    agg = aggregate_lad(est)
    w = np.full(6, 1.0 / 6.0)
    for j in range(11):
        best = min(lad_loss(curves[:, j], w, q) for q in lad_candidates(curves[:, j]))
        assert lad_loss(curves[:, j], w, agg[j]) <= best + 1e-12


def test_translation_and_scale_equivariance():
    rng = np.random.default_rng(3)
    curves = rng.normal(size=(7, 6))
    w = rng.random(7)
    w /= w.sum()
    est = _make_set(curves, weights=w)
    shifted = _make_set(curves + 4.2, weights=w)
    scaled = _make_set(2.5 * curves, weights=w)
    for agg in (aggregate_ls, aggregate_lad):
        np.testing.assert_allclose(agg(shifted), agg(est) + 4.2, atol=1e-12)
        np.testing.assert_allclose(agg(scaled), 2.5 * agg(est), atol=1e-12)


def test_lad_output_is_input_value_or_midpoint():
    rng = np.random.default_rng(4)
    curves = rng.normal(size=(8, 10))
    est = _make_set(curves)
    agg = aggregate_lad(est)
    for j in range(10):
        col = np.sort(curves[:, j])
        candidates = np.concatenate([col, 0.5 * (col[:-1] + col[1:])])
        assert np.min(np.abs(candidates - agg[j])) < 1e-12


def test_ls_equals_lad_on_identical_curves():
    curve = np.array([0.3, -1.0, 2.0])
    est = _make_set([curve, curve, curve])
    np.testing.assert_allclose(aggregate_ls(est), aggregate_lad(est), atol=1e-15)


def test_validation():
    with pytest.raises(ValueError, match="at least one"):
        LocalEstimateSet(grid=np.zeros((3, 1)), curves=np.zeros((0, 3)))
    with pytest.raises(ValueError, match="sum to 1"):
        _make_set([[1.0], [2.0]], weights=[0.6, 0.6])
    with pytest.raises(ValueError, match="non-negative"):
        _make_set([[1.0], [2.0]], weights=[1.5, -0.5])
    with pytest.raises(ValueError, match="length"):
        LocalEstimateSet(grid=np.zeros((3, 1)), curves=np.zeros((2, 4)))
