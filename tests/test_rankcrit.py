import numpy as np
import pytest

from ranksieve import (
    KernelSpec,
    Sample,
    kernel_weights,
    rank_criterion,
    rank_criterion_discrete_w,
    rank_criterion_pairwise,
    rank_criterion_weighted,
    rank_strict_less,
)

from oracles import (
    bruteforce_rank_criterion,
    bruteforce_rank_criterion_discrete_w,
    bruteforce_rank_criterion_pairwise,
    bruteforce_rank_criterion_weighted,
    bruteforce_rank_strict_less,
)


def _random_values(rng, n):
    """Half continuous, half coarsely rounded, so tie handling is exercised."""
    v = rng.normal(size=n)
    ties = rng.random(n) < 0.5
    v[ties] = np.round(v[ties], 1)
    return v


def _random_sample(rng, n, d_w=1):
    return Sample(
        y=rng.normal(size=n),
        z=rng.normal(size=(n, 2)),
        w=rng.normal(size=(n, d_w)),
    )


# --------------------------------------------------------------------------
# ranking
# --------------------------------------------------------------------------


def test_rank_examples():
    np.testing.assert_array_equal(rank_strict_less([3, 1, 2]), [2, 0, 1])
    np.testing.assert_array_equal(rank_strict_less([5, 5, 5]), [0, 0, 0])


def test_rank_matches_bruteforce_with_ties():
    rng = np.random.default_rng(0)
    for _ in range(100):
        v = _random_values(rng, int(rng.integers(1, 60)))
        np.testing.assert_array_equal(rank_strict_less(v), bruteforce_rank_strict_less(v))


def test_rank_bruteforce_medium_instance():
    rng = np.random.default_rng(1)
    v = _random_values(rng, 200)
    np.testing.assert_array_equal(rank_strict_less(v), bruteforce_rank_strict_less(v))


def test_rank_scale_invariance_and_negation():
    rng = np.random.default_rng(2)
    v = _random_values(rng, 80)
    np.testing.assert_array_equal(rank_strict_less(3.7 * v), rank_strict_less(v))
    greater = np.array([np.sum(v > vi) for vi in v])
    np.testing.assert_array_equal(rank_strict_less(-v), greater)


# --------------------------------------------------------------------------
# plain criterion
# --------------------------------------------------------------------------


def test_criterion_two_point_example():
    s = Sample(y=[1.0, 1.0], z=[[0.0], [1.0]])
    assert rank_criterion(s, [2.0, 1.0]) == 0.5


def test_criterion_constant_phi_is_zero():
    rng = np.random.default_rng(3)
    s = Sample(y=rng.normal(size=40), z=rng.normal(size=(40, 1)))
    assert rank_criterion(s, np.full(40, 2.5)) == 0.0


def test_criterion_matches_bruteforce():
    rng = np.random.default_rng(4)
    s = Sample(y=rng.normal(size=100), z=rng.normal(size=(100, 1)))
    phi = _random_values(rng, 100)
    assert rank_criterion(s, phi) == pytest.approx(bruteforce_rank_criterion(s, phi), abs=1e-12)


def test_criterion_linearity_in_y():
    rng = np.random.default_rng(5)
    n = 60
    y = rng.normal(size=n)
    z = rng.normal(size=(n, 1))
    phi = _random_values(rng, n)
    shift = 1.7
    base = rank_criterion(Sample(y=y, z=z), phi)
    shifted = rank_criterion(Sample(y=y + shift, z=z), phi)
    ranks = rank_strict_less(phi)
    assert shifted == pytest.approx(base + shift * np.mean(ranks) / (n - 1), rel=1e-12)


def test_criterion_requires_two_observations():
    s = Sample(y=[1.0], z=[[0.0]])
    with pytest.raises(ValueError):
        rank_criterion(s, [1.0])


def test_sample_validation():
    with pytest.raises(ValueError, match="non-finite"):
        Sample(y=[1.0, np.nan], z=[[0.0], [1.0]])
    with pytest.raises(ValueError, match="rows"):
        Sample(y=[1.0, 2.0], z=[[0.0], [1.0], [2.0]])
    assert Sample(y=[1.0, 2.0, 3.0], z=[0.0, 1.0, 2.0]).z.shape == (3, 1)
    with pytest.raises(ValueError, match="rows"):
        Sample(y=[1.0, 2.0, 3.0], z=[[0.0, 1.0, 2.0]])
    s = Sample(y=[1.0, 2.0], z=[[0.0], [1.0]])
    with pytest.raises(ValueError):
        s.y[0] = 9.0


# --------------------------------------------------------------------------
# monotone-transform invariance (all four variants, bit-identical)
# --------------------------------------------------------------------------

_TRANSFORMS = (
    lambda t: 2.0 * t + 1.0,
    np.tanh,
    np.arctan,
    lambda t: t**3,
)


def test_monotone_transform_invariance_all_variants():
    rng = np.random.default_rng(6)
    for i in range(100):
        n = int(rng.integers(5, 40))
        s = _random_sample(rng, n)
        phi = _random_values(rng, n)
        m = _TRANSFORMS[i % len(_TRANSFORMS)]
        w0 = s.w[0]
        uni = KernelSpec("uniform", [1.0])
        gau = KernelSpec("gaussian", [0.7])
        vals = (
            rank_criterion(s, phi),
            rank_criterion_discrete_w(s, phi, w0).value,
            rank_criterion_weighted(s, phi, w0, uni).value,
            rank_criterion_weighted(s, phi, w0, gau).value,
            rank_criterion_pairwise(s, phi, gau),
        )
        tvals = (
            rank_criterion(s, m(phi)),
            rank_criterion_discrete_w(s, m(phi), w0).value,
            rank_criterion_weighted(s, m(phi), w0, uni).value,
            rank_criterion_weighted(s, m(phi), w0, gau).value,
            rank_criterion_pairwise(s, m(phi), gau),
        )
        assert vals == tvals  # bit-identical


# --------------------------------------------------------------------------
# discrete-control variant
# --------------------------------------------------------------------------


def test_discrete_w_all_matching_equals_plain():
    rng = np.random.default_rng(7)
    n = 50
    s = Sample(y=rng.normal(size=n), z=rng.normal(size=(n, 1)), w=np.ones((n, 1)))
    phi = _random_values(rng, n)
    res = rank_criterion_discrete_w(s, phi, [1.0])
    assert not res.empty
    assert res.value == pytest.approx(rank_criterion(s, phi), abs=1e-15)


def test_discrete_w_empty_cell_flag():
    s = Sample(y=[1.0, 2.0], z=[[0.0], [1.0]], w=[[0.0], [0.0]])
    res = rank_criterion_discrete_w(s, [1.0, 2.0], [5.0])
    assert res.empty and res.value == 0.0 and res.n_used == 0


def test_discrete_w_matches_bruteforce():
    rng = np.random.default_rng(8)
    n = 100
    s = Sample(
        y=rng.normal(size=n),
        z=rng.normal(size=(n, 1)),
        w=rng.integers(0, 3, size=(n, 1)).astype(float),
    )
    phi = _random_values(rng, n)
    for w0 in ([0.0], [1.0], [2.0]):
        assert rank_criterion_discrete_w(s, phi, w0).value == pytest.approx(
            bruteforce_rank_criterion_discrete_w(s, phi, w0), abs=1e-12
        )


# --------------------------------------------------------------------------
# kernels
# --------------------------------------------------------------------------


def test_kernel_weight_values():
    uni = KernelSpec("uniform", [1.0])
    assert kernel_weights(uni, [[0.3]], [0.3])[0] == 1.0
    assert kernel_weights(uni, [[2.3]], [0.3])[0] == 0.0
    gau = KernelSpec("gaussian", [2.0])
    assert kernel_weights(gau, [[1.0]], [0.0])[0] == pytest.approx(
        np.exp(-1.0 / 8.0) / np.sqrt(2 * np.pi), rel=1e-12
    )
    epa = KernelSpec("epanechnikov", [2.0])
    assert kernel_weights(epa, [[1.0]], [0.0])[0] == pytest.approx(0.75 * (1 - 0.25), rel=1e-12)
    assert kernel_weights(epa, [[2.5]], [0.0])[0] == 0.0
    # product over coordinates
    gau2 = KernelSpec("gaussian", [1.0, 2.0])
    expected = (np.exp(-0.5) / np.sqrt(2 * np.pi)) * (np.exp(-1.0 / 8.0) / np.sqrt(2 * np.pi))
    assert kernel_weights(gau2, [[1.0, 1.0]], [0.0, 0.0])[0] == pytest.approx(expected, rel=1e-12)


def test_kernel_validation():
    with pytest.raises(ValueError):
        KernelSpec("triangle", [1.0])
    with pytest.raises(ValueError):
        KernelSpec("uniform", [0.0])


# --------------------------------------------------------------------------
# weighted variant
# --------------------------------------------------------------------------


def test_weighted_all_inside_window_equals_plain():
    rng = np.random.default_rng(9)
    n = 60
    s = Sample(y=rng.normal(size=n), z=rng.normal(size=(n, 1)),
               w=rng.uniform(-0.4, 0.4, size=(n, 1)))
    phi = _random_values(rng, n)
    res = rank_criterion_weighted(s, phi, [0.0], KernelSpec("uniform", [1.0]))
    assert res.n_used == n
    assert res.value == pytest.approx(rank_criterion(s, phi), abs=1e-15)


def test_weighted_empty_window_flag():
    s = Sample(y=[1.0, 2.0, 3.0], z=[[0.0], [1.0], [2.0]], w=[[0.0], [0.1], [5.0]])
    res = rank_criterion_weighted(s, [1.0, 2.0, 3.0], [10.0], KernelSpec("uniform", [0.5]))
    assert res.empty and res.value == 0.0


def test_uniform_fast_path_equals_general_weighted_path():
    rng = np.random.default_rng(10)
    for _ in range(50):
        n = int(rng.integers(5, 80))
        s = _random_sample(rng, n)
        phi = _random_values(rng, n)
        w0 = rng.normal(size=1)
        spec = KernelSpec("uniform", [float(rng.uniform(0.3, 2.0))])
        fast = rank_criterion_weighted(s, phi, w0, spec)
        oracle = bruteforce_rank_criterion_weighted(s, phi, w0, spec)
        assert fast.value == pytest.approx(oracle, abs=1e-12)


def test_weighted_gaussian_matches_bruteforce():
    rng = np.random.default_rng(11)
    n = 100
    s = _random_sample(rng, n)
    phi = _random_values(rng, n)
    spec = KernelSpec("gaussian", [0.8])
    res = rank_criterion_weighted(s, phi, [0.2], spec)
    assert res.value == pytest.approx(
        bruteforce_rank_criterion_weighted(s, phi, [0.2], spec), abs=1e-12
    )


def test_weighted_two_dim_controls():
    rng = np.random.default_rng(12)
    n = 40
    s = _random_sample(rng, n, d_w=2)
    phi = _random_values(rng, n)
    spec = KernelSpec("epanechnikov", [0.9, 1.4])
    res = rank_criterion_weighted(s, phi, [0.0, 0.1], spec)
    assert res.value == pytest.approx(
        bruteforce_rank_criterion_weighted(s, phi, [0.0, 0.1], spec), abs=1e-12
    )


# --------------------------------------------------------------------------
# pairwise variant
# --------------------------------------------------------------------------


def test_pairwise_huge_bandwidth_equals_plain():
    rng = np.random.default_rng(13)
    n = 50
    s = _random_sample(rng, n)
    phi = _random_values(rng, n)
    val = rank_criterion_pairwise(s, phi, KernelSpec("uniform", [1e9]))
    assert val == pytest.approx(rank_criterion(s, phi), abs=1e-15)


def test_pairwise_tiny_bandwidth_is_zero():
    rng = np.random.default_rng(14)
    n = 50
    s = _random_sample(rng, n)
    phi = _random_values(rng, n)
    assert rank_criterion_pairwise(s, phi, KernelSpec("uniform", [1e-12])) == 0.0


def test_pairwise_matches_bruteforce():
    rng = np.random.default_rng(15)
    # n = 300 crosses the 256-row block boundary of the vectorized pair sums
    for n in (100, 300):
        s = _random_sample(rng, n)
        phi = _random_values(rng, n)
        for family, bw in (("gaussian", [0.8]), ("uniform", [1.2]), ("epanechnikov", [1.5])):
            spec = KernelSpec(family, bw)
            assert rank_criterion_pairwise(s, phi, spec) == pytest.approx(
                bruteforce_rank_criterion_pairwise(s, phi, spec), abs=1e-12
            )


def test_variants_require_controls():
    s = Sample(y=[1.0, 2.0], z=[[0.0], [1.0]])
    with pytest.raises(ValueError, match="controls"):
        rank_criterion_discrete_w(s, [1.0, 2.0], [0.0])
    with pytest.raises(ValueError, match="controls"):
        rank_criterion_weighted(s, [1.0, 2.0], [0.0], KernelSpec("uniform", [1.0]))
    with pytest.raises(ValueError, match="controls"):
        rank_criterion_pairwise(s, [1.0, 2.0], KernelSpec("uniform", [1.0]))


def test_variants_reject_wrong_control_dimension():
    rng = np.random.default_rng(16)
    n = 20
    phi = _random_values(rng, n)
    two = _random_sample(rng, n, d_w=2)
    one = _random_sample(rng, n)
    with pytest.raises(ValueError, match="control dimension"):
        rank_criterion_discrete_w(two, phi, [1.0])
    with pytest.raises(ValueError, match="control dimension"):
        rank_criterion_discrete_w(one, phi, [0.5, 0.5])
    with pytest.raises(ValueError, match="control dimension"):
        rank_criterion_pairwise(two, phi, KernelSpec("gaussian", [1.0]))
    with pytest.raises(ValueError, match="control dimension"):
        rank_criterion_pairwise(one, phi, KernelSpec("gaussian", [1.0, 2.0]))
    with pytest.raises(ValueError, match="control dimension"):
        rank_criterion_weighted(two, phi, [0.0], KernelSpec("uniform", [1.0, 1.0]))
