import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conceptkit import numerics
from conceptkit.numerics import (
    KMEANS_BLOCK,
    DiscreteSampler,
    _kmeans_pp_init,
    _sq_distances,
    fd_gradcheck,
    kmeans,
    make_rng,
    sigmoid,
    softmax,
    softplus,
    substream_rng,
)


class TestSoftmax:
    def test_symmetry(self):
        np.testing.assert_allclose(softmax([0.0, 0.0]), [0.5, 0.5])
        np.testing.assert_allclose(softmax([5.0, 5.0, 5.0]), [1 / 3] * 3)

    def test_direct_value(self):
        # e^1 / (e^1 + e^0)
        np.testing.assert_allclose(
            softmax([1.0, 0.0]), [0.73105857863, 0.26894142137], atol=1e-9
        )

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            softmax([])

    def test_shift_invariance(self):
        v = np.array([1.0, -2.0, 0.3])
        np.testing.assert_allclose(softmax(v), softmax(v + 123.0), atol=1e-12)

    @given(st.integers(1, 64), st.integers(0, 10_000))
    @settings(max_examples=200, deadline=None)
    def test_sums_to_one(self, dim, seed):
        v = make_rng(seed).normal(size=dim) * 10
        assert abs(softmax(v).sum() - 1.0) < 1e-9


class TestSigmoidSoftplus:
    def test_basics(self):
        assert sigmoid(0.0) == 0.5
        assert abs(softplus(0.0) - np.log(2)) < 1e-12

    def test_saturation(self):
        assert sigmoid(-1000.0) == 0.0
        assert sigmoid(1000.0) == 1.0
        assert softplus(-1000.0) == 0.0
        assert abs(softplus(700.0) - 700.0) < 1e-9

    def test_branchwise_bits(self):
        # 1 / (1 + e^-x) at x >= 0 and e^x / (1 + e^x) below, elementwise,
        # bit for bit, whatever the shape
        x = np.concatenate([make_rng(3).normal(scale=s, size=500) for s in (0.1, 5, 300)])
        x = np.concatenate([x, [0.0, -0.0, 1e-320, -1e-320, 745.0, -745.0, np.inf, -np.inf]])
        want = [1.0 / (1.0 + np.exp(-v)) if v >= 0 else np.exp(v) / (1.0 + np.exp(v))
                for v in x]
        assert sigmoid(x).tolist() == want
        assert [sigmoid(v) for v in x] == want
        assert sigmoid(x.reshape(4, -1)).ravel().tolist() == want

    @given(st.floats(-50, 50))
    def test_complement(self, x):
        assert abs(sigmoid(x) + sigmoid(-x) - 1.0) < 1e-12

    @given(st.floats(-30, 30))
    def test_softplus_difference(self, x):
        assert abs(softplus(x) - softplus(-x) - x) < 1e-9


class TestDiscreteSampler:
    def test_degenerate(self):
        s = DiscreteSampler([1.0, 0.0])
        rng = make_rng(0)
        assert all(s.sample(rng) == 0 for _ in range(100))

    def test_all_zero_raises(self):
        with pytest.raises(ValueError):
            DiscreteSampler([0.0, 0.0])

    def test_uniform_frequencies(self):
        s = DiscreteSampler([1.0, 1.0])
        rng = make_rng(7)
        draws = [s.sample(rng) for _ in range(100_000)]
        f0 = draws.count(0) / len(draws)
        assert abs(f0 - 0.5) < 0.01

    def test_weighted_frequencies(self):
        s = DiscreteSampler([3.0, 1.0])
        rng = make_rng(11)
        draws = [s.sample(rng) for _ in range(100_000)]
        f0 = draws.count(0) / len(draws)
        assert abs(f0 - 0.75) < 0.01

    def test_large_support_frequencies(self):
        n = 2000
        w = np.ones(n)
        w[0] = n  # half of all draws should land on 0
        s = DiscreteSampler(w)
        rng = make_rng(3)
        draws = [s.sample(rng) for _ in range(100_000)]
        assert abs(draws.count(0) / len(draws) - 0.5) < 0.01

    def test_seed_reproducibility(self):
        s = DiscreteSampler([0.2, 0.5, 0.3])
        a = [s.sample(make_rng(42)) for _ in range(50)]
        b = [s.sample(make_rng(42)) for _ in range(50)]
        # same seed restarted each draw: degenerate but bit-stable
        assert a == b
        rng1, rng2 = make_rng(9), make_rng(9)
        assert [s.sample(rng1) for _ in range(500)] == [
            s.sample(rng2) for _ in range(500)
        ]

    @pytest.mark.parametrize(
        "weights",
        [
            [0.2, 0.5, 0.3],
            [0.0, 3.0, 0.0, 0.0, 1.0, 0.0],  # zeros repeat CDF values
            [0.0, 0.0, 1.0],
            [5.0, 0.0],
            [1.0] * 7 + [0.0] * 5 + [2.0] * 3,
            # more than 1,024 outcomes, with zeros
            np.where(np.arange(1033) % 7 == 0, 0.0, make_rng(4).random(1033)).tolist(),
        ],
    )
    def test_cdf_draws_match_searchsorted(self, weights):
        # one rng.random() per draw; index of the first CDF entry above it
        w = np.asarray(weights)
        cdf = np.cumsum(w / w.sum())
        cdf[-1] = 1.0
        s = DiscreteSampler(w)
        rng, ref = make_rng(17), make_rng(17)
        draws = [s.sample(rng) for _ in range(2000)]
        assert draws == [int(np.searchsorted(cdf, ref.random(), side="right"))
                         for _ in range(2000)]
        assert rng.random() == ref.random()

        class Fixed:  # a generator whose draws land exactly on CDF values
            def __init__(self, values):
                self.values = list(values)

            def random(self):
                return self.values.pop(0)

        ties = [u for u in [0.0, *cdf.tolist(), *np.nextafter(cdf, 0).tolist()] if u < 1.0]
        got = [s.sample(Fixed([u])) for u in ties]
        assert got == np.searchsorted(cdf, ties, side="right").tolist()
        assert [s.index(u) for u in ties] == got
        assert all(w[i] > 0 for i in got)

    @pytest.mark.parametrize(
        "weights",
        [[1.0, 1.0, 1.0], [0.0, 2.0, 0.0], [1.0], [0.0, 0.0, 4.0, 1.0], [3.0, 0.0]],
    )
    def test_can_reject_rule(self, weights):
        # rejection sampling of the observed index terminates exactly when
        # the weights have support > 1 or the observed weight is 0
        w = np.asarray(weights)
        s = DiscreteSampler(w)
        for i in range(len(w)):
            assert s.can_reject(i) == (np.count_nonzero(w) > 1 or w[i] == 0)

    def test_substreams_differ(self):
        a = substream_rng(7, "x").random(4)
        b = substream_rng(7, "y").random(4)
        assert not np.allclose(a, b)
        c = substream_rng(7, "x").random(4)
        np.testing.assert_array_equal(a, c)


def _record_objectives(monkeypatch):
    """The list that ``kmeans`` objectives are appended to, one per
    assignment pass, the final pass last: each ``_nearest`` call's summed
    squared distance."""
    objectives = []
    nearest = numerics._nearest

    def recording(points, sq_norms, centroids):
        assign, closest = nearest(points, sq_norms, centroids)
        objectives.append(float(closest.sum()))
        return assign, closest

    monkeypatch.setattr(numerics, "_nearest", recording)
    return objectives


class TestKmeans:
    def test_separated_clusters(self):
        pts = np.array([[0, 0], [0, 1], [10, 0], [10, 1]], dtype=float)
        assign = kmeans(pts, 2, 20, make_rng(0))
        assert assign[0] == assign[1]
        assert assign[2] == assign[3]
        assert assign[0] != assign[2]

    def test_k_equals_n(self, monkeypatch):
        pts = make_rng(1).normal(size=(6, 3))
        obj = _record_objectives(monkeypatch)
        assign = kmeans(pts, 6, 20, make_rng(2))
        assert len(set(assign.tolist())) == 6
        assert obj[-1] == 0.0

    def test_k_zero_raises(self):
        with pytest.raises(ValueError):
            kmeans(np.zeros((3, 2)), 0, 5, make_rng(0))

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_nonfinite_points_raise(self, bad, k):
        pts = make_rng(3).normal(size=(5, 2))
        pts[4, 1] = bad
        with pytest.raises(ValueError, match="points must be finite"):
            kmeans(pts, k, 5, make_rng(0))

    def test_objective_monotone(self, monkeypatch):
        pts = make_rng(5).normal(size=(60, 4))
        obj = _record_objectives(monkeypatch)
        kmeans(pts, 5, 30, make_rng(6))
        assert all(a >= b - 1e-9 for a, b in zip(obj, obj[1:]))

    def test_restart_oracle(self):
        # A single seeded run should be no worse than the best of many
        # random restarts by more than a small slack factor.
        pts = make_rng(8).normal(size=(50, 3))

        def wcss(assign):
            total = 0.0
            for j in set(assign.tolist()):
                members = pts[assign == j]
                total += ((members - members.mean(axis=0)) ** 2).sum()
            return total

        ours = wcss(kmeans(pts, 5, 50, make_rng(99)))
        best = min(
            wcss(kmeans(pts, 5, 50, make_rng(1000 + i))) for i in range(100)
        )
        assert ours <= best * 1.25


def _kmeans_longhand(points, k, max_iters, rng):
    """Lloyd's iterations with the whole n x k x d difference tensor."""
    n = points.shape[0]
    centroids = _kmeans_pp_init(points, k, rng)
    objectives, assign = [], None
    for _ in range(max_iters):
        d2 = ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        new_assign = d2.argmin(axis=1)
        objectives.append(float(d2[np.arange(n), new_assign].sum()))
        for j in range(k):
            members = points[new_assign == j]
            if len(members) == 0:
                centroids[j] = points[int(d2[np.arange(n), new_assign].argmax())]
            else:
                centroids[j] = members.mean(axis=0)
        if assign is not None and np.array_equal(new_assign, assign):
            break
        assign = new_assign
    d2 = ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    assign = d2.argmin(axis=1)
    objectives.append(float(d2[np.arange(n), assign].sum()))
    return assign, objectives


def _kmeans_points(case):
    if case == "lattice":
        # integer points on a 7 x 7 grid: centroids that are grid points or
        # midpoints leave points exactly equidistant from two of them, so
        # the best two distances differ by 0 and the exact distances decide
        return np.array([(x, y) for x in range(7) for y in range(7)], dtype=float)
    if case == "duplicates":
        return make_rng(12).normal(size=(6, 4))[make_rng(13).integers(6, size=40)]
    if case == "far":
        # ||x||^2 - 2 x.c + ||c||^2 cancels most digits here, so near ties
        # are common and only the tolerance keeps them on the exact path
        return make_rng(14).normal(size=(150, 3)) + 1e6
    assert case % KMEANS_BLOCK
    pts = make_rng(case).normal(size=(case, 5))
    pts[: case // 3] += 4.0
    return pts


@pytest.mark.parametrize(
    "case,k",
    [(2 * KMEANS_BLOCK + 13, 7), (KMEANS_BLOCK - 5, 3), ("lattice", 1), ("lattice", 4),
     ("lattice", 9), ("duplicates", 3), ("duplicates", 8), ("far", 6)],
)
def test_kmeans_blocks_match_longhand(case, k, monkeypatch):
    pts = _kmeans_points(case)
    fallback_rows = []

    def counted(points, centroids):
        fallback_rows.append(points.shape[0])
        return _sq_distances(points, centroids)

    monkeypatch.setattr(numerics, "_sq_distances", counted)
    obj = _record_objectives(monkeypatch)
    assign = kmeans(pts, k, 30, make_rng(k))
    want_assign, want_obj = _kmeans_longhand(pts, k, 30, make_rng(k))
    np.testing.assert_array_equal(assign, want_assign)
    assert obj == want_obj
    if case == "lattice" and k > 1:
        assert fallback_rows, "no row fell back to the exact distances"


def _pp_init_longhand(points, k, rng):
    """k-means++ seeding with a new ``DiscreteSampler`` per weighted draw;
    also returns how many draws fell back to uniform on a zero total."""
    n = points.shape[0]
    centroids = np.empty((k, points.shape[1]))
    centroids[0] = points[int(rng.integers(n))]
    d2 = np.sum((points - centroids[0]) ** 2, axis=1)
    uniform = 0
    for j in range(1, k):
        if d2.sum() <= 0:
            idx = int(rng.integers(n))
            uniform += 1
        else:
            idx = DiscreteSampler(d2).sample(rng)
        centroids[j] = points[idx]
        d2 = np.minimum(d2, np.sum((points - centroids[j]) ** 2, axis=1))
    return centroids, uniform


@pytest.mark.parametrize(
    "case,k",
    [(2 * KMEANS_BLOCK + 13, 7), (KMEANS_BLOCK - 5, 3), ("lattice", 9), ("duplicates", 3),
     ("duplicates", 8), ("far", 6)],
)
def test_pp_init_matches_sampler_longhand(case, k):
    pts = _kmeans_points(case)
    rng, want_rng = make_rng(k), make_rng(k)
    got = _kmeans_pp_init(pts, k, rng)
    want, uniform = _pp_init_longhand(pts, k, want_rng)
    np.testing.assert_array_equal(got, want)
    assert rng.bit_generator.state == want_rng.bit_generator.state
    if case == "duplicates" and k == 8:
        # six distinct points: the seventh draw finds every distance zero
        assert uniform > 0


class TestGradcheck:
    def test_quadratic(self):
        err = fd_gradcheck(
            lambda ps: float(ps[0][0] ** 2), [np.array([3.0])], [np.array([6.0])]
        )
        assert err < 1e-6

    def test_sigmoid_grad(self):
        err = fd_gradcheck(
            lambda ps: sigmoid(float(ps[0][0])),
            [np.array([0.0])],
            [np.array([0.25])],
        )
        assert err < 1e-6

    def test_eps_range(self):
        with pytest.raises(ValueError):
            fd_gradcheck(lambda ps: 0.0, [np.zeros(1)], [np.zeros(1)], eps=1e-2)

    def test_nonfinite_loss(self):
        with pytest.raises(ValueError):
            fd_gradcheck(
                lambda ps: float(np.log(ps[0][0])),
                [np.array([0.0])],
                [np.array([1.0])],
            )
