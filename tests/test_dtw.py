import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geostat import dtw
from geostat.classify import accuracy
from geostat.dtw import DTWConfig, dtw_distance, dtw_matrix, nn_dtw_classify


def dtw_oracle(a, b):
    """Full-matrix dynamic program, unconstrained."""
    n, m = len(a), len(b)
    d = np.full((n + 1, m + 1), np.inf)
    d[0, 0] = 0.0
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            cost = (a[i - 1] - b[j - 1]) ** 2
            d[i, j] = cost + min(d[i - 1, j], d[i, j - 1], d[i - 1, j - 1])
    return float(np.sqrt(d[n, m]))


def per_cell_reference(a, b, band_fraction=None):
    """One pair, one cell at a time, as the distance was first computed.

    Returns ``inf`` where the band cannot connect the two lengths.
    """
    x = np.asarray(a, dtype=float)
    z = np.asarray(b, dtype=float)
    n, m = x.size, z.size
    w = None if band_fraction is None else int(np.ceil(band_fraction * max(n, m)))
    prev = np.full(m, np.inf)
    for i in range(n):
        j_lo, j_hi = (0, m - 1) if w is None else (max(0, i - w), min(m - 1, i + w))
        cur = np.full(m, np.inf)
        cost_row = (x[i] - z[j_lo:j_hi + 1]) ** 2
        for j in range(j_lo, j_hi + 1):
            c = cost_row[j - j_lo]
            if i == 0 and j == 0:
                best = 0.0
            else:
                best = prev[j]  # (i-1, j)
                if j > 0:
                    if prev[j - 1] < best:
                        best = prev[j - 1]  # (i-1, j-1)
                    if cur[j - 1] < best:
                        best = cur[j - 1]  # (i, j-1)
            cur[j] = c + best
        prev = cur
    return float(np.sqrt(prev[m - 1]))


def mixed_length_series(seed=8):
    rng = np.random.default_rng(seed)
    return [np.cumsum(rng.normal(size=n)) for n in range(1, 41)]


class TestDTWMatrix:
    @pytest.mark.parametrize("band", [0.0, 0.1, 0.5, 1.0, None])
    def test_equals_per_cell_reference_exactly(self, band):
        series = mixed_length_series()
        cfg = DTWConfig(band)
        for q in series[::3]:
            want = np.array([per_cell_reference(q, t, band) for t in series])
            feasible = np.isfinite(want)
            got = dtw_matrix([q], [t for t, ok in zip(series, feasible) if ok], cfg)
            assert got.shape == (1, feasible.sum())
            assert np.array_equal(got[0], want[feasible])
            for t in (t for t, ok in zip(series, feasible) if not ok):
                with pytest.raises(ValueError, match="band half-width"):
                    dtw_distance(q, t, cfg)

    @pytest.mark.parametrize("band", [None, 1.0])
    def test_blocks_of_mixed_lengths_equal_reference(self, band, monkeypatch):
        series = mixed_length_series(9)
        queries, train = series[::4], series[1::3]
        want = np.array([[per_cell_reference(q, t, band) for t in train]
                         for q in queries])
        whole = dtw_matrix(queries, train, DTWConfig(band))
        # Three pairs per block, so blocks split query rows and mix lengths.
        monkeypatch.setattr(dtw, "DTW_BLOCK_ENTRIES", 3 * 41)
        blocked = dtw_matrix(queries, train, DTWConfig(band))
        assert np.array_equal(whole, want)
        assert np.array_equal(blocked, want)

    def test_one_infeasible_pair_rejects_the_matrix(self):
        with pytest.raises(ValueError, match="half-width 2 .* lengths 2 and 20"):
            dtw_matrix([np.zeros(20), np.zeros(2)], [np.zeros(20)], DTWConfig(0.1))

    def test_empty_collections(self):
        assert dtw_matrix([], [[1.0]]).shape == (0, 1)
        assert dtw_matrix([[1.0]], []).shape == (1, 0)

    def test_peak_memory_does_not_grow_with_pair_count(self, monkeypatch):
        monkeypatch.setattr(dtw, "DTW_BLOCK_ENTRIES", 400 * 51)
        rng = np.random.default_rng(10)
        train = [rng.normal(size=50) for _ in range(10)]

        def transient_peak(n_queries):
            queries = [rng.normal(size=50) for _ in range(n_queries)]
            tracemalloc.start()
            try:
                d = dtw_matrix(queries, train, DTWConfig(0.2))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            return peak - d.nbytes

        small = transient_peak(80)
        large = transient_peak(640)
        # Beside the result, each query adds only a list slot; computing
        # all pairs at once would make ``large`` 8x ``small``.
        assert large < 1.1 * small


class TestDTWDistance:
    def test_identity_is_zero(self):
        for x in ([1.0], [0, 1, 2], np.sin(np.arange(20))):
            assert dtw_distance(x, x) == 0.0

    def test_hand_alignment(self):
        assert dtw_distance([0, 0, 1], [0, 1]) == 0.0

    def test_band_zero_equals_euclidean(self):
        a, b = [1.0, 2.0, 3.0], [4.0, 6.0, 8.0]
        expected = np.sqrt(sum((x - y) ** 2 for x, y in zip(a, b)))
        assert dtw_distance(a, b, DTWConfig(0.0)) == pytest.approx(expected)

    def test_more_hand_values(self):
        assert dtw_distance([0.0], [3.0]) == pytest.approx(3.0)
        assert dtw_distance([0, 3], [3.0]) == pytest.approx(3.0)
        # Alignment (1,1)(2,1)(3,2)(3,3): costs 1+0+0+1
        assert dtw_distance([1, 2, 3], [2, 3, 4]) == pytest.approx(np.sqrt(2))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            dtw_distance([], [1.0])

    def test_infeasible_band_rejected(self):
        with pytest.raises(ValueError):
            dtw_distance(np.zeros(10), np.zeros(2), DTWConfig(0.1))

    def test_matches_full_matrix_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            a = rng.normal(size=rng.integers(2, 15))
            b = rng.normal(size=rng.integers(2, 15))
            assert dtw_distance(a, b) == pytest.approx(dtw_oracle(a, b))

    def test_symmetry(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            a = rng.normal(size=10)
            b = rng.normal(size=13)
            assert dtw_distance(a, b) == pytest.approx(dtw_distance(b, a))

    def test_never_exceeds_euclidean_on_equal_lengths(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            a = rng.normal(size=18)
            b = rng.normal(size=18)
            assert dtw_distance(a, b) <= np.linalg.norm(a - b) + 1e-12

    @given(st.integers(0, 2**16))
    @settings(max_examples=40)
    def test_band_monotonicity(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=12)
        b = rng.normal(size=12)
        dists = [dtw_distance(a, b, DTWConfig(f))
                 for f in (0.0, 0.25, 0.5, 1.0)]
        dists.append(dtw_distance(a, b))
        for wide, narrow in zip(dists[1:], dists[:-1]):
            assert wide <= narrow + 1e-12


class TestNNDTW:
    def test_train_equals_test(self):
        series = [np.sin(np.linspace(0, 3, 30) + p) for p in (0, 1, 2)]
        labels = ["a", "b", "c"]
        pred = nn_dtw_classify(series, labels, series)
        assert accuracy(labels, pred) == 1.0

    def test_well_separated_classes(self):
        rng = np.random.default_rng(4)
        t = np.linspace(0, 1, 60)
        train, train_y, test, test_y = [], [], [], []
        for i in range(6):
            sine = np.sin(2 * np.pi * 3 * t) + rng.normal(0, 0.05, 60)
            sweep = np.sin(2 * np.pi * (2 * t + 4 * t**2)) + rng.normal(0, 0.05, 60)
            (train if i < 3 else test).append(sine)
            (train_y if i < 3 else test_y).append("sine")
            (train if i < 3 else test).append(sweep)
            (train_y if i < 3 else test_y).append("sweep")
        pred = nn_dtw_classify(train, train_y, test)
        assert accuracy(test_y, pred) == 1.0

    def test_single_training_example(self):
        pred = nn_dtw_classify([[1.0, 2.0]], ["only"],
                               [[0.0, 0.0], [9.0, 9.0]])
        assert list(pred) == ["only", "only"]

    def test_tie_breaks_by_training_index(self):
        train = [[0.0, 0.0], [0.0, 0.0]]
        pred = nn_dtw_classify(train, ["first", "second"], [[0.0, 0.0]])
        assert pred[0] == "first"

    @pytest.mark.parametrize("pairs_per_block", [1, 2, 3, 5])
    def test_tie_break_across_blocks(self, pairs_per_block, monkeypatch):
        # Blocks hold pairs_per_block x (longest length + 1) entries.
        monkeypatch.setattr(dtw, "DTW_BLOCK_ENTRIES", pairs_per_block * 5)
        near, far = [0.0, 1.0, 0.0], [5.0, 5.0, 5.0]
        train = [far, near, far, near, near]
        labels = ["far", "first", "far", "second", "third"]
        queries = [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0, 0.0], [5.0, 5.0]]
        pred = nn_dtw_classify(train, labels, queries)
        assert list(pred) == ["first", "first", "far"]

    def test_empty_train_rejected(self):
        with pytest.raises(ValueError):
            nn_dtw_classify([], [], [[1.0]])
