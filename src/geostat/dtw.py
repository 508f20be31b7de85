"""Dynamic-time-warping distance and a 1-nearest-neighbor baseline.

The distance is the classic dynamic program over monotone alignment paths
with steps (i-1, j), (i, j-1), (i-1, j-1), squared pointwise differences as
the local cost, and a square root applied to the accumulated total. An
optional diagonal band constrains how far the alignment may stray; widening
the band can only decrease the distance.

:func:`dtw_matrix` runs the program for blocks of zero-padded (query,
train) pairs one anti-diagonal at a time: every cell of a diagonal depends
only on the two diagonals before it, so each step fills one diagonal of
every pair in the block at once. Cells outside a pair's band cost ``inf``
and cells past its lengths never reach its result, so each reachable cell
does the same float operations as for one pair.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["DTWConfig", "dtw_distance", "dtw_matrix", "nn_dtw_classify"]

# Pairs go in blocks of this many entries divided by the longest length + 1,
# so each (length x pairs) buffer of a block holds about this many entries,
# 2 MB of float64.
DTW_BLOCK_ENTRIES = 1 << 18


@dataclass(frozen=True)
class DTWConfig:
    """Warping constraint: band half-width as a fraction of series length.

    ``band_fraction=None`` leaves the alignment unconstrained; ``0.0``
    restricts it to the diagonal, which on equal-length inputs reduces the
    distance to plain Euclidean distance.
    """

    band_fraction: float = None

    def __post_init__(self):
        if self.band_fraction is not None and not 0.0 <= self.band_fraction <= 1.0:
            raise ValueError("band_fraction must lie in [0, 1]")


def _band_width(cfg: DTWConfig, n: int, m: int) -> int:
    if cfg.band_fraction is None:
        return max(n, m)  # as wide as the longer series: no constraint
    w = int(np.ceil(cfg.band_fraction * max(n, m)))
    if w < abs(n - m):
        raise ValueError(
            f"band half-width {w} cannot connect series of lengths {n} and {m}")
    return w


def _pair_block(xs, zs, w) -> np.ndarray:
    """Distances of the pairs ``(xs[p], zs[p])`` under band half-widths
    ``w[p]``, each series zero-padded to a column of one array."""
    n, m = (np.array([s.size for s in group]) for group in (xs, zs))
    x, z = np.zeros((n.max(), n.size)), np.zeros((m.max(), m.size))
    for p, (a, b) in enumerate(zip(xs, zs)):
        x[:a.size, p], z[:b.size, p] = a, b
    reach = int(w.max())
    # One buffer per anti-diagonal i + j = d, three in rotation: row i + 1
    # holds cell (i, d - i), and row 0 of diagonal -2 is where paths start.
    older, old, cur = (np.full((x.shape[0] + 2, x.shape[1]), np.inf)
                       for _ in range(3))
    older[0] = 0.0
    out = np.empty(x.shape[1])
    for d in range(x.shape[0] + z.shape[0] - 1):
        # Rows i = lo..hi lie inside both series and within reach.
        lo = max(0, d - z.shape[0] + 1, (d - reach + 1) // 2)
        hi = min(x.shape[0] - 1, d, (d + reach) // 2)
        cost = (x[lo:hi + 1] - z[d - hi:d - lo + 1][::-1]) ** 2
        cost[np.abs(2 * np.arange(lo, hi + 1) - d)[:, None] > w] = np.inf
        # The next two diagonals read rows lo..hi + 2. Rows above hi + 1 hold
        # inf, as hi never falls, so only row lo, not written here, is
        # cleared of the value of three diagonals before.
        cur[lo] = np.inf
        # Candidates (i-1, j), (i-1, j-1) and (i, j-1), in that order.
        cur[lo + 1:hi + 2] = cost + np.minimum(
            np.minimum(old[lo:hi + 1], older[lo:hi + 1]), old[lo + 1:hi + 2])
        last = n + m - 2 == d
        out[last] = cur[n[last], last]
        older, old, cur = old, cur, older
    return np.sqrt(out)


def dtw_matrix(queries, train, cfg: DTWConfig = DTWConfig()) -> np.ndarray:
    """``(len(queries), len(train))`` array of the alignment distances of
    nonempty scalar series whose lengths may differ. A band that cannot
    connect the lengths of some pair raises before any work is done."""
    queries = [np.asarray(s, dtype=float).reshape(-1) for s in queries]
    train = [np.asarray(s, dtype=float).reshape(-1) for s in train]
    if any(s.size == 0 for s in queries + train):
        raise ValueError("series must be nonempty")
    out = np.empty((len(queries), len(train)))
    longest = max((s.size for s in queries + train), default=0)
    widths = {(a, b): _band_width(cfg, a, b) for a in {s.size for s in queries}
              for b in {s.size for s in train}}
    step = max(1, DTW_BLOCK_ENTRIES // (longest + 1))
    for start in range(0, out.size, step):
        q, t = np.divmod(range(start, min(start + step, out.size)), len(train))
        xs, zs = [queries[k] for k in q], [train[k] for k in t]
        w = np.array([widths[a.size, b.size] for a, b in zip(xs, zs)])
        out.flat[start:start + len(xs)] = _pair_block(xs, zs, w)
    return out


def dtw_distance(a, b, cfg: DTWConfig = DTWConfig()) -> float:
    """Alignment distance between two nonempty scalar series (lengths may
    differ); the one-pair case of :func:`dtw_matrix`."""
    return float(dtw_matrix([a], [b], cfg)[0, 0])


def nn_dtw_classify(train_series, train_labels, test_series,
                    cfg: DTWConfig = DTWConfig()):
    """Label each test series by its nearest training series.

    Distance ties are broken by training index (the earliest wins), so the
    procedure is fully deterministic. Returns an array of predicted labels.
    """
    train_labels = np.array([str(v) for v in train_labels], dtype=object)
    if len(train_series) == 0:
        raise ValueError("training set is empty")
    if len(train_series) != len(train_labels):
        raise ValueError("training series and labels counts differ")
    return train_labels[dtw_matrix(test_series, train_series, cfg).argmin(axis=1)]
