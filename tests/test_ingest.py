import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_track, write_ucr_dataset
from geostat import ingest
from geostat.geometry import build_stack
from geostat.ingest import (
    ACTIVE_SPEED_KNOTS,
    GAP_THRESHOLD_SECONDS,
    MIN_SEGMENT_POINTS,
    VESSEL_DISTRIBUTIONS,
    VESSEL_SMOOTHING_ITERATIONS,
    VESSEL_SUMMARY,
    VESSEL_WINDOW_SECONDS,
    ActiveSegment,
    SegmentSet,
    VesselTrack,
    binary_fishing_labels,
    filter_labels,
    load_ucr,
    load_vessels,
    parse_ucr_file,
    segment_vessel,
    vessel_feature_matrix,
    vessel_features,
)
from geostat.series import (
    TimeSeries,
    UniformSeries,
    laplacian_smooth,
    resample_uniform,
)
from geostat.stats import (
    MULTIVARIATE_QUANTILES,
    SphericalSample,
    SummaryConfig,
    frechet_mean_variance,
    summarize,
)


# ---------------------------------------------------------------------------
# loop-form references for the array-shaped vessel path
# ---------------------------------------------------------------------------

def reference_segment_vessel(track):
    """Per-sample loops over gap cuts and state changes."""
    if track.n_samples < 2:
        return SegmentSet((), (), (), (), 0.0)
    dts = np.diff(track.timestamps)
    gaps = []
    runs = []
    start = 0
    for i, dt in enumerate(dts):
        if dt >= GAP_THRESHOLD_SECONDS:
            gaps.append(float(dt))
            runs.append((start, i))
            start = i + 1
    runs.append((start, track.n_samples - 1))

    active = []
    inactive = []
    dropped = []
    for lo, hi in runs:
        if hi <= lo:
            continue
        states = track.speeds[lo:hi] >= ACTIVE_SPEED_KNOTS
        edges = [lo]
        for i in range(1, hi - lo):
            if states[i] != states[i - 1]:
                edges.append(lo + i)
        edges.append(hi)
        for k in range(len(edges) - 1):
            seg_lo, seg_hi = edges[k], edges[k + 1]
            span = float(track.timestamps[seg_hi] - track.timestamps[seg_lo])
            if not states[seg_lo - lo]:
                inactive.append(span)
                continue
            moving = int(np.sum(
                track.speeds[seg_lo:seg_hi + 1] >= ACTIVE_SPEED_KNOTS))
            if moving < MIN_SEGMENT_POINTS:
                dropped.append(span)
            else:
                sl = slice(seg_lo, seg_hi + 1)
                active.append(ActiveSegment(
                    timestamps=track.timestamps[sl],
                    lats=track.lats[sl],
                    lons=track.lons[sl],
                    shore_distances=track.shore_distances[sl],
                    port_distances=track.port_distances[sl]))
    return SegmentSet(tuple(active), tuple(inactive), tuple(gaps),
                      tuple(dropped), track.span)


def reference_window_means(segment):
    """One boolean mask and one 1-d mean per window and signal."""
    t, keep = np.unique(segment.timestamps, return_index=True)
    if t.size < 2 or t[-1] - t[0] <= 0:
        return None
    channels = np.column_stack([
        segment.lats[keep], segment.lons[keep],
        segment.shore_distances[keep], segment.port_distances[keep]])
    ts = TimeSeries(t, channels)
    duration = ts.duration
    m = max(ts.n_samples, int(np.ceil(duration / VESSEL_WINDOW_SECONDS)) + 1, 4)
    us_all = resample_uniform(ts, min_samples=m)
    pos = UniformSeries(us_all.start_time, us_all.step, us_all.values[:, :2])
    smooth = build_stack(pos, VESSEL_SMOOTHING_ITERATIONS)
    raw = build_stack(laplacian_smooth(pos, VESSEL_SMOOTHING_ITERATIONS), 0)

    rel = us_all.step * np.arange(us_all.n_samples)
    window_idx = np.minimum((rel / VESSEL_WINDOW_SECONDS).astype(int),
                            max(int(duration // VESSEL_WINDOW_SECONDS), 0))

    def window_means(arr):
        arr = np.asarray(arr, dtype=float)
        return np.array([arr[window_idx == w].mean()
                         for w in range(window_idx.max() + 1)])

    return np.array([window_means(x) for x in (
        smooth.base.values[:, 0], smooth.base.values[:, 1], smooth.speed,
        smooth.speed_deriv, smooth.curvature, raw.curvature,
        us_all.values[:, 2], us_all.values[:, 3])])


def reference_feature_row(seg, summary):
    """The earlier per-track features: one ``summarize`` call per
    distribution of one track, zeros for an empty one."""
    means, _ = ingest._window_means(list(seg.active))
    lat, lon, *pooled = means
    if lat.size:
        (m_lat, m_lon), var = frechet_mean_variance(SphericalSample(
            np.radians(lat), np.radians(lon)))
        values = [np.degrees(m_lat), np.degrees(m_lon), var]
    else:
        values = [0.0, 0.0, 0.0]
    durations = ([s.span for s in seg.active], seg.inactive_durations,
                 seg.gap_durations)
    for samples in pooled + [np.array(d) for d in durations]:
        if samples.size:
            values.extend(summarize(samples, summary).tolist())
        else:
            values.extend([0.0] * summary.size)
    return np.array(values)


def assert_same_segments(got, want):
    assert got.inactive_durations == want.inactive_durations
    assert got.gap_durations == want.gap_durations
    assert got.dropped_spans == want.dropped_spans
    assert got.total_span == want.total_span
    assert len(got.active) == len(want.active)
    for a, b in zip(got.active, want.active):
        for name in ("timestamps", "lats", "lons", "shore_distances",
                     "port_distances"):
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name))


def track_from(t, speeds, seed=0):
    """A track on timestamps ``t`` with random positions and distances."""
    rng = np.random.default_rng(seed)
    n = len(t)
    return VesselTrack("v", "x", np.asarray(t, dtype=float),
                       10.0 + np.cumsum(rng.normal(0, 0.01, n)),
                       20.0 + np.cumsum(rng.normal(0, 0.01, n)),
                       np.asarray(speeds, dtype=float),
                       rng.uniform(0, 5e4, n), rng.uniform(0, 1e5, n))


def random_track(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 300))
    dts = rng.choice([0.0, 60.0, 300.0, 600.0, 1800.0, 5399.0, 5400.0, 9000.0],
                     size=n - 1, p=[.05, .25, .3, .15, .1, .05, .05, .05])
    t = 1.6e9 + np.concatenate([[0.0], np.cumsum(dts)])
    speeds = rng.choice([0.0, 0.39, 0.4, 3.0, 9.0], size=n)
    return track_from(t, speeds, seed)


def moving_segment(t, seed=0):
    tr = track_from(t, np.full(len(t), 5.0), seed)
    return ActiveSegment(tr.timestamps, tr.lats, tr.lons,
                         tr.shore_distances, tr.port_distances)


def window_means(segments):
    """Per-segment window means from one batched pass (None: no windows)."""
    means, counts = ingest._window_means(list(segments))
    parts = np.split(means, np.cumsum(counts)[:-1], axis=1)
    return [part if c else None for part, c in zip(parts, counts)]


def assert_match_references(segments):
    got = window_means(segments)
    assert len(got) == len(segments)
    for seg, g in zip(segments, got):
        want = reference_window_means(seg)
        assert (g is None) == (want is None)
        if want is not None:
            assert g.shape == want.shape
            assert np.array_equal(g, want)


SEGMENT_CASES = {
    "repeated-timestamps": [0.0, 300.0, 300.0, 600.0, 600.0, 900.0, 1500.0],
    "exact-multiple-of-window": 300.0 * np.arange(9),  # 2400 s, 4 windows
    "shorter-than-window": [0.0, 100.0, 250.0, 400.0],
    "partial-last-window": 270.0 * np.arange(12),  # 2970 s: 4 full + 570 s
    "one-long-step": [0.0, 60.0, 120.0, 4000.0],
    "all-same-time": [5.0, 5.0, 5.0, 5.0],
    # 600-sample windows: long rows are summed pairwise in blocks.
    "dense-sampling": np.arange(1500.0),
    # start + (m - 1) * step misses the last timestamp; the grid ends on it.
    "inexact-grid-end": [548.8, 591.7, 1443.8, 1466.5, 1736.3, 2402.8,
                         2424.4, 2889.1, 2966.1],
}


class TestArrayVesselPath:
    @pytest.mark.parametrize("t", list(SEGMENT_CASES.values()),
                             ids=list(SEGMENT_CASES))
    def test_window_means_match_masked_reference(self, t):
        assert_match_references([moving_segment(t, seed=len(t))])

    @pytest.mark.parametrize("case, windows", [
        ("shorter-than-window", 1),
        ("partial-last-window", 5),
        # The final sample, at exactly 2400 s, is a window of its own.
        ("exact-multiple-of-window", 5),
    ])
    def test_window_count(self, case, windows):
        got, = window_means([moving_segment(SEGMENT_CASES[case])])
        assert got.shape == (8, windows)

    @pytest.mark.parametrize("reverse", [False, True],
                             ids=["forward", "reversed"])
    def test_all_cases_in_one_batch(self, reverse):
        # Every kind of segment boundary sits next to every other one.
        segments = [moving_segment(t, seed=len(t))
                    for t in SEGMENT_CASES.values()]
        assert_match_references(segments[::-1] if reverse else segments)

    @pytest.mark.parametrize("seed", range(40))
    def test_random_tracks_match_references(self, seed):
        track = random_track(seed)
        seg = segment_vessel(track)
        assert_same_segments(seg, reference_segment_vessel(track))
        assert_match_references(seg.active)

    @pytest.mark.parametrize("reverse", [False, True],
                             ids=["forward", "reversed"])
    def test_random_segments_in_one_batch(self, reverse):
        segments = [a for seed in range(40)
                    for a in segment_vessel(random_track(seed)).active]
        assert len(segments) > 40
        assert_match_references(segments[::-1] if reverse else segments)

    @pytest.mark.parametrize("field, index, value", [
        ("lats", 3, np.nan), ("port_distances", 0, np.inf),
        ("timestamps", 0, np.nan), ("timestamps", 3, 5000.0)])
    def test_bad_segment_rejected(self, field, index, value):
        seg = moving_segment(SEGMENT_CASES["partial-last-window"])
        arrays = {name: getattr(seg, name).copy() for name in (
            "timestamps", "lats", "lons", "shore_distances",
            "port_distances")}
        arrays[field][index] = value
        with pytest.raises(ValueError, match="finite and nondecreasing"):
            ingest._window_means([seg, ActiveSegment(**arrays)])

    def test_matrix_rows_equal_single_track_features(self):
        tracks = [random_track(seed) for seed in range(40)]
        tracks += [make_track([(12, 0.1)]),  # no active segment
                   make_track([(20, 5.0), (6, 0.1), (12, 3.0)])]
        fm = vessel_feature_matrix(tracks)
        for track, row in zip(tracks, fm.rows, strict=True):
            want, labels = vessel_features(segment_vessel(track))
            assert np.array_equal(row, want)
        assert fm.column_labels == tuple(labels)

    def test_matrix_rows_match_per_track_summaries(self):
        tracks = [random_track(seed) for seed in range(40)]
        tracks += [make_track([(12, 0.1)]),  # no active segment
                   make_track([(20, 5.0), (6, 0.1), (12, 3.0)],
                              gap=300.0),  # no gaps
                   make_track([(6, 5.0), (6, 0.1)], dt=60.0)]  # one window
        segs = [segment_vessel(t) for t in tracks]
        assert not segs[-3].active and not segs[-2].gap_durations
        assert window_means(segs[-1].active)[0].shape == (8, 1)
        fm = vessel_feature_matrix(tracks)
        for seg, row in zip(segs, fm.rows, strict=True):
            assert np.array_equal(row, reference_feature_row(
                seg, SummaryConfig(quantiles=MULTIVARIATE_QUANTILES)))

    # Steps at and either side of the gap threshold, repeated timestamps,
    # and speeds at and either side of the activity threshold.
    @given(st.lists(st.tuples(
        st.sampled_from([0.0, 300.0, 5399.0, 5400.0, 5401.0, 9000.0]),
        st.sampled_from([0.0, 0.39, 0.4, 0.41, 5.0])), min_size=1, max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_random_tracks_equal_loop_reference(self, steps):
        dts, speeds = zip(*steps)
        t = 1.6e9 + np.cumsum((0.0, *dts[1:]))
        track = track_from(t, speeds)
        assert_same_segments(segment_vessel(track),
                             reference_segment_vessel(track))

    @pytest.mark.parametrize("t, speeds", [
        ([0.0, 5400.0, 5700.0, 6000.0, 6300.0, 6600.0], [5.0] * 6),
        ([0.0, 5400.0, 10800.0, 16200.0], [5.0, 0.1, 5.0, 0.1]),
        ([0.0, 300.0, 6000.0, 12000.0, 12300.0], [0.1, 5.0, 5.0, 0.1, 5.0]),
        ([0.0, 300.0, 600.0, 900.0, 1200.0], [0.1] * 5),
        ([0.0, 0.0, 300.0, 300.0, 600.0, 900.0], [5.0, 0.1, 5.0, 5.0, 5.0, 5.0]),
        ([0.0, 300.0, 600.0, 900.0, 1200.0, 1500.0],
         [5.0, 0.1, 5.0, 0.1, 5.0, 0.1]),
    ], ids=["gap-exactly-5400", "every-step-a-gap", "single-sample-runs",
            "all-slow", "repeated-timestamps", "alternating-states"])
    def test_segments_match_loop_reference(self, t, speeds):
        track = track_from(t, speeds)
        assert_same_segments(segment_vessel(track),
                             reference_segment_vessel(track))


class TestParseUCR:
    def test_basic_row(self, tmp_path):
        path = tmp_path / "x.tsv"
        path.write_text("2\t0.1\t0.2\n")
        labels, series = parse_ucr_file(path)
        assert labels == ["2"]
        np.testing.assert_allclose(series[0], [0.1, 0.2])

    def test_row_count(self, tmp_path):
        path = tmp_path / "x.tsv"
        path.write_text("1\t0.0\t1.0\n2\t2.0\t3.0\n")
        labels, _ = parse_ucr_file(path)
        assert len(labels) == 2

    def test_missing_interior_value_interpolated(self, tmp_path):
        path = tmp_path / "x.tsv"
        path.write_text("1\t0.0\tNaN\t2.0\n")
        _, series = parse_ucr_file(path)
        np.testing.assert_allclose(series[0], [0.0, 1.0, 2.0])

    def test_missing_edge_value_held(self, tmp_path):
        path = tmp_path / "x.tsv"
        path.write_text("1\t?\t1.0\t2.0\t\n")
        _, series = parse_ucr_file(path)
        np.testing.assert_allclose(series[0], [1.0, 1.0, 2.0, 2.0])

    def test_comma_delimiter_autodetected(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("1,0.5,0.75\n")
        labels, series = parse_ucr_file(path)
        assert labels == ["1"]
        np.testing.assert_allclose(series[0], [0.5, 0.75])

    def test_bad_value_reports_line(self, tmp_path):
        path = tmp_path / "x.tsv"
        path.write_text("1\t0.0\n2\t0.0\toops\n")
        with pytest.raises(ValueError, match=r":2:"):
            parse_ucr_file(path)

    def test_row_at_once_matches_field_by_field(self, tmp_path):
        rows = [
            ["1", "0.5", "nan", "NaN", " 2.5 ", "1_000", "NAN", "-1e-3"],
            ["2", "?", "", "inf", "3", "-inf", "\t4", "+5"],
            ["3", " nan", "Infinity", "7", "8 ", "1_0.5", "9"],
            ["4", "1", "2", "3", "4", "5", "6"],
        ]
        path = tmp_path / "x.csv"
        path.write_text("".join(",".join(r) + "\n" for r in rows))
        labels, series = parse_ucr_file(path)
        assert labels == ["1", "2", "3", "4"]
        for line_no, (row, got) in enumerate(zip(rows, series), start=1):
            # The per-field loop every row went through before.
            raw = []
            for field in row[1:]:
                token = field.strip()
                raw.append(np.nan if token.lower() in {"", "nan", "?"}
                           else float(token))
            want = ingest._fill_missing(raw, str(path), line_no)
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("row, token, column", [
        ("1\t0.0\toops\t1.0", "oops", 3),
        ("1\t?\tNaN\t1.5\t1..5", "1..5", 5),
        ("1\t0.5\t1_\t", "1_", 3),
        ("1\t 1 2 \t3", "1 2", 2),
    ])
    def test_bad_value_names_token_and_column(self, tmp_path, row, token,
                                              column):
        path = tmp_path / "x.tsv"
        path.write_text("1\t0.0\t1.0\n" + row + "\n")
        with pytest.raises(ValueError) as err:
            parse_ucr_file(path)
        assert str(err.value) == (
            f"{path}:2: bad value {token!r} in column {column}")

    def test_unequal_lengths_allowed(self, tmp_path):
        path = tmp_path / "x.tsv"
        path.write_text("1\t0.0\t1.0\n2\t0.0\t1.0\t2.0\t3.0\n")
        _, series = parse_ucr_file(path)
        assert [len(s) for s in series] == [2, 4]

    def test_byte_order_mark_ignored(self, tmp_path):
        text = "1\t0.0\t1.0\n2\t2.0\t3.0\n"
        plain, marked = tmp_path / "plain.tsv", tmp_path / "marked.tsv"
        plain.write_text(text)
        marked.write_bytes(b"\xef\xbb\xbf" + text.encode())
        (labels, series), (want_labels, want_series) = (
            parse_ucr_file(marked), parse_ucr_file(plain))
        assert labels == want_labels == ["1", "2"]
        for got, want in zip(series, want_series):
            assert got.tobytes() == want.tobytes()


class TestLoadUCR:
    def test_loads_directory(self, tmp_path):
        d = write_ucr_dataset(tmp_path / "Toy", "Toy",
                              [("1", [0.0, 1.0, 2.0]), ("2", [5.0, 4.0, 3.0])],
                              [("1", [0.1, 1.1, 2.1])])
        ds = load_ucr(d)
        assert ds.name == "Toy"
        assert len(ds.train_series) == 2
        assert len(ds.test_series) == 1
        assert ds.train_labels == ("1", "2")
        assert ds.test_labels == ("1",)
        assert ds.equal_length

    def test_missing_split_rejected(self, tmp_path):
        (tmp_path / "Empty").mkdir()
        with pytest.raises(FileNotFoundError):
            load_ucr(tmp_path / "Empty")


class TestSegmentVessel:
    def test_gap_splits_and_is_recorded(self):
        track = make_track([(10, 5.0), (10, 5.0)], gap=6000.0)
        seg = segment_vessel(track)
        assert len(seg.active) == 2
        assert seg.gap_durations == (6000.0,)
        assert seg.inactive_durations == ()

    def test_all_slow_yields_one_inactive_period(self):
        track = make_track([(12, 0.1)])
        seg = segment_vessel(track)
        assert seg.active == ()
        assert len(seg.inactive_durations) == 1
        assert seg.inactive_durations[0] == pytest.approx(11 * 300.0)

    def test_short_active_run_dropped(self):
        # 3 moving samples between long stops: below the 4-timestamp floor.
        track = make_track([(6, 0.1)], gap=0)
        t = np.concatenate([track.timestamps,
                            track.timestamps[-1] + 300.0 * np.arange(1, 4),
                            track.timestamps[-1] + 300.0 * np.arange(4, 10)])
        speeds = np.concatenate([np.full(6, 0.1), np.full(3, 5.0),
                                 np.full(6, 0.1)])
        track = VesselTrack("v", "trawlers", t, np.full(15, 10.0),
                            np.full(15, 20.0), speeds, np.zeros(15),
                            np.zeros(15))
        seg = segment_vessel(track)
        assert seg.active == ()
        assert len(seg.dropped_spans) == 1

    def test_threshold_is_inclusive(self):
        speeds = np.array([0.4, 0.4, 0.4, 0.4, 0.4])
        t = 300.0 * np.arange(5)
        track = VesselTrack("v", "x", t, np.linspace(10, 10.1, 5),
                            np.full(5, 20.0), speeds, np.zeros(5), np.zeros(5))
        seg = segment_vessel(track)
        assert len(seg.active) == 1

    def test_gap_threshold_boundary(self):
        t = np.array([0.0, 5400.0, 5700.0])
        track = VesselTrack("v", "x", t, np.full(3, 10.0), np.full(3, 20.0),
                            np.full(3, 5.0), np.zeros(3), np.zeros(3))
        seg = segment_vessel(track)
        assert seg.gap_durations == (5400.0,)

    def test_conservation_of_time(self):
        rng = np.random.default_rng(0)
        for seed in range(5):
            rng = np.random.default_rng(seed)
            n = 60
            dts = rng.choice([120.0, 300.0, 900.0, 7000.0], size=n - 1)
            t = np.concatenate([[0.0], np.cumsum(dts)])
            speeds = rng.choice([0.1, 3.0], size=n)
            track = VesselTrack("v", "x", t, np.full(n, 10.0),
                                np.full(n, 20.0), speeds, np.zeros(n),
                                np.zeros(n))
            seg = segment_vessel(track)
            total = (sum(s.span for s in seg.active)
                     + sum(seg.inactive_durations)
                     + sum(seg.gap_durations)
                     + sum(seg.dropped_spans))
            assert total == pytest.approx(track.span)

    def test_deterministic(self):
        track = make_track([(10, 5.0), (8, 0.1), (10, 5.0)])
        a = segment_vessel(track)
        b = segment_vessel(track)
        assert a.gap_durations == b.gap_durations
        assert a.inactive_durations == b.inactive_durations
        assert [s.n_samples for s in a.active] == [s.n_samples for s in b.active]

    def test_single_sample_track_is_empty(self):
        track = VesselTrack("v", "x", [0.0], [10.0], [20.0], [5.0], [0.0], [0.0])
        seg = segment_vessel(track)
        assert seg.active == () and seg.total_span == 0.0


class TestFilterLabels:
    def test_unlabeled_removed(self):
        good = make_track([(10, 5.0), (6, 0.1)])
        bad = VesselTrack("v", "", good.timestamps, good.lats, good.lons,
                          good.speeds, good.shore_distances,
                          good.port_distances)
        assert filter_labels([good, bad]) == [good]

    def test_drop_list_removed(self):
        tracks = [make_track([(10, 5.0), (6, 0.1)], label=l)
                  for l in ("trawlers", "unknown", "gear_buoy", "other_fishing")]
        kept = filter_labels(tracks)
        assert [t.label for t in kept] == ["trawlers"]

    def test_always_active_no_gap_removed(self):
        lively = make_track([(20, 5.0)], gap=0)  # one run, always moving
        assert filter_labels([lively]) == []

    def test_track_with_gap_but_no_inactivity_kept(self):
        track = make_track([(10, 5.0), (10, 5.0)], gap=6000.0)
        assert filter_labels([track]) == [track]


class TestVesselFeatures:
    def test_schema_and_length(self):
        track = make_track([(20, 5.0), (6, 0.1), (12, 3.0)])
        vec, labels = vessel_features(segment_vessel(track))
        assert len(vec) == 3 + 9 * 16
        dists = []
        for d, _, _ in labels:
            if d not in dists:
                dists.append(d)
        assert tuple(dists) == VESSEL_DISTRIBUTIONS

    def test_near_constant_velocity_track_low_curvature(self):
        # Steady drift along the equator: tiny curvature at both scales.
        n = 200
        t = 300.0 * np.arange(n)
        track = VesselTrack("v", "x", t, np.zeros(n),
                            np.linspace(20.0, 21.0, n), np.full(n, 5.0),
                            np.zeros(n), np.zeros(n))
        vec, labels = vessel_features(segment_vessel(track))
        by_label = dict(zip(labels, vec))
        assert abs(by_label[("curvature", 0, "mean")]) < 1e-6
        assert abs(by_label[("curvature_raw", 0, "mean")]) < 1e-6
        assert by_label[("speed", 0, "std")] < 1e-6

    def test_inactive_duration_mean(self):
        seg = segment_vessel(make_track([(10, 5.0), (6, 0.1)]))
        vec, labels = vessel_features(seg)
        by_label = dict(zip(labels, vec))
        assert by_label[("inactive_duration", 0, "mean")] == pytest.approx(
            np.mean(seg.inactive_durations))

    def test_no_active_segments_zero_filled(self):
        seg = segment_vessel(make_track([(12, 0.1)]))
        vec, labels = vessel_features(seg)
        by_label = dict(zip(labels, vec))
        assert by_label[("position", 0, "frechet_var")] == 0.0
        assert by_label[("speed", 0, "mean")] == 0.0
        assert by_label[("inactive_duration", 0, "mean")] > 0

    def test_matrix_assembly(self):
        tracks = [make_track([(20, 5.0), (6, 0.1)], label="trawlers"),
                  make_track([(15, 3.0), (8, 0.1)], label="reefers")]
        fm = vessel_feature_matrix(tracks)
        assert fm.rows.shape == (2, 147)
        assert fm.labels == ("trawlers", "reefers")
        assert fm.column_labels[3:] == tuple(
            (d, 0, s) for d in VESSEL_DISTRIBUTIONS[1:]
            for s in VESSEL_SUMMARY.statistic_names)


class TestLoadVessels:
    def test_csv_roundtrip(self, tmp_path):
        path = tmp_path / "trawlers.csv"
        path.write_text(
            "mmsi,timestamp,lat,lon,speed,distance_from_shore,distance_from_port,label\n"
            "7,0,10.0,20.0,5.0,100,200,trawlers\n"
            "7,300,10.1,20.1,5.0,100,200,trawlers\n"
            "8,0,30.0,40.0,0.1,50,60,trawlers\n")
        tracks = load_vessels(path)
        assert [t.vessel_id for t in tracks] == ["7", "8"]
        assert tracks[0].n_samples == 2

    def test_byte_order_mark_ignored(self, tmp_path):
        # Read with the mark, the header's first name would not be "mmsi",
        # and every row would take the file's stem as its vessel id.
        text = (
            "mmsi,timestamp,lat,lon,speed,distance_from_shore,distance_from_port,label\n"
            "7,0,10.0,20.0,5.0,100,200,trawlers\n"
            "7,300,10.1,20.1,5.0,100,200,trawlers\n"
            "8,0,30.0,40.0,0.1,50,60,reefers\n")
        (tmp_path / "plain").mkdir()
        (tmp_path / "marked").mkdir()
        (tmp_path / "plain" / "x.csv").write_text(text)
        (tmp_path / "marked" / "x.csv").write_bytes(
            b"\xef\xbb\xbf" + text.encode())
        want = load_vessels(tmp_path / "plain")
        got = load_vessels(tmp_path / "marked")
        assert [(t.vessel_id, t.label) for t in got] == [
            (t.vessel_id, t.label) for t in want] == [
            ("7", "trawlers"), ("8", "reefers")]
        for a, b in zip(got, want):
            for name in ("timestamps", "lats", "lons", "speeds"):
                assert getattr(a, name).tobytes() == getattr(b, name).tobytes()

    def test_label_falls_back_to_file_stem(self, tmp_path):
        path = tmp_path / "purse_seines.csv"
        path.write_text(
            "mmsi,timestamp,lat,lon,speed,distance_from_shore,distance_from_port\n"
            "9,0,1.0,2.0,3.0,4,5\n")
        tracks = load_vessels(path)
        assert tracks[0].label == "purse_seines"

    def test_directory_of_files(self, tmp_path):
        for name in ("a.csv", "b.csv"):
            (tmp_path / name).write_text(
                "mmsi,timestamp,lat,lon,speed,distance_from_shore,distance_from_port\n"
                "1,0,1.0,2.0,3.0,4,5\n")
        assert len(load_vessels(tmp_path)) == 2

    def test_missing_column_rejected(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("mmsi,timestamp,lat,lon\n1,0,1.0,2.0\n")
        with pytest.raises(ValueError):
            load_vessels(path)

    def test_negative_speed_row_skipped(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text(
            "mmsi,timestamp,lat,lon,speed,distance_from_shore,distance_from_port\n"
            "1,0,1.0,2.0,3.0,4,5\n"
            "1,300,1.1,2.1,-1.0,4,5\n"
            "1,600,1.2,2.2,0.0,4,5\n")
        (track,) = load_vessels(path)
        np.testing.assert_array_equal(track.timestamps, [0.0, 600.0])
        np.testing.assert_array_equal(track.speeds, [3.0, 0.0])
        np.testing.assert_array_equal(track.lats, [1.0, 1.2])


class TestBinaryLabels:
    def test_maps_classes(self):
        out = binary_fishing_labels(["trawlers", "reefers"],
                                    {"trawlers": "fishing",
                                     "reefers": "non_fishing"})
        assert out == ("fishing", "non_fishing")

    def test_missing_entry_rejected(self):
        with pytest.raises(ValueError):
            binary_fishing_labels(["tug"], {"trawlers": "fishing"})

    def test_single_class_rejected(self):
        with pytest.raises(ValueError, match=r"classes \['fishing'\]"):
            binary_fishing_labels(["trawlers", "reefers"],
                                  {"trawlers": "fishing", "reefers": "fishing"})
