"""One exact transform path: warm one-shots map the skyline, twins stay exact.

A *sub-ulp twin* is a raw-dominated row whose float64 corner scores tie its
dominator's, e.g. ``(1e-300, .3, .3)`` next to ``(0, .3, .3)``.  The corner
skyline keeps both; the session's tie filter must drop the dominated one on
every path, whichever row set (every row, or the raw skyline) it mapped.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.baseline import eclipse_baseline_indices
from repro.core.query import EclipseQuery
from repro.core.session import DatasetSession
from repro.core.transform import eclipse_transform_indices, tie_filter_mask
from repro.core.weights import RatioVector
from repro.data.generators import generate_dataset
from repro.perf.blocking import DEFAULT_BLOCK_SIZE

TWIN_SPEC = (0.5, 2.0)
PATHS = ("cold", "warm", "transform", "quadtree", "cutting")


def twin_dataset() -> np.ndarray:
    """60 random rows plus two dominator/twin pairs at rows 60-63."""
    base = np.random.default_rng(0).uniform(0.2, 1.0, (60, 3))
    twins = np.array(
        [(0.0, 0.3, 0.3), (1e-300, 0.3, 0.3), (0.3, 0.0, 0.3), (0.3, 5e-324, 0.3)]
    )
    return np.vstack([base, twins])


def planted_twins(seed: int, n: int = 150, d: int = 3):
    """Random rows with planted sub-ulp twin groups (``d >= 3``), shuffled.

    Each group is a pair (dominator, raw-dominated twin) or a three-way tie
    ``a``, ``b``, ``c`` where ``a`` and ``c`` both dominate ``b`` and are
    incomparable with each other: ``a`` and ``c`` swap a sub-ulp offset
    between two ratio attributes, which leaves them eclipse-incomparable
    in exact arithmetic for every range with ``low < high``.  Returns the
    data and the positions of the dominated twins.
    """
    rng = np.random.default_rng(seed)
    rows = list(rng.uniform(0.2, 1.0, (n, d)))
    dominated = []
    for group in range(6):
        p = rng.uniform(0.0, 0.3, d)
        j, k = rng.choice(d - 1, size=2, replace=False)
        tiny = float(rng.choice([5e-324, 1e-300, 1e-200]))
        a = p.copy()
        a[j] = 0.0
        b = a.copy()
        b[j] = tiny
        if group % 2:
            a[k] = b[k] = tiny
            c = p.copy()
            c[j] = tiny
            c[k] = 0.0
            rows.extend([a, b, c])
            dominated.append(len(rows) - 2)
        else:
            rows.extend([a, b])
            dominated.append(len(rows) - 1)
    data = np.array(rows)
    order = rng.permutation(data.shape[0])
    inverse = np.argsort(order)
    return data[order], np.sort(inverse[dominated])


def answers(data: np.ndarray, specs):
    """(indices, point bytes) per spec, per path.

    The data fit one block-SFS block, so the second one-shot of the warm
    session finishes its paced skyline build and later ones map the skyline.
    """
    assert data.shape[0] <= DEFAULT_BLOCK_SIZE
    warm = DatasetSession(data)
    for spec in (specs * 2)[:2]:
        warm.run(spec)
    assert warm.stats.skyline_builds == 1
    out = {
        "cold": [DatasetSession(data).run(spec) for spec in specs],
        "warm": [warm.run(spec) for spec in specs],
    }
    for method in ("transform", "quadtree", "cutting"):
        out[method] = DatasetSession(data).run_batch(specs, method=method)
    return {
        path: [(r.indices.tolist(), r.points.tobytes()) for r in results]
        for path, results in out.items()
    }


def raw_dominated(data: np.ndarray, indices) -> list:
    """Result rows some dataset row strictly dominates in raw space."""
    return [
        int(i)
        for i in indices
        if np.any(np.all(data <= data[i], axis=1) & np.any(data < data[i], axis=1))
    ]


class TestTwinReproducer:
    def test_every_path_drops_the_dominated_twins(self):
        data = twin_dataset()
        got = answers(data, [TWIN_SPEC])
        for path in PATHS:
            assert got[path][0][0] == [60, 62], path
        assert len({got[path][0][1] for path in PATHS}) == 1

    def test_standalone_paper_function_keeps_the_twins(self):
        # TRAN compares float64 corner scores only, so it cannot tell the
        # twins apart; the session's tie filter is what removes them.
        data = twin_dataset()
        assert eclipse_transform_indices(data, TWIN_SPEC).tolist() == [60, 61, 62, 63]

    def test_facade_drops_the_twins_cold_and_warm(self):
        query = EclipseQuery(twin_dataset(), ratios=TWIN_SPEC)
        for _ in range(3):
            assert query.run().indices.tolist() == [60, 62]
        assert query.session.stats.skyline_builds == 1


class TestTwinFuzz:
    @pytest.mark.parametrize("seed", range(8))
    def test_all_paths_agree_and_drop_raw_dominated_twins(self, seed):
        data, dominated = planted_twins(seed, d=3 + seed % 2)
        d = data.shape[1]
        rng = np.random.default_rng(seed + 100)
        specs = [
            RatioVector.uniform(low, low + float(rng.uniform(0.1, 3.0)), d)
            for low in rng.uniform(0.05, 1.5, size=4)
        ]
        specs.append(RatioVector.from_bounds([0.0] * (d - 1), [2.0] * (d - 1)))
        got = answers(data, specs)
        for path in PATHS:
            assert got[path] == got["cold"], path
        diverged = 0
        for spec, (indices, _) in zip(specs, got["cold"]):
            assert not set(indices) & set(dominated.tolist())
            assert raw_dominated(data, indices) == []
            diverged += bool(
                set(eclipse_transform_indices(data, spec).tolist()) - set(indices)
            )
        # The planted ties must actually reach the filter on some spec.
        assert diverged > 0

    def test_three_way_tie_keeps_the_incomparable_member(self):
        a, b, c = (0.0, 1e-300, 0.3), (1e-300, 1e-300, 0.3), (1e-300, 0.0, 0.3)
        points = np.array([a, b, c, (0.5, 0.5, 0.5)])
        spec = RatioVector.uniform(0.5, 2.0, 3)
        scores = points @ spec.corner_weight_vectors().T
        assert np.array_equal(scores[0], scores[1])
        assert np.array_equal(scores[0], scores[2])
        assert tie_filter_mask(points, scores, spec).tolist() == [
            True, False, True, True
        ]
        for path, results in answers(points, [spec]).items():
            assert results[0][0] == [0, 2], path

    def test_duplicates_are_never_filtered(self):
        points = np.array([(0.1, 0.2, 0.3)] * 5 + [(0.1, 0.2, 0.3 + 1e-12)])
        spec = RatioVector.uniform(0.5, 2.0, 3)
        scores = points @ spec.corner_weight_vectors().T
        assert tie_filter_mask(points, scores, spec).tolist() == [True] * 6

    @pytest.mark.parametrize(
        "rows", ["aab", "aba", "baa", "abb", "bab"], ids=lambda rows: rows
    )
    def test_duplicates_inside_a_twin_group(self, rows):
        # However duplicates and twins interleave, every copy of the
        # dominator stays and every copy of its raw-dominated twin goes.
        a, b = (0.0, 0.3, 0.3), (1e-300, 0.3, 0.3)
        points = np.array([a if row == "a" else b for row in rows] + [(0.5, 0.5, 0.5)])
        spec = RatioVector.uniform(0.5, 2.0, 3)
        scores = points @ spec.corner_weight_vectors().T
        want = [row == "a" for row in rows] + [True]
        assert tie_filter_mask(points, scores, spec).tolist() == want

    def test_zero_upper_bound_skips_the_filter(self):
        # A zero weight at every corner hides the first attribute: the
        # twins are not eclipse-comparable, so both stay.
        points = np.array([(0.0, 0.3, 0.3), (1e-300, 0.3, 0.3)])
        spec = RatioVector.from_bounds([0.0, 0.5], [0.0, 2.0])
        scores = points @ spec.corner_weight_vectors().T
        assert tie_filter_mask(points, scores, spec).tolist() == [True, True]


def check_against_batch(session: DatasetSession, results) -> None:
    """Each one-shot result equals run_batch(transform) on a fresh session."""
    reference = DatasetSession(session.data.copy())
    want = reference.run_batch([r.ratios for r in results], method="transform")
    for got, expected in zip(results, want):
        assert got.indices.tolist() == expected.indices.tolist()
        assert got.points.tobytes() == expected.points.tobytes()
        assert got.method == "transform"


def uniform_specs(seed: int, count: int, d: int):
    rng = np.random.default_rng(seed)
    return [
        RatioVector.uniform(low, low + float(rng.uniform(0.2, 2.5)), d)
        for low in rng.uniform(0.1, 1.0, size=count)
    ]


class TestWarmUpRule:
    def test_second_one_shot_builds_a_one_block_skyline(self):
        data = generate_dataset("inde", DEFAULT_BLOCK_SIZE, 3, seed=0)
        specs = uniform_specs(3, 6, 3)
        session = DatasetSession(data)
        check_against_batch(session, [session.run(specs[0])])
        assert session.stats.skyline_builds == 0
        assert session.stats.corner_matrix_builds == 0
        check_against_batch(session, [session.run(specs[1])])
        assert session.stats.skyline_builds == 1
        check_against_batch(session, [session.run(spec) for spec in specs[2:]])
        assert session.stats.skyline_builds == 1
        assert session.stats.corner_matrix_builds == 4
        report = session.apply_updates(
            inserts=np.random.default_rng(4).uniform(0, 1, size=(4, 3)),
            deletes=[0, 1],
        )
        assert report.skyline_plan is not None and report.skyline_plan.inplace
        check_against_batch(session, [session.run(spec) for spec in specs])
        assert session.stats.skyline_builds == 1
        assert session.stats.skyline_inplace_updates == 1

    def test_paced_build_finishes_within_one_block_per_one_shot(self):
        # Each paced step screens at least one block, whatever the clock
        # says, so a 6-block skyline is built by the 7th one-shot at the
        # latest, and never twice.
        data = generate_dataset("anti", 6 * DEFAULT_BLOCK_SIZE - 100, 3, seed=1)
        specs = uniform_specs(5, 7, 3)
        session = DatasetSession(data)
        results = []
        for spec in specs:
            results.append(session.run(spec))
            assert session.stats.skyline_builds <= 1
        assert session.stats.skyline_builds == 1
        check_against_batch(session, results + [session.run(specs[0])])

    def test_paused_build_is_finished_not_redone(self):
        data = generate_dataset("anti", 3000, 3, seed=2)
        session = DatasetSession(data)
        session.run((0.5, 2.0))
        session._advance_skyline_build(0.0)  # exactly one block
        assert session.stats.skyline_builds == 0
        want = DatasetSession(data).skyline()
        assert session.skyline().tolist() == want.tolist()
        assert session.stats.skyline_builds == 1

    def test_update_finishes_a_paused_build_and_maintains_it(self):
        data = generate_dataset("anti", 3000, 3, seed=2)
        spec = (0.4, 1.8)
        session = DatasetSession(data)
        session.run(spec)
        session._advance_skyline_build(0.0)
        report = session.apply_updates(
            inserts=np.random.default_rng(6).uniform(0, 1, size=(5, 3)),
            deletes=[3, 7, 11],
        )
        assert report.skyline_plan is not None and report.skyline_plan.inplace
        assert session.stats.skyline_builds == 1
        assert session.stats.skyline_inplace_updates == 1
        check_against_batch(session, [session.run(spec)])
        assert session.stats.skyline_builds == 1

    def test_paused_build_survives_a_snapshot(self, tmp_path):
        data = generate_dataset("anti", 3000, 3, seed=2)
        session = DatasetSession(data)
        session.run((0.5, 2.0))
        session._advance_skyline_build(0.0)
        path = str(tmp_path / "session.snap")
        session.save_snapshot(path)
        restored, _ = DatasetSession.load_snapshot(path)
        assert restored.skyline().tolist() == DatasetSession(data).skyline().tolist()
        assert restored.stats.skyline_builds == 1

    def test_cached_skyline_serves_the_first_one_shot(self):
        data = generate_dataset("anti", 800, 3, seed=2)
        session = DatasetSession(data)
        session.run_batch([(0.5, 2.0)])
        session.run((0.3, 1.5))
        assert session.stats.skyline_builds == 1
        assert session.stats.corner_matrix_builds == 2


class TestZeroUpperBounds:
    @pytest.mark.parametrize(
        "lows, highs", [([0.0, 0.0], [0.0, 0.0]), ([0.0, 0.5], [0.0, 2.0])]
    )
    def test_run_stays_on_the_transformation(self, lows, highs):
        # No baseline fallback exists or is needed: the corner mapping
        # accepts zero bounds, and the answer equals the baseline's.
        data = generate_dataset("anti", 300, 3, seed=5)
        spec = RatioVector.from_bounds(lows, highs)
        session = DatasetSession(data)
        for _ in range(2):
            result = session.run(spec)
            assert result.method == "transform"
            assert result.indices.tolist() == eclipse_baseline_indices(data, spec).tolist()
        assert session.stats.skyline_builds == 0
