"""Ranking metrics against brute-force oracles and published value pairs."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wlat.metrics
from wlat.metrics import (
    AUC_CLAMP,
    RANK_BLOCK_VALUES,
    DegenerateClassError,
    auc,
    auc_to_dprime,
    average_precision,
    clamp_auc,
    evaluate,
    human_table,
    machine_lines,
    _rank_pass,
)
from wlat.rng import gaussian, new_rng

from oracles import AUC_DPRIME_PAIRS, oracle_auc, oracle_average_precision


def oracle_normal_cdf(x):
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def trapezoid_auc(scores, positive_mask):
    """Area under the ROC curve traced over descending score thresholds."""
    n_pos = int(sum(positive_mask))
    n_neg = len(scores) - n_pos
    points = [(0.0, 0.0)]
    for threshold in sorted(set(scores), reverse=True):
        tp = sum(1 for s, p in zip(scores, positive_mask) if p and s >= threshold)
        fp = sum(1 for s, p in zip(scores, positive_mask) if not p and s >= threshold)
        points.append((fp / n_neg, tp / n_pos))
    area = 0.0
    for (x0, y0), (x1, y1) in zip(points, points[1:]):
        area += (x1 - x0) * (y0 + y1) / 2.0
    return area


class TestAveragePrecision:
    def test_hand_computed_two_hits(self):
        scores = np.array([0.9, 0.8, 0.7, 0.6])
        assert abs(average_precision(scores, [0, 2]) - (1.0 + 2.0 / 3.0) / 2.0) < 1e-12

    def test_perfect_ranking_is_one(self):
        scores = np.array([0.9, 0.8, 0.2, 0.1])
        assert average_precision(scores, [0, 1]) == 1.0

    def test_degenerate_classes_raise(self):
        scores = np.zeros(3)
        with pytest.raises(DegenerateClassError) as err:
            average_precision(scores, [])
        assert err.value.reason == "no_positives"
        with pytest.raises(DegenerateClassError) as err:
            average_precision(scores, [0, 1, 2])
        assert err.value.reason == "no_negatives"

    @pytest.mark.parametrize("seed", range(200))
    def test_matches_brute_force_oracle(self, seed):
        rng = new_rng(seed)
        n = int(rng.integers(2, 13))
        scores = np.round(gaussian(rng, n), 1)  # coarse grid forces ties
        mask = rng.random(n) < 0.5
        if not mask.any():
            mask[0] = True
        if mask.all():
            mask[-1] = False
        expected = oracle_average_precision(scores.tolist(), mask.tolist())
        assert abs(average_precision(scores, np.flatnonzero(mask)) - expected) < 1e-12

    @pytest.mark.parametrize("positives", [[3], [-1], [0, 3], [-1, 1]])
    @pytest.mark.parametrize("metric", [average_precision, auc])
    def test_positive_index_out_of_range_is_refused(self, metric, positives):
        with pytest.raises(ValueError) as err:
            metric(np.array([0.3, 0.2, 0.1]), positives)
        assert str(err.value) == "positive index out of range for 3 scores"

    @pytest.mark.parametrize("positives", [[1, 1], [0, 2, 0]])
    @pytest.mark.parametrize("metric", [average_precision, auc])
    def test_duplicate_positive_indices_are_refused(self, metric, positives):
        with pytest.raises(ValueError) as err:
            metric(np.array([0.3, 0.2, 0.1]), positives)
        assert str(err.value) == "duplicate positive indices"

    def test_tied_scores_keep_input_order(self):
        # All scores equal: the stable order is the input order, so AP depends
        # only on the positions of the positives.
        scores = np.zeros(4)
        assert abs(average_precision(scores, [0]) - 1.0) < 1e-12
        assert abs(average_precision(scores, [3]) - 0.25) < 1e-12


class TestAuc:
    def test_hand_computed_three_quarters(self):
        scores = np.array([0.9, 0.4, 0.5, 0.1])
        assert abs(auc(scores, [0, 1]) - 0.75) < 1e-12

    def test_all_ties_give_half(self):
        assert abs(auc(np.ones(6), [0, 1, 2]) - 0.5) < 1e-12

    def test_degenerate_classes_raise(self):
        with pytest.raises(DegenerateClassError):
            auc(np.zeros(3), [])
        with pytest.raises(DegenerateClassError):
            auc(np.zeros(3), [0, 1, 2])

    @pytest.mark.parametrize("seed", range(200))
    def test_matches_pair_counting_oracle(self, seed):
        rng = new_rng(seed + 1000)
        n = int(rng.integers(2, 13))
        scores = np.round(gaussian(rng, n), 1)
        mask = rng.random(n) < 0.5
        if not mask.any():
            mask[0] = True
        if mask.all():
            mask[-1] = False
        expected = oracle_auc(scores.tolist(), mask.tolist())
        assert abs(auc(scores, np.flatnonzero(mask)) - expected) < 1e-12

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_trapezoidal_roc_area(self, seed):
        rng = new_rng(seed + 2000)
        n = int(rng.integers(4, 13))
        scores = np.round(gaussian(rng, n), 1)
        mask = rng.random(n) < 0.5
        if not mask.any():
            mask[0] = True
        if mask.all():
            mask[-1] = False
        expected = trapezoid_auc(scores.tolist(), mask.tolist())
        assert abs(auc(scores, np.flatnonzero(mask)) - expected) < 1e-12

    def test_constructed_ties_get_half_credit(self):
        # One positive tied with one negative, one clean win, one clean loss:
        # pairs contribute (1 + 0.5 + ...) per the tie rule.
        scores = np.array([0.7, 0.7, 0.9, 0.1])
        assert abs(auc(scores, [0, 2]) - (0.5 + 1.0 + 1.0 + 1.0) / 4.0) < 1e-12

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_monotone_transform_invariance(self, seed):
        rng = new_rng(seed)
        scores = gaussian(rng, 10)
        positives = [0, 3, 5]
        base = auc(scores, positives)
        squashed = auc(1.0 / (1.0 + np.exp(-3.0 * scores)), positives)
        assert abs(base - squashed) < 1e-12

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_negated_scores_complement(self, seed):
        rng = new_rng(seed)
        scores = gaussian(rng, 9)  # continuous draws, ties have measure zero
        positives = [1, 4]
        assert abs(auc(scores, positives) + auc(-scores, positives) - 1.0) < 1e-12


class TestDprime:
    def test_chance_is_zero(self):
        assert auc_to_dprime(0.5) == 0.0

    @pytest.mark.parametrize("value,expected", AUC_DPRIME_PAIRS)
    def test_published_pairs(self, value, expected):
        assert abs(auc_to_dprime(value) - expected) <= 0.01

    def test_tighter_spot_checks(self):
        assert abs(auc_to_dprime(0.9700) - 2.660) <= 0.005
        assert abs(auc_to_dprime(0.9388) - 2.185) <= 0.005
        assert abs(auc_to_dprime(0.9590) - 2.452) <= 0.010

    def test_antisymmetric_about_chance(self):
        for delta in (0.01, 0.1, 0.25, 0.4, 0.49):
            assert abs(auc_to_dprime(0.5 + delta) + auc_to_dprime(0.5 - delta)) < 1e-9

    def test_strictly_increasing(self):
        grid = np.linspace(0.01, 0.99, 197)
        values = [auc_to_dprime(float(v)) for v in grid]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_quantile_round_trip(self):
        for p in np.geomspace(1e-6, 0.5, 40):
            for q in (float(p), float(1.0 - p)):
                assert abs(oracle_normal_cdf(auc_to_dprime(q) / math.sqrt(2.0)) - q) < 1e-9

    def test_dprime_rejects_out_of_range(self):
        for bad in (-0.1, 1.1, float("nan")):
            with pytest.raises(ValueError):
                auc_to_dprime(bad)

    def test_clamp_behavior(self):
        clamped, flagged = clamp_auc(1.0)
        assert clamped == 1.0 - AUC_CLAMP
        assert flagged
        clamped, flagged = clamp_auc(0.0)
        assert clamped == AUC_CLAMP
        assert flagged
        clamped, flagged = clamp_auc(0.97)
        assert clamped == 0.97
        assert not flagged

    def test_clamp_rejects_out_of_range(self):
        for bad in (-0.01, 1.01, float("nan")):
            with pytest.raises(ValueError):
                clamp_auc(bad)


class TestEvaluate:
    def test_perfect_classifier(self):
        truth = np.array([[1, 0], [1, 0], [0, 1], [0, 1]], dtype=float)
        scores = truth * 0.8 + 0.1
        report = evaluate(scores, truth)
        assert report.mean_ap == 1.0
        assert report.mean_auc == 1.0
        assert all(m.dprime_clamped for m in report.class_metrics)
        assert np.isfinite(report.mean_dprime)

    def test_excludes_degenerate_classes(self):
        truth = np.array([[1, 1, 0], [0, 1, 0]], dtype=float)
        scores = np.array([[0.9, 0.5, 0.4], [0.2, 0.6, 0.3]])
        report = evaluate(scores, truth)
        assert [m.index for m in report.class_metrics] == [0]
        assert (1, "no_negatives") in report.excluded
        assert (2, "no_positives") in report.excluded
        assert report.n_included == 1

    def test_all_degenerate_gives_nan_aggregates(self):
        truth = np.ones((3, 2))
        report = evaluate(np.zeros((3, 2)), truth)
        assert report.n_included == 0
        assert math.isnan(report.mean_ap)
        assert math.isnan(report.mean_auc)
        assert math.isnan(report.mean_dprime)

    def test_aggregates_average_included_classes(self):
        rng = new_rng(5)
        scores = rng.random((10, 3))
        truth = (rng.random((10, 3)) < 0.4).astype(float)
        truth[0] = 1.0
        truth[1] = 0.0  # keep every class mixed
        report = evaluate(scores, truth)
        assert report.n_included == 3
        expected_aps = [
            oracle_average_precision(scores[:, k].tolist(), truth[:, k] > 0)
            for k in range(3)
        ]
        assert abs(report.mean_ap - np.mean(expected_aps)) < 1e-12
        expected_aucs = [
            oracle_auc(scores[:, k].tolist(), truth[:, k] > 0) for k in range(3)
        ]
        assert abs(report.mean_auc - np.mean(expected_aucs)) < 1e-12

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            evaluate(np.zeros((4, 3)), np.zeros((4, 2)))

    @pytest.mark.parametrize("scores,truth,message", [
        ([[0.5, np.nan], [0.5, 0.5]], [[1, 0], [0, 1]], "scores must be finite"),
        ([[0.5, np.inf], [0.5, 0.5]], [[1, 0], [0, 1]], "scores must be finite"),
        ([[0.5, 0.5], [0.5, 0.5]], [[1, 0], [0, 2]], "truth must be a 0/1 multi-hot matrix"),
        ([[0.5, 0.5], [0.5, 0.5]], [[1, 0], [0, 0.5]], "truth must be a 0/1 multi-hot matrix"),
        (np.empty((0, 2)), np.empty((0, 2)), "scores must be a nonempty 2-D array"),
        ([0.5, 0.5], [1, 0], "scores must be a nonempty 2-D array"),
    ], ids=["nan-score", "infinite-score", "truth-two", "truth-half", "empty-scores",
            "one-dimensional-scores"])
    def test_bad_scores_or_truth_rejected(self, scores, truth, message):
        with pytest.raises(ValueError, match=message):
            evaluate(np.array(scores), np.array(truth))

    def test_machine_lines_format(self):
        truth = np.array([[1, 0], [0, 1], [1, 0], [0, 1]], dtype=float)
        scores = new_rng(6).random((4, 2))
        report = evaluate(scores, truth)
        lines = machine_lines(report)
        assert len(lines) == 3
        for line, metrics in zip(lines, report.class_metrics):
            fields = line.split("\t")
            assert fields[0] == str(metrics.index)
            assert fields[1] == f"{metrics.ap:.6f}"
            assert fields[2] == f"{metrics.auc:.6f}"
            assert fields[3] == f"{metrics.dprime:.6f}"
            assert fields[4] == str(metrics.n_pos)
        mean_fields = lines[-1].split("\t")
        assert mean_fields[0] == "mean"
        assert mean_fields[1] == f"{report.mean_ap:.6f}"

    def test_human_table_mentions_exclusions_and_clamps(self):
        truth = np.array([[1, 1], [0, 1]], dtype=float)
        scores = np.array([[0.9, 0.4], [0.1, 0.6]])
        report = evaluate(scores, truth)
        table = human_table(report)
        assert "excluded" in table
        assert "no negatives" in table
        assert "*" in table  # class 0 is ranked perfectly, so its AUC clamps


def mixed_tie_matrix(seed, n):
    """Tie-free continuous columns between tied grid columns, one of them of +0.0, -0.0 and
    a few ones.  At 64 rows and more, a sort partitions rather than insertion-sorting, so
    an unstable one reorders ties."""
    rng = new_rng(seed)
    continuous = rng.random((n, 3))
    grid = rng.integers(0, 3, size=(n, 2)) / 2.0
    zeros = np.where(rng.random(n) < 0.5, 0.0, -0.0)
    zeros[rng.random(n) < 0.1] = 1.0
    scores = np.column_stack([continuous[:, 0], grid[:, 0], continuous[:, 1], zeros,
                              continuous[:, 2], grid[:, 1]])
    truth = (rng.random(scores.shape) < [0.5, 0.3, 0.1, 0.4, 0.6, 0.5]).astype(float)
    return scores, truth


# Tie-heavy matrices for the one-sort-per-class pass: (scores, truth), one
# column per class.
MATRIX_CASES = {
    "ties_beside_tie_free_columns_64": mixed_tie_matrix(40, 64),
    "ties_beside_tie_free_columns_300": mixed_tie_matrix(41, 300),
    "every_score_tied": (
        np.full((6, 4), 0.5),
        [[1, 0, 1, 0], [0, 0, 1, 1], [0, 0, 0, 1], [0, 0, 0, 1], [0, 0, 1, 1], [0, 1, 0, 1]],
    ),
    "tie_runs_at_both_ends": (
        [[0.9, 0.0], [0.9, 0.0], [0.9, 0.0], [0.5, 0.4], [0.1, 1.0], [0.1, 1.0], [0.1, 1.0]],
        [[0, 1], [1, 0], [0, 1], [1, 0], [1, 0], [0, 1], [0, 0]],
    ),
    "one_positive": (
        [[0.2, 0.7, 0.7], [0.7, 0.7, 0.1], [0.7, 0.2, 0.7], [0.1, 0.7, 0.7]],
        [[0, 0, 0], [1, 0, 0], [0, 0, 0], [0, 1, 1]],
    ),
    "two_samples": (
        [[0.3, 0.3, 0.8, 0.1, 0.4], [0.3, 0.3, 0.2, 0.9, 0.6]],
        [[1, 0, 1, 1, 1], [0, 1, 0, 0, 1]],
    ),
    "degenerate_between_scorable": (
        [[0.4, 0.1, 0.4, 0.4, 0.0], [0.4, 0.1, 0.9, 0.4, 0.5], [0.1, 0.1, 0.4, 0.4, 0.5]],
        [[1, 0, 0, 1, 1], [0, 0, 1, 1, 0], [1, 0, 0, 1, 0]],
    ),
}


def random_tied_matrix(seed):
    """Scores on a three-value grid; some columns come out degenerate."""
    rng = new_rng(seed + 3000)
    n, k = int(rng.integers(2, 10)), int(rng.integers(1, 9))
    scores = rng.integers(0, 3, size=(n, k)) / 2.0
    truth = (rng.random((n, k)) < rng.random(k)).astype(float)
    return scores, truth


@pytest.mark.parametrize(
    "scores,truth",
    [*MATRIX_CASES.values(), *(random_tied_matrix(seed) for seed in range(40))],
    ids=[*MATRIX_CASES, *(f"random{seed}" for seed in range(40))],
)
def test_evaluate_matrix_matches_oracles_per_class(scores, truth):
    scores = np.asarray(scores, dtype=float)
    truth = np.asarray(truth, dtype=float)
    report = evaluate(scores, truth)
    n_pos = truth.sum(axis=0).astype(int).tolist()
    included = [k for k, count in enumerate(n_pos) if 0 < count < len(truth)]
    excluded = [
        (k, "no_positives" if count == 0 else "no_negatives")
        for k, count in enumerate(n_pos)
        if k not in included
    ]
    assert report.excluded == tuple(excluded)
    assert [m.index for m in report.class_metrics] == included
    for m in report.class_metrics:
        column, mask = scores[:, m.index].tolist(), (truth[:, m.index] == 1).tolist()
        expected_auc = oracle_auc(column, mask)
        assert m.n_pos == n_pos[m.index]
        assert abs(m.ap - oracle_average_precision(column, mask)) < 1e-12
        assert abs(m.auc - expected_auc) < 1e-12
        assert m.dprime_clamped == (expected_auc in (0.0, 1.0))
        assert abs(m.dprime - auc_to_dprime(expected_auc)) < 1e-9


def blocked_matrix(n, k, excluded, seed):
    """(n, k) scores with ties in every third class; ``excluded`` maps a class to the value
    every one of its clips gets (0 for no positives, 1 for no negatives)."""
    rng = new_rng(seed)
    scores = rng.random((n, k))
    scores[:, 1::3] = np.round(scores[:, 1::3], 1)
    truth = (rng.random((n, k)) < 0.3).astype(float)
    truth[0], truth[1] = 1.0, 0.0  # every other class has positives and negatives
    for column, value in excluded.items():
        truth[:, column] = value
    return scores, truth


# At 1000 clips a block holds RANK_BLOCK_VALUES // 1000 = 65 classes; the excluded
# classes sit at the first and last class, beside block edges and inside blocks.
BLOCK_CASES = {
    "blocks_with_excluded_classes": blocked_matrix(
        1000, 200, {0: 0, 64: 1, 65: 0, 66: 0, 100: 1, 131: 0, 199: 1}, 50),
    "one_class_per_block": blocked_matrix(RANK_BLOCK_VALUES + 3, 4, {2: 0}, 51),
    "all_excluded": blocked_matrix(300, 5, {0: 0, 1: 1, 2: 0, 3: 0, 4: 1}, 52),
}


@pytest.mark.parametrize("scores,truth", BLOCK_CASES.values(), ids=BLOCK_CASES)
def test_evaluate_in_blocks_equals_one_rank_pass(scores, truth, monkeypatch):
    blocked = evaluate(scores, truth)
    included = [m.index for m in blocked.class_metrics]
    assert len(included) + len(blocked.excluded) == scores.shape[1]
    if included:
        aps, aucs, counts = _rank_pass(scores.T[included], truth.T[included] == 1)
        assert [m.ap for m in blocked.class_metrics] == aps.tolist()
        assert [m.auc for m in blocked.class_metrics] == aucs.tolist()
        assert [m.n_pos for m in blocked.class_metrics] == counts.tolist()
    monkeypatch.setattr(wlat.metrics, "RANK_BLOCK_VALUES", scores.size)  # one block
    one_pass = evaluate(scores, truth)
    assert machine_lines(blocked) == machine_lines(one_pass)
    assert blocked.excluded == one_pass.excluded
    for name in ("mean_ap", "mean_auc", "mean_dprime"):
        assert repr(getattr(blocked, name)) == repr(getattr(one_pass, name)), name


def test_evaluate_memory_is_a_fraction_of_the_score_matrix():
    # paper-shape classes: one pass over every class held several score-matrix sizes of
    # sort orders and ranked copies; blocks hold a few cache-sized temporaries
    scores, truth = blocked_matrix(4000, 527, {3: 0, 300: 1}, 53)
    tracemalloc.start()
    try:
        evaluate(scores, truth)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.0 * scores.nbytes, peak / scores.nbytes
