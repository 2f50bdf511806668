"""Ranking metrics for multi-label evaluation: AP/mAP, AUC and d-prime.

AP averages the precision at each positive in the descending score ranking.
AUC is the Mann-Whitney rank statistic (ties count half), identical to the
trapezoidal area under the ROC curve.  One stable descending sort per class
serves both: tied scores keep input order for AP and share their mean rank
for AUC.  d-prime maps AUC through the inverse standard normal CDF
(``statistics.NormalDist.inv_cdf``): the separation of two unit-variance
Gaussians whose overlap reproduces that AUC.

Classes with no positives or no negatives are undefined under all three
metrics; they are excluded from aggregates and reported separately.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Iterable

import numpy as np

# AUC values this close to 0 or 1 are clamped before the quantile, keeping
# d-prime finite (the cap is about 7.35); clamping sets a warning flag.
AUC_CLAMP = 1e-7

_SQRT2 = math.sqrt(2.0)


class DegenerateClassError(ValueError):
    """A class with no positives or no negatives; reason names which."""

    def __init__(self, message: str, reason: str):
        super().__init__(message)
        self.reason = reason


def clamp_auc(value: float) -> tuple[float, bool]:
    """Pull an AUC into [AUC_CLAMP, 1 - AUC_CLAMP]; flag says whether it moved."""
    if math.isnan(value) or not 0.0 <= value <= 1.0:
        raise ValueError(f"AUC must lie in [0, 1], got {value}")
    clamped = min(max(value, AUC_CLAMP), 1.0 - AUC_CLAMP)
    return clamped, clamped != value


def auc_to_dprime(value: float) -> float:
    """d-prime for an AUC: sqrt(2) times the standard normal quantile.

    Extreme AUCs are first pulled to the bounds of :func:`clamp_auc`.
    """
    return _SQRT2 * statistics.NormalDist().inv_cdf(clamp_auc(value)[0])


def exclusion_reasons(truth: np.ndarray) -> list[str | None]:
    """Why each column of a 0/1 truth matrix cannot be scored, or None if it can."""
    return [
        "no_positives" if n_pos == 0 else "no_negatives" if n_pos == len(truth) else None
        for n_pos in np.count_nonzero(truth, axis=0).tolist()
    ]


def _check_scores(scores: np.ndarray, ndim: int) -> np.ndarray:
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != ndim or scores.size == 0:
        raise ValueError(f"scores must be a nonempty {ndim}-D array, got shape {scores.shape}")
    if not np.all(np.isfinite(scores)):
        raise ValueError("scores must be finite")
    return scores


def _rank_pass(scores: np.ndarray, positive: np.ndarray) -> tuple[np.ndarray, ...]:
    """AP, AUC and positive count of every row (one class per row), sorting each row once.

    Each row needs a positive and a negative.  The stable descending order
    keeps tied scores in input order for AP.  For AUC, a run of tied scores
    at descending slots [first, last] shares the mean ascending rank
    n - (first + last) / 2; those are half-integers, so the rank sum is exact.
    """
    n = scores.shape[1]
    order = np.argsort(-scores, axis=1, kind="stable")
    hits = np.take_along_axis(positive, order, axis=1)
    ranked = np.take_along_axis(scores, order, axis=1)
    run_start = np.ones_like(hits)
    run_start[:, 1:] = ranked[:, 1:] != ranked[:, :-1]
    del order, ranked  # free the two largest arrays before the full-size starts below
    rows, slots = np.nonzero(hits)  # every positive, row by row in rank order
    n_pos = np.bincount(rows)
    hit_number = np.arange(1, rows.size + 1) - (np.cumsum(n_pos) - n_pos)[rows]  # within its row
    ap = np.bincount(rows, weights=hit_number / (slots + 1)) / n_pos
    # flat positions where a tie run starts (every row starts one), then the end
    starts = np.flatnonzero(np.append(run_start, True))
    run = np.searchsorted(starts, rows * n + slots, side="right") - 1
    first_plus_last = starts[run] + starts[run + 1] - 1 - 2 * n * rows
    rank_sum = np.bincount(rows, weights=n - first_plus_last / 2.0)
    pairs_won = rank_sum - n_pos * (n_pos + 1) / 2.0
    return ap, pairs_won / (n_pos * (n - n_pos)), n_pos


def _one_class(scores: np.ndarray, positives: Iterable[int], metric: str) -> tuple[float, float]:
    """AP and AUC of one class; raises DegenerateClassError if it cannot be scored."""
    scores = _check_scores(scores, ndim=1)
    indices = np.asarray(sorted(positives), dtype=np.int64)
    if indices.size and (indices[0] < 0 or indices[-1] >= scores.size):
        raise ValueError(f"positive index out of range for {scores.size} scores")
    if np.unique(indices).size != indices.size:
        raise ValueError("duplicate positive indices")
    mask = np.zeros(scores.size, dtype=bool)
    mask[indices] = True
    reason = exclusion_reasons(mask[:, None])[0]
    if reason is not None:
        side = "positive" if reason == "no_positives" else "negative"
        raise DegenerateClassError(f"no {side} samples, {metric} undefined", reason=reason)
    ap, auc_value, _ = _rank_pass(scores[None], mask[None])
    return float(ap[0]), float(auc_value[0])


def average_precision(scores: np.ndarray, positives: Iterable[int]) -> float:
    """Mean precision at each positive in the descending ranking; ties keep input order.

    The definitional oracle must mirror that.  Raises DegenerateClassError
    when every sample is positive or none is.
    """
    return _one_class(scores, positives, "AP")[0]


def auc(scores: np.ndarray, positives: Iterable[int]) -> float:
    """Fraction of (positive, negative) pairs ranked correctly, ties half (Mann-Whitney).

    Equals the trapezoidal area under the ROC curve; raises like average_precision.
    """
    return _one_class(scores, positives, "AUC")[1]


@dataclass(frozen=True)
class ClassMetrics:
    index: int
    ap: float
    auc: float
    dprime: float
    n_pos: int
    dprime_clamped: bool


@dataclass(frozen=True)
class EvalReport:
    """Per-class metrics plus aggregates over the included classes."""

    class_metrics: tuple[ClassMetrics, ...]
    excluded: tuple[tuple[int, str], ...]  # (class index, reason)
    mean_ap: float
    mean_auc: float
    mean_dprime: float

    @property
    def n_included(self) -> int:
        return len(self.class_metrics)


def evaluate(scores: np.ndarray, truth: np.ndarray) -> EvalReport:
    """Score every class of an (n_samples, n_classes) prediction matrix.

    ``truth`` is the matching multi-hot 0/1 matrix.  Degenerate classes
    land in the exclusion list; aggregates are nan if nothing remains.
    """
    scores = _check_scores(scores, ndim=2)
    truth = np.asarray(truth)
    if truth.shape != scores.shape:
        raise ValueError(f"truth shape {truth.shape} != scores shape {scores.shape}")
    if not np.isin(truth, (0, 1)).all():
        raise ValueError("truth must be a 0/1 multi-hot matrix")

    reasons = exclusion_reasons(truth)
    excluded = [(k, reason) for k, reason in enumerate(reasons) if reason is not None]
    included = [k for k, reason in enumerate(reasons) if reason is None]
    # one row per class, so each row's sort runs over contiguous memory
    aps, aucs, counts = _rank_pass(scores.T[included], (truth == 1).T[included])
    per_class = [
        ClassMetrics(
            index=k,
            ap=ap,
            auc=auc_value,
            dprime=auc_to_dprime(auc_value),
            n_pos=n_pos,
            dprime_clamped=clamp_auc(auc_value)[1],
        )
        for k, ap, auc_value, n_pos in zip(included, aps.tolist(), aucs.tolist(), counts.tolist())
    ]
    means = [
        float(np.mean(values)) if per_class else math.nan
        for values in (aps, aucs, [m.dprime for m in per_class])
    ]
    return EvalReport(tuple(per_class), tuple(excluded), *means)


def machine_lines(report: EvalReport) -> list[str]:
    """Tab-separated per-class records, then one aggregate record.

    Fields: class index, AP, AUC, d-prime, positive count; the aggregate
    line carries the means and the included-class count.
    """
    lines = [
        f"{m.index}\t{m.ap:.6f}\t{m.auc:.6f}\t{m.dprime:.6f}\t{m.n_pos}"
        for m in report.class_metrics
    ]
    lines.append(
        f"mean\t{report.mean_ap:.6f}\t{report.mean_auc:.6f}"
        f"\t{report.mean_dprime:.6f}\t{report.n_included}"
    )
    return lines


def human_table(report: EvalReport) -> str:
    header = f"{'class':>6}  {'AP':>8}  {'AUC':>8}  {'d-prime':>8}  {'n_pos':>6}"
    rows = [header, "-" * len(header)]
    for m in report.class_metrics:
        flag = " *" if m.dprime_clamped else ""
        rows.append(
            f"{m.index:>6}  {m.ap:>8.4f}  {m.auc:>8.4f}  {m.dprime:>8.4f}  {m.n_pos:>6}{flag}"
        )
    rows.append("-" * len(header))
    rows.append(
        f"{'mean':>6}  {report.mean_ap:>8.4f}  {report.mean_auc:>8.4f}"
        f"  {report.mean_dprime:>8.4f}  {report.n_included:>6}"
    )
    if any(m.dprime_clamped for m in report.class_metrics):
        rows.append("* AUC at clamp bound; d-prime capped")
    for index, reason in report.excluded:
        rows.append(f"class {index} excluded: {reason.replace('_', ' ')}")
    return "\n".join(rows)
