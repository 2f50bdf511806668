"""Ranking metrics for multi-label evaluation: AP/mAP, AUC and d-prime.

AP averages the precision at each positive in the descending score ranking.
AUC is the Mann-Whitney rank statistic (ties count half), identical to the
trapezoidal area under the ROC curve.  d-prime maps AUC through the inverse
standard normal CDF (``statistics.NormalDist.inv_cdf``): the separation of
two unit-variance Gaussians whose overlap reproduces that AUC.

Classes with no positives or no negatives are undefined under all three
metrics; they are excluded from aggregates and reported separately.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

# AUC values this close to 0 or 1 are clamped before the quantile, keeping
# d-prime finite (the cap is about 10.27); clamping sets a warning flag.
AUC_CLAMP = 1e-7

_SQRT2 = math.sqrt(2.0)


class DegenerateClassError(ValueError):
    """A class with no positives or no negatives; reason names which."""

    def __init__(self, message: str, reason: str):
        super().__init__(message)
        self.reason = reason


def normal_quantile(p: float) -> float:
    """Inverse standard normal CDF; raises ValueError outside the open interval (0, 1)."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"quantile argument must lie in (0, 1), got {p}")
    return statistics.NormalDist().inv_cdf(p)


def normal_cdf(x: float) -> float:
    return 0.5 * (1.0 + math.erf(x / _SQRT2))


def clamp_auc(value: float) -> tuple[float, bool]:
    """Pull an AUC into [AUC_CLAMP, 1 - AUC_CLAMP]; flag says whether it moved."""
    if math.isnan(value) or not 0.0 <= value <= 1.0:
        raise ValueError(f"AUC must lie in [0, 1], got {value}")
    clamped = min(max(value, AUC_CLAMP), 1.0 - AUC_CLAMP)
    return clamped, clamped != value


def auc_to_dprime(value: float, clamp: bool = True) -> float:
    """d-prime for an AUC: sqrt(2) times the standard normal quantile.

    With clamp enabled (default), extreme AUCs are pulled to the clamp
    bounds first; with it disabled, values at or beyond 0/1 raise.
    """
    if clamp:
        value, _ = clamp_auc(value)
    elif not 0.0 < value < 1.0:
        raise ValueError(f"AUC must lie in (0, 1) when clamping is disabled, got {value}")
    return _SQRT2 * normal_quantile(value)


def _positive_mask(n: int, positives: Iterable[int]) -> np.ndarray:
    indices = np.asarray(sorted(positives), dtype=np.int64)
    if indices.size and (indices[0] < 0 or indices[-1] >= n):
        raise ValueError(f"positive index out of range for {n} scores")
    if np.unique(indices).size != indices.size:
        raise ValueError("duplicate positive indices")
    mask = np.zeros(n, dtype=bool)
    mask[indices] = True
    return mask


def _check_scores(scores: np.ndarray) -> np.ndarray:
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 1 or scores.size == 0:
        raise ValueError(f"scores must be a nonempty vector, got shape {scores.shape}")
    if not np.all(np.isfinite(scores)):
        raise ValueError("scores must be finite")
    return scores


def average_precision(scores: np.ndarray, positives: Iterable[int]) -> float:
    """Mean precision at each positive in the descending ranking.

    Ties keep input order (stable sort), which the definitional oracle must
    mirror.  Raises DegenerateClassError when every sample is positive or
    none is.
    """
    scores = _check_scores(scores)
    mask = _positive_mask(scores.size, positives)
    n_pos = int(mask.sum())
    if n_pos == 0:
        raise DegenerateClassError("no positive samples, AP undefined", reason="no_positives")
    if n_pos == scores.size:
        raise DegenerateClassError("no negative samples, AP undefined", reason="no_negatives")
    order = np.argsort(-scores, kind="stable")
    hits = mask[order]
    precision_at_hit = np.cumsum(hits)[hits] / (np.flatnonzero(hits) + 1)
    return float(precision_at_hit.mean())


def _average_ranks(scores: np.ndarray) -> np.ndarray:
    """1-based ascending ranks with tied values sharing their mean rank."""
    n = scores.size
    order = np.argsort(scores, kind="stable")
    sorted_scores = scores[order]
    new_group = np.empty(n, dtype=bool)
    new_group[0] = True
    new_group[1:] = sorted_scores[1:] != sorted_scores[:-1]
    firsts = np.flatnonzero(new_group)
    counts = np.diff(np.append(firsts, n))
    # group occupying 0-based slots [first, first+count) has mean 1-based
    # rank first + (count + 1) / 2
    rank_of_group = firsts + (counts + 1) / 2.0
    ranks = np.empty(n, dtype=np.float64)
    ranks[order] = rank_of_group[np.cumsum(new_group) - 1]
    return ranks


def auc(scores: np.ndarray, positives: Iterable[int]) -> float:
    """Fraction of (positive, negative) pairs ranked correctly, ties half.

    Mann-Whitney form via average ranks; equals the trapezoidal area under
    the ROC curve.
    """
    scores = _check_scores(scores)
    mask = _positive_mask(scores.size, positives)
    n_pos = int(mask.sum())
    n_neg = scores.size - n_pos
    if n_pos == 0:
        raise DegenerateClassError("no positive samples, AUC undefined", reason="no_positives")
    if n_neg == 0:
        raise DegenerateClassError("no negative samples, AUC undefined", reason="no_negatives")
    rank_sum = _average_ranks(scores)[mask].sum()
    pairs_won = rank_sum - n_pos * (n_pos + 1) / 2.0
    return float(pairs_won / (n_pos * n_neg))


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
    scores = np.asarray(scores, dtype=np.float64)
    truth = np.asarray(truth)
    if scores.ndim != 2 or scores.shape[0] == 0 or scores.shape[1] == 0:
        raise ValueError(f"scores must be a nonempty matrix, got shape {scores.shape}")
    if truth.shape != scores.shape:
        raise ValueError(f"truth shape {truth.shape} != scores shape {scores.shape}")
    if not np.all(np.isfinite(scores)):
        raise ValueError("scores must be finite")
    if not np.isin(truth, (0, 1)).all():
        raise ValueError("truth must be a 0/1 multi-hot matrix")

    per_class = []
    excluded = []
    for k in range(scores.shape[1]):
        positives = np.flatnonzero(truth[:, k] == 1)
        try:
            ap = average_precision(scores[:, k], positives)
            auc_value = auc(scores[:, k], positives)
        except DegenerateClassError as err:
            excluded.append((k, err.reason))
            continue
        clamped_auc, flagged = clamp_auc(auc_value)
        per_class.append(
            ClassMetrics(
                index=k,
                ap=ap,
                auc=auc_value,
                dprime=auc_to_dprime(clamped_auc, clamp=False),
                n_pos=positives.size,
                dprime_clamped=flagged,
            )
        )
    if per_class:
        mean_ap = float(np.mean([m.ap for m in per_class]))
        mean_auc = float(np.mean([m.auc for m in per_class]))
        mean_dprime = float(np.mean([m.dprime for m in per_class]))
    else:
        mean_ap = mean_auc = mean_dprime = float("nan")
    return EvalReport(tuple(per_class), tuple(excluded), mean_ap, mean_auc, mean_dprime)


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
