"""Nearest-neighbor classification under the chi-square histogram distance.

The distance is sum((T_n - M_n)^2 / (T_n + M_n)) with 0/0 terms contributing
zero; the predicted class is the label of the nearest model, ties broken by
the lowest model index.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .histogram import FeatureHistogram


def _bins_of(h):
    if isinstance(h, FeatureHistogram):
        return h.bins
    return np.asarray(h, dtype=np.float64)


def _chi_terms(t, m, terms=None, den=None) -> np.ndarray:
    """The chi-square terms (m - t)**2 / (m + t), broadcast, with 0/0 terms
    set to zero, computed in place.

    terms and den are optional float64 buffers of the broadcast shape; the
    terms are written into terms, which is returned. (m - t)**2 and m + t
    are bitwise (t - m)**2 and t + m, so the argument order does not change
    a term.
    """
    den = np.add(m, t, out=den)
    terms = np.subtract(m, t, out=terms)
    np.square(terms, out=terms)
    mask = den != 0.0
    np.divide(terms, den, out=terms, where=mask)
    np.copyto(terms, 0.0, where=np.logical_not(mask, out=mask))
    return terms


def chi_square(t, m) -> float:
    """Chi-square distance between two histograms of equal length.

    Accepts FeatureHistogram or plain arrays; when both carry a scheme the
    schemes must agree. Terms with a zero denominator (both bins zero for
    non-negative histograms) contribute zero. The term list is reduced with
    an exactly rounded sum, so padding both inputs with zero bins or
    permuting bins in lockstep cannot change the value.
    """
    if isinstance(t, FeatureHistogram) and isinstance(m, FeatureHistogram):
        if t.scheme != m.scheme or t.P != m.P:
            raise ValueError(f"histogram schemes differ: {t.scheme}@{t.P} vs {m.scheme}@{m.P}")
    ta = _bins_of(t)
    ma = _bins_of(m)
    if ta.shape != ma.shape:
        raise ValueError(f"histogram lengths differ: {ta.shape} vs {ma.shape}")
    return math.fsum(_chi_terms(ta, ma).tolist())


def _check_finite(bins: np.ndarray, what: str) -> None:
    if not np.isfinite(bins).all():
        raise ValueError(f"{what} histogram has non-finite bins")


class ModelSet:
    """Training histograms stacked for fast nearest-neighbor queries.

    Models keep the order they are given in; an exact distance tie goes to
    the model that comes first. Every bin must be finite: a nan or inf
    distance would hide the nearest model.
    """

    def __init__(self, histograms, labels):
        histograms = list(histograms)
        labels = [int(l) for l in labels]
        if not histograms:
            raise ValueError("model set needs at least one model")
        if len(histograms) != len(labels):
            raise ValueError("histogram and label counts differ")
        first = histograms[0]
        for h in histograms[1:]:
            if isinstance(h, FeatureHistogram) and isinstance(first, FeatureHistogram):
                if h.scheme != first.scheme or h.P != first.P:
                    raise ValueError("all models must share one scheme and P")
        rows = [_bins_of(h) for h in histograms]
        for k, row in enumerate(rows):
            _check_finite(row, f"model {k}")
        self.matrix = np.stack(rows)
        self.labels = np.asarray(labels, dtype=np.int64)
        self.scheme = first.scheme if isinstance(first, FeatureHistogram) else None
        self.P = first.P if isinstance(first, FeatureHistogram) else None
        self.R = first.R if isinstance(first, FeatureHistogram) else None

    def __len__(self):
        return self.matrix.shape[0]


# Elements per chi-square temporary in the model scan. Scanning the models
# in blocks of rows keeps a query's temporaries at this size (one row per
# block when a row is longer). Terms for every model at once take
# 2 x models x dim x 8 bytes, about 270 MB at P=24 with 480 models, per
# worker thread; glibc hands memory that large back to the OS when it is
# freed, so every query also paid to fault it in again.
_BLOCK_ELEMENTS = 1 << 16


def _distances_to_models(bins: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """Chi-square distance from bins to every row of matrix.

    A block's terms come out in C-contiguous rows, one per model, so
    sum(axis=1) reduces each model's terms in bin order, whatever the block
    size: the distances are bitwise those of one unblocked scan.
    """
    n, dim = matrix.shape
    rows = min(n, max(1, _BLOCK_ELEMENTS // dim))
    terms = np.empty((rows, dim), dtype=np.float64)
    den = np.empty((rows, dim), dtype=np.float64)
    out = np.empty(n, dtype=np.float64)
    for start in range(0, n, rows):
        k = min(rows, n - start)
        _chi_terms(bins, matrix[start : start + k], terms[:k], den[:k]).sum(
            axis=1, out=out[start : start + k])
    return out


def _nearest(t, models: ModelSet):
    """Index of the nearest model, the indices of every model at the minimum
    distance, and the distances to all models.

    Exact distance ties go to the model with the lowest index. A query with
    a non-finite bin raises ValueError.
    """
    bins = _bins_of(t)
    if bins.shape != models.matrix.shape[1:]:
        raise ValueError(
            f"test histogram length {bins.size} does not match models "
            f"({models.matrix.shape[1]})"
        )
    _check_finite(bins, "test")
    d = _distances_to_models(bins, models.matrix)
    winner = int(np.argmin(d))
    return winner, np.flatnonzero(d == d[winner]), d


def classify(t, models: ModelSet):
    """Return (label, model index, distance) of the nearest model.

    Exact distance ties go to the model with the lowest index.
    """
    winner, _, d = _nearest(t, models)
    return int(models.labels[winner]), winner, float(d[winner])


@dataclass(frozen=True)
class EvalReport:
    """Classification outcome of one suite run.

    labels gives the class order of per_class and of the confusion matrix
    rows (true) and columns (predicted). ties counts test samples whose
    minimum distance was shared by models of more than one class.
    """

    suite: str
    scheme: str
    P: int
    R: float
    accuracy: float
    labels: tuple
    per_class: tuple
    confusion: np.ndarray
    ties: int

    def to_json_dict(self) -> dict:
        return {
            "suite": self.suite,
            "scheme": self.scheme,
            "P": self.P,
            "R": self.R,
            "accuracy": self.accuracy,
            "per_class": list(self.per_class),
            "confusion": [[int(v) for v in row] for row in self.confusion],
            "ties": self.ties,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True) + "\n"

    def to_text(self) -> str:
        lines = [
            f"suite     {self.suite}",
            f"scheme    {self.scheme}  (P={self.P}, R={self.R:g})",
            f"accuracy  {100.0 * self.accuracy:.2f}%",
            f"ties      {self.ties}",
            "",
            "class  samples  accuracy",
        ]
        totals = self.confusion.sum(axis=1)
        for i, label in enumerate(self.labels):
            lines.append(
                f"{label:>5}  {int(totals[i]):>7}  {100.0 * self.per_class[i]:>7.2f}%"
            )
        return "\n".join(lines) + "\n"


def predict(t, models: ModelSet) -> tuple:
    """Return (label, tied) for the nearest model.

    tied is True when models of more than one class share the minimum
    distance; the label is then that of the tied model with the lowest
    index.
    """
    winner, candidates, _ = _nearest(t, models)
    tied = len(set(models.labels[candidates].tolist())) > 1
    return int(models.labels[winner]), tied


def summarize(truth, outcomes, models: ModelSet, suite: str = "",
              scheme: str | None = None) -> EvalReport:
    """Summarize the predict outcomes of test samples with these true labels.

    outcomes[i] is the (label, tied) pair predict gave for the sample whose
    class is truth[i]. The result does not depend on sample order.
    """
    truth = [int(lab) for lab in truth]
    outcomes = list(outcomes)
    if not truth:
        raise ValueError("nothing to evaluate")
    if len(outcomes) != len(truth):
        raise ValueError(f"{len(outcomes)} outcomes for {len(truth)} test samples")
    labels = sorted(set(models.labels.tolist()) | set(truth))
    index_of = {lab: i for i, lab in enumerate(labels)}
    confusion = np.zeros((len(labels), len(labels)), dtype=np.int64)
    correct = 0
    ties = 0
    for true_label, (predicted, tied) in zip(truth, outcomes):
        ties += bool(tied)
        confusion[index_of[true_label], index_of[predicted]] += 1
        correct += predicted == true_label
    totals = confusion.sum(axis=1)
    per_class = tuple(
        float(confusion[i, i]) / totals[i] if totals[i] else 0.0
        for i in range(len(labels))
    )
    confusion.flags.writeable = False
    if scheme is None:
        scheme = str(models.scheme) if models.scheme is not None else ""
    return EvalReport(
        suite=suite,
        scheme=scheme,
        P=int(models.P) if models.P is not None else 0,
        R=float(models.R) if models.R is not None else 0.0,
        accuracy=correct / len(truth),
        labels=tuple(labels),
        per_class=per_class,
        confusion=confusion,
        ties=ties,
    )


def evaluate(tests, models: ModelSet, suite: str = "",
             scheme: str | None = None) -> EvalReport:
    """Classify (histogram, true_label) pairs and summarize the outcome.

    The result does not depend on test order, and only tie handling makes it
    depend on model order; the number of ambiguous ties is reported.
    """
    tests = list(tests)
    return summarize([lab for _, lab in tests], [predict(h, models) for h, _ in tests],
                     models, suite=suite, scheme=scheme)
