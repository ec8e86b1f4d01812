"""Nearest-neighbor classification under the chi-square histogram distance.

The distance is sum((T_n - M_n)^2 / (T_n + M_n)) with 0/0 terms contributing
zero, reduced by chi_square with an exactly rounded sum; the predicted class
is the label of the nearest model, ties broken by the lowest model index.

A query scores every model on its own nonzero bins, a rigorous error bound
rules out every model that cannot be nearest, and chi_square decides among
several left: the winner and ties are exactly those of chi_square.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .histogram import FeatureHistogram, SparseHistogram


def _bins_of(h):
    if isinstance(h, FeatureHistogram):
        return h.bins
    if isinstance(h, SparseHistogram):
        bins = np.zeros(h.size)
        bins[h.indices] = h.values
        return bins
    return np.asarray(h, dtype=np.float64)


def chi_square(t, m) -> float:
    """Chi-square distance between two histograms of equal length.

    Accepts FeatureHistogram, SparseHistogram or plain arrays; when both
    carry a scheme the schemes must agree. Terms with a zero denominator
    (both bins zero for non-negative histograms) contribute zero. The term
    list is reduced with an exactly rounded sum, so padding both inputs with
    zero bins or permuting bins in lockstep cannot change the value.
    """
    kinds = (FeatureHistogram, SparseHistogram)
    if isinstance(t, kinds) and isinstance(m, kinds):
        if t.scheme != m.scheme or t.P != m.P:
            raise ValueError(f"histogram schemes differ: {t.scheme}@{t.P} vs {m.scheme}@{m.P}")
    ta, ma = _bins_of(t), _bins_of(m)
    if ta.shape != ma.shape:
        raise ValueError(f"histogram lengths differ: {ta.shape} vs {ma.shape}")
    den = ma + ta
    terms = np.square(ma - ta)
    np.divide(terms, den, out=terms, where=den != 0.0)
    terms[den == 0.0] = 0.0
    return math.fsum(terms.tolist())


def _check_bins(bins: np.ndarray, what: str) -> None:
    # A nan or inf bin would hide the nearest model; the error bound of the
    # model search needs every bin >= 0, and below 2^500 nothing overflows.
    if not np.isfinite(bins).all():
        raise ValueError(f"{what} histogram has non-finite bins")
    if (bins < 0.0).any():
        raise ValueError(f"{what} histogram has negative bins")
    if (bins >= 2.0**500).any():
        raise ValueError(f"{what} histogram has bins of 2^500 or more")


def _nonzero_bins(h, dim: int, what: str) -> tuple:
    """(indices, values) of the nonzero bins of a histogram of length dim,
    checked; a SparseHistogram is taken as it is."""
    if isinstance(h, SparseHistogram):
        shape, indices, values = (h.size,), h.indices, h.values
    else:
        bins = _bins_of(h)
        shape, indices = bins.shape, np.flatnonzero(bins)
        values = bins.ravel()[indices]
    if shape != (dim,):
        raise ValueError(f"{what} histogram length {math.prod(shape)} is not {dim}")
    _check_bins(values, what)
    return indices, values


class ModelSet:
    """Training histograms, kept for exact nearest-neighbor queries.

    Models keep the order they are given in; an exact distance tie goes to
    the model that comes first. Every bin must be finite, in [0, 2^500).
    A model is a FeatureHistogram, a SparseHistogram or an array. Only the
    bins that some model uses are kept, bin-major and built row by row from
    each model's nonzero bins: values[j, k] is bin columns[j] of model k;
    mass[k] sums model k.
    """

    def __init__(self, histograms, labels):
        histograms = list(histograms)
        labels = [int(l) for l in labels]
        if not histograms:
            raise ValueError("model set needs at least one model")
        if len(histograms) != len(labels):
            raise ValueError("histogram and label counts differ")
        first = histograms[0]
        meta = first if isinstance(first, (FeatureHistogram, SparseHistogram)) else None
        self.dim = first.size if isinstance(first, SparseHistogram) else _bins_of(first).size
        rows = []
        used = np.zeros(self.dim, dtype=bool)
        for k, h in enumerate(histograms):
            if meta is not None and isinstance(h, (FeatureHistogram, SparseHistogram)):
                if h.scheme != meta.scheme or h.P != meta.P:
                    raise ValueError("all models must share one scheme and P")
            rows.append(_nonzero_bins(h, self.dim, f"model {k}"))
            used[rows[-1][0]] = True
        self.columns = np.flatnonzero(used)
        self.values = np.zeros((self.columns.size, len(histograms)))
        for k, (indices, values) in enumerate(rows):
            self.values[np.searchsorted(self.columns, indices), k] = values
        self.mass = self.values.sum(axis=0)
        self.labels = np.asarray(labels, dtype=np.int64)
        self.scheme, self.P, self.R = (meta.scheme, meta.P, meta.R) if meta else (None,) * 3

    def __len__(self):
        return self.labels.size

    def row(self, k: int) -> np.ndarray:
        """The bins of model k."""
        bins = np.zeros(self.dim)
        bins[self.columns] = self.values[:, k]
        return bins


# Elements per gathered block of models: a query's temporaries do not grow with them.
_GATHER_ELEMENTS = 1 << 16


def _nearest(t, models: ModelSet) -> list:
    """The indices of every model at the minimum chi_square distance, in
    order; the first is the nearest. A bad bin raises ValueError."""
    bins = _bins_of(t)
    if bins.shape != (models.dim,):
        raise ValueError(f"test histogram length {bins.size} does not match models ({models.dim})")
    _check_bins(bins, "test")
    # For bins t, m >= 0 each term (t - m)^2/(t + m) is t + m - 4tm/(t + m),
    # so D = T + M - 4S: T and M are the bin sums and S sums tm/(t + m) over
    # the bins where t > 0. Let u = 2^-53, gamma_n = nu/(1 - nu), n = dim.
    # A float sum of at most n terms >= 0 is within gamma_{n-1} of its value
    # in any order, and k roundings in a product or quotient within gamma_k
    # (Higham, Accuracy and Stability of Numerical Algorithms, sections 3-4).
    # So fl(T + M) is within gamma_{n+1}, and the computed S within
    # gamma_{n+2}, of their values; with 4S <= T + M (as D >= 0) the score
    # fl(fl(T + M) - 4S) is within 3 gamma_{n+2} (T + M) of D. chi_square is
    # within gamma_6 D <= gamma_6 (T + M) of D: 5 roundings per term (the
    # difference's twice, as it is squared) and one in fsum. So
    # |chi_square - score| <= 4 gamma_{n+3} fl(T + M); slack is twice that,
    # for the bound's own rounding, plus 2^-1070 per bin for underflow. A
    # model whose score - slack exceeds some score + slack is neither nearest
    # nor tied, and one model left is the only nearest.
    t_kept = bins[models.columns]  # the other bins are 0 in every model
    column = np.flatnonzero(t_kept)
    t_in = t_kept[column]
    rows = max(1, _GATHER_ELEMENTS // len(models))
    s = np.zeros(len(models))
    for start in range(0, column.size, rows):
        block = models.values[column[start : start + rows]]
        t_block = t_in[start : start + rows, None]
        den = block + t_block
        block *= t_block
        block /= den
        s += block.sum(axis=0)
    total = models.mass + bins.sum()
    score = total - 4.0 * s
    nu = (models.dim + 3) * 2.0**-53
    slack = 8.0 * nu / (1.0 - nu) * total + models.dim * 2.0**-1070
    near = np.flatnonzero(score - slack <= (score + slack).min()).tolist()
    if len(near) == 1:
        return near
    d = [chi_square(bins, models.row(k)) for k in near]
    best = min(d)
    return [k for k, dk in zip(near, d) if dk == best]


def classify(t, models: ModelSet):
    """Return (label, model index, distance) of the nearest model; the
    distance is chi_square's. Exact distance ties go to the lowest index.
    """
    winner = _nearest(t, models)[0]
    return int(models.labels[winner]), winner, chi_square(t, models.row(winner))


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
            lines.append(f"{label:>5}  {int(totals[i]):>7}  {100.0 * self.per_class[i]:>7.2f}%")
        return "\n".join(lines) + "\n"


def predict(t, models: ModelSet) -> tuple:
    """Return (label, tied) for the nearest model.

    tied is True when models of more than one class share the minimum
    distance; the label is then that of the tied model with the lowest
    index.
    """
    nearest = _nearest(t, models)
    tied = len(set(models.labels[nearest].tolist())) > 1
    return int(models.labels[nearest[0]]), tied


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
    correct = ties = 0
    for true_label, (predicted, tied) in zip(truth, outcomes):
        ties += bool(tied)
        confusion[index_of[true_label], index_of[predicted]] += 1
        correct += predicted == true_label
    totals = confusion.sum(axis=1)
    per_class = tuple(float(confusion[i, i]) / totals[i] if totals[i] else 0.0
                      for i in range(len(labels)))
    confusion.flags.writeable = False
    if scheme is None:
        scheme = str(models.scheme) if models.scheme is not None else ""
    return EvalReport(suite=suite, scheme=scheme,
                      P=int(models.P) if models.P is not None else 0,
                      R=float(models.R) if models.R is not None else 0.0,
                      accuracy=correct / len(truth), labels=tuple(labels),
                      per_class=per_class, confusion=confusion, ties=ties)


def evaluate(tests, models: ModelSet, suite: str = "",
             scheme: str | None = None) -> EvalReport:
    """Classify (histogram, true_label) pairs and summarize the outcome.

    The result does not depend on test order, and only tie handling makes it
    depend on model order; the number of ambiguous ties is reported.
    """
    tests = list(tests)
    return summarize([lab for _, lab in tests], [predict(h, models) for h, _ in tests],
                     models, suite=suite, scheme=scheme)
