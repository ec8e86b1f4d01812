import json
import math

import numpy as np
import pytest

from cldp import (
    EvalReport,
    ModelSet,
    build_histogram,
    chi_square,
    classify,
    evaluate,
    extract_maps,
    parse_scheme,
)
from cldp.classifier import _BLOCK_ELEMENTS, _distances_to_models, predict
from conftest import gray, traced_peak
from naive import naive_model_distances


def test_chi_square_examples():
    assert chi_square([1.0, 0.0], [0.0, 1.0]) == 2.0
    assert chi_square([0.5, 0.5], [0.5, 0.5]) == 0.0
    assert chi_square([0.0, 0.0], [0.0, 0.0]) == 0.0


def test_chi_square_is_a_semimetric():
    rng = np.random.default_rng(50)
    for _ in range(20):
        a = rng.uniform(0.0, 1.0, 16)
        b = rng.uniform(0.0, 1.0, 16)
        assert chi_square(a, b) >= 0.0
        assert chi_square(a, b) == chi_square(b, a)
        assert chi_square(a, a) == 0.0


def test_chi_square_ignores_shared_zero_bins():
    rng = np.random.default_rng(51)
    a = rng.uniform(0.0, 1.0, 12)
    b = rng.uniform(0.0, 1.0, 12)
    base = chi_square(a, b)
    padded = chi_square(np.concatenate([a, np.zeros(5)]),
                        np.concatenate([b, np.zeros(5)]))
    assert padded == base


def test_chi_square_is_permutation_stable():
    # fsum makes the reduction independent of term order, bit for bit
    rng = np.random.default_rng(52)
    a = rng.uniform(0.0, 1.0, 64)
    b = rng.uniform(0.0, 1.0, 64)
    base = chi_square(a, b)
    for _ in range(10):
        perm = rng.permutation(64)
        assert chi_square(a[perm], b[perm]) == base


def test_chi_square_validates_inputs():
    with pytest.raises(ValueError, match="lengths"):
        chi_square([1.0, 0.0], [1.0, 0.0, 0.0])
    maps = extract_maps(gray(np.full((12, 12), 3.0)), 8, 2.0)
    hs = build_histogram(maps, parse_scheme("S"))
    hm = build_histogram(maps, parse_scheme("M"))
    with pytest.raises(ValueError, match="schemes"):
        chi_square(hs, hm)


def test_classify_prefers_nearer_model():
    models = ModelSet([[1.0, 0.0], [0.0, 1.0]], [0, 1])
    label, source, dist = classify([0.9, 0.1], models)
    assert label == 0
    assert source == 0
    assert dist == pytest.approx(0.01 / 1.9 + 0.01 / 0.1)


def test_classify_exact_match_has_zero_distance():
    models = ModelSet([[0.2, 0.8], [0.7, 0.3]], [4, 9])
    label, source, dist = classify([0.7, 0.3], models)
    assert (label, source, dist) == (9, 1, 0.0)


def test_classify_tie_goes_to_lowest_source_index():
    models = ModelSet([[0.5, 0.5], [0.5, 0.5]], [7, 3])
    assert classify([0.1, 0.9], models)[:2] == (7, 0)


def test_classify_argmin_survives_rescaling():
    rng = np.random.default_rng(53)
    train = rng.uniform(0.0, 1.0, (6, 20))
    models = ModelSet(list(train), list(range(6)))
    scaled = ModelSet(list(train * 37.0), list(range(6)))
    for _ in range(20):
        t = rng.uniform(0.0, 1.0, 20)
        assert classify(t, models)[:2] == classify(t * 37.0, scaled)[:2]


def test_classify_memory_does_not_grow_with_models():
    """The scan's temporaries are a block of rows, not models x dim."""
    rng = np.random.default_rng(97)
    dim = 1000
    query = rng.uniform(0.0, 1.0, size=dim)
    for n in (800, 2400):  # 12 and 37 blocks' worth of elements
        models = ModelSet(rng.uniform(0.0, 1.0, size=(n, dim)), range(n))
        classify(query, models)
        assert traced_peak(lambda: classify(query, models)) <= 4 * 8 * _BLOCK_ELEMENTS


def test_classify_validates_length():
    models = ModelSet([[1.0, 0.0]], [0])
    with pytest.raises(ValueError, match="length"):
        classify([1.0, 0.0, 0.0], models)
    with pytest.raises(ValueError, match="length"):
        classify(1.0, models)


def test_classify_rejects_non_finite_query():
    # With a nan bin every distance is nan, and argmin would pick model 0.
    models = ModelSet([[1.0, 0.0], [0.0, 1.0]], [0, 1])
    for bad in ([math.nan, 1.0], [0.0, math.inf], [-math.inf, 1.0]):
        with pytest.raises(ValueError, match="non-finite"):
            classify(bad, models)
        with pytest.raises(ValueError, match="non-finite"):
            predict(bad, models)
        with pytest.raises(ValueError, match="non-finite"):
            evaluate([(bad, 1)], models)


def test_model_set_rejects_non_finite_models():
    # classify([0, 1], ...) returned model 0 at distance nan, though model 1
    # is an exact match.
    for bad in ([math.nan, 0.0], [math.inf, 0.0], [0.0, -math.inf]):
        with pytest.raises(ValueError, match="model 0 histogram has non-finite"):
            ModelSet([bad, [0.0, 1.0]], [0, 1])
        with pytest.raises(ValueError, match="model 1 histogram has non-finite"):
            ModelSet([[0.0, 1.0], bad], [0, 1])


def test_evaluate_validates_length():
    # A length-1 histogram would broadcast against every model's bins.
    models = ModelSet([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], [0, 1])
    with pytest.raises(ValueError, match="length"):
        evaluate([([0.5], 0)], models)
    with pytest.raises(ValueError, match="length"):
        evaluate([([0.5, 0.5, 0.0], 0), ([0.5, 0.5], 1)], models)


def test_distance_kernel_matches_oracle_bitwise():
    rng = np.random.default_rng(62)

    def sparse(rows, dim, nonzero):
        out = np.zeros((rows, dim))
        for row in out:
            cols = rng.choice(dim, size=nonzero, replace=False)
            row[cols] = rng.uniform(0.0, 1.0, size=nonzero)
            row /= row.sum()
        return out

    models = sparse(40, 2000, 250)
    queries = sparse(5, 2000, 250)
    padded = np.concatenate([models, np.zeros((40, 300))], axis=1)
    cases = [(q, models) for q in queries]
    cases += [(np.concatenate([q, np.zeros(300)]), padded) for q in queries]
    # t = -m on row 0: every nonzero bin of that row has den == 0 and a
    # nonzero numerator, and the term must still be 0.
    cases.append((-models[0], models))
    # The scan works in blocks of _BLOCK_ELEMENTS // dim rows: 35 models end
    # on a partial block, and a row longer than a block is a block alone.
    rows = _BLOCK_ELEMENTS // models.shape[1]
    assert rows > 1 and 35 % rows != 0
    cases += [(q, models[:35]) for q in queries[:2]]
    wide = sparse(3, _BLOCK_ELEMENTS + 1000, 2000)
    cases += [(q, wide) for q in sparse(2, _BLOCK_ELEMENTS + 1000, 2000)]
    for bins, matrix in cases:
        got = _distances_to_models(bins, matrix)
        assert got.tobytes() == naive_model_distances(bins, matrix).tobytes()
    assert _distances_to_models(-models[0], models)[0] == 0.0


def test_model_set_validation():
    with pytest.raises(ValueError):
        ModelSet([], [])
    with pytest.raises(ValueError):
        ModelSet([[1.0]], [0, 1])
    maps = extract_maps(gray(np.full((12, 12), 3.0)), 8, 2.0)
    hs = build_histogram(maps, parse_scheme("S"))
    hm = build_histogram(maps, parse_scheme("M"))
    with pytest.raises(ValueError, match="share"):
        ModelSet([hs, hm], [0, 1])


def _toy_report():
    models = ModelSet([[1.0, 0.0], [0.0, 1.0]], [0, 1])
    tests = [
        ([0.9, 0.1], 0),
        ([0.8, 0.2], 0),
        ([0.1, 0.9], 1),
        ([0.6, 0.4], 1),  # misclassified on purpose
    ]
    return evaluate(tests, models, suite="toy", scheme="S")


def test_evaluate_counts():
    report = _toy_report()
    assert report.accuracy == 0.75
    assert report.labels == (0, 1)
    assert report.per_class == (1.0, 0.5)
    assert report.confusion.tolist() == [[2, 0], [1, 1]]
    assert report.ties == 0


def test_evaluate_counts_cross_class_ties():
    models = ModelSet([[0.5, 0.5], [0.5, 0.5], [1.0, 0.0]], [0, 1, 2])
    report = evaluate([([0.5, 0.5], 0)], models)
    assert report.ties == 1
    assert report.accuracy == 1.0  # tie resolved to source 0, the true label
    same_label = ModelSet([[0.5, 0.5], [0.5, 0.5]], [4, 4])
    assert evaluate([([0.5, 0.5], 4)], same_label).ties == 0


def test_evaluate_is_test_order_invariant():
    models = ModelSet([[1.0, 0.0], [0.0, 1.0]], [0, 1])
    tests = [([0.9, 0.1], 0), ([0.2, 0.8], 1), ([0.4, 0.6], 0)]
    fwd = evaluate(tests, models)
    rev = evaluate(tests[::-1], models)
    assert fwd.accuracy == rev.accuracy
    assert np.array_equal(fwd.confusion, rev.confusion)
    assert fwd.per_class == rev.per_class


def test_report_json_schema():
    report = _toy_report()
    data = json.loads(report.to_json())
    assert set(data) == {
        "suite", "scheme", "P", "R", "accuracy", "per_class", "confusion", "ties",
    }
    assert data["suite"] == "toy"
    assert data["scheme"] == "S"
    assert data["accuracy"] == 0.75
    assert data["per_class"] == [1.0, 0.5]
    assert data["confusion"] == [[2, 0], [1, 1]]
    assert report.to_json().endswith("\n")


def test_report_text_rendering():
    text = _toy_report().to_text()
    assert "accuracy  75.00%" in text
    assert "ties      0" in text
    lines = text.splitlines()
    assert lines[-2].split() == ["0", "2", "100.00%"]
    assert lines[-1].split() == ["1", "2", "50.00%"]


def _synthetic_class_image(rng, kind, size=32):
    # classes differ in spatial frequency, not orientation, so the
    # rotation-invariant descriptor can tell them apart
    if kind == 0:
        base = np.full((size, size), 128.0)
    else:
        period = 4 if kind == 1 else 16
        axis = np.arange(size) if rng.integers(2) else np.arange(size)[:, None]
        base = 127.5 + 120.0 * np.sin(2.0 * np.pi * axis / period)
        base = np.broadcast_to(base, (size, size))
    noisy = base + rng.normal(0.0, 2.0, (size, size))
    return gray(np.clip(np.round(noisy), 0.0, 255.0))


def test_three_texture_classes_separate_perfectly():
    rng = np.random.default_rng(54)
    scheme = parse_scheme("S/M/D/C")

    def features(kind, count):
        out = []
        for _ in range(count):
            img = _synthetic_class_image(rng, kind)
            out.append(build_histogram(extract_maps(img, 8, 2.0), scheme))
        return out

    train, labels, tests = [], [], []
    for kind in range(3):
        train.extend(features(kind, 5))
        labels.extend([kind] * 5)
        tests.extend((h, kind) for h in features(kind, 5))
    report = evaluate(tests, ModelSet(train, labels), suite="synthetic")
    assert report.accuracy == 1.0
    assert report.ties == 0
    assert report.scheme == "S/M/D/C"
    assert (report.P, report.R) == (8, 2.0)


def test_ramp_orientation_is_invisible_by_design():
    # a vertical ramp is a quarter turn of a horizontal one, so every
    # histogram matches bitwise and orientation alone cannot define a class
    h_ramp = gray(np.tile(np.arange(32.0) * 8.0, (32, 1)))
    v_ramp = gray(np.tile(np.arange(32.0) * 8.0, (32, 1)).T)
    scheme = parse_scheme("S/M/D/C")
    a = build_histogram(extract_maps(h_ramp, 8, 2.0), scheme)
    b = build_histogram(extract_maps(v_ramp, 8, 2.0), scheme)
    assert np.array_equal(a.bins, b.bins)
