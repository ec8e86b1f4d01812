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
from cldp.classifier import _GATHER_ELEMENTS, _nearest, predict, summarize
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
    """The search's temporaries are blocks of the gather, not models x dim."""
    rng = np.random.default_rng(97)
    dim = 1000
    query = rng.uniform(0.0, 1.0, size=dim)
    for n in (800, 2400):  # 12 and 37 blocks' worth of elements
        models = ModelSet(rng.uniform(0.0, 1.0, size=(n, dim)), range(n))
        classify(query, models)
        assert traced_peak(lambda: classify(query, models)) <= 4 * 8 * 2**16


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


def test_summarize_validates_counts():
    models = ModelSet([[1.0, 0.0], [0.0, 1.0]], [0, 1])
    with pytest.raises(ValueError, match="^nothing to evaluate$"):
        summarize([], [], models)
    with pytest.raises(ValueError, match="^1 outcomes for 2 test samples$"):
        summarize([0, 1], [(0, False)], models)


def _check_search(query, models, matrix):
    """_nearest's tie set and classify's result equal those of the oracle
    over every row of matrix, the distance bit for bit; returns the ties."""
    d = naive_model_distances(np.asarray(getattr(query, "bins", query), dtype=np.float64),
                              np.asarray(matrix, dtype=np.float64))
    ties = np.flatnonzero(d == d.min()).tolist()
    assert _nearest(query, models) == ties
    label, winner, distance = classify(query, models)
    assert (label, winner) == (models.labels[ties[0]], ties[0])
    assert distance.hex() == float(d.min()).hex()
    return ties


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
    cases += [(m, models) for m in models[:3]]  # exact matches, distance 0
    # The gather takes _GATHER_ELEMENTS // models rows of the query's
    # support at a time: a full query spans blocks and ends on a partial one.
    rows = _GATHER_ELEMENTS // len(models)
    assert rows < 2000 and 2000 % rows != 0
    cases += [(q, models) for q in sparse(2, 2000, 2000)]
    wide = sparse(3, (1 << 16) + 1000, 2000)
    cases += [(q, wide) for q in sparse(2, (1 << 16) + 1000, 2000)]
    for bins, matrix in cases:
        oracle = naive_model_distances(bins, matrix)
        assert np.array([chi_square(bins, row) for row in matrix]).tobytes() == oracle.tobytes()
        _check_search(bins, ModelSet(matrix, range(len(matrix))), matrix)


@pytest.mark.parametrize("P, R", [(8, 3.0), (24, 3.0)])
def test_classify_distance_is_chi_square_bitwise(P, R):
    rng = np.random.default_rng(98)
    scheme = parse_scheme("S/M/D/C")
    hists = [build_histogram(extract_maps(_synthetic_class_image(rng, k % 3), P, R), scheme)
             for k in range(18)]
    train, queries = hists[:12], hists[12:] + hists[:2]
    models = ModelSet(train, [k % 3 for k in range(12)])
    matrix = np.array([h.bins for h in train])
    for q in queries:
        _check_search(q, models, matrix)
        assert classify(q, models)[2].hex() == min(chi_square(q, m) for m in train).hex()


def _check_adversarial(query, rows, labels, ties, tied):
    """_nearest, classify and predict against brute-force chi_square, and
    the tie set and tied flag the case was built to produce."""
    models = ModelSet(rows, labels)
    assert _check_search(query, models, rows) == ties
    assert predict(query, models) == (labels[ties[0]], tied)


def test_classify_resolves_a_one_ulp_difference():
    rng = np.random.default_rng(99)
    base = rng.uniform(0.0, 1.0, 64)
    base /= base.sum()
    query = base.copy()
    query[5] *= 1.0 + 1e-9
    nudged = base.copy()
    nudged[5] = np.nextafter(base[5], 1.0)  # one ulp towards the query
    near, far = chi_square(query, nudged), chi_square(query, base)
    # Both far below any float bound on a distance near 1: only the exact
    # re-score can order them, and they differ.
    assert 0.0 < near < far < 1e-15
    _check_adversarial(query, [base, nudged], [0, 1], [1], False)
    _check_adversarial(base, [nudged, base], [0, 1], [1], False)


def test_classify_ties_models_whose_terms_are_permuted():
    # With a flat query, a permuted model's terms are the same terms in
    # another order: fsum ties them exactly, where an ordered sum may not.
    # Over 4096 bins the fast scores of these ties spread over about 15 ulps.
    rng = np.random.default_rng(100)
    query = np.full(4096, 1.0 / 4096)
    first = rng.uniform(0.0, 1.0, 4096) ** 8
    first /= first.sum()
    permuted = [first, first[::-1].copy()] + [first[rng.permutation(4096)] for _ in range(10)]

    def ordered(m):
        return sum(((m - query) ** 2 / (m + query)).tolist())

    assert len({ordered(m) for m in permuted}) > 1
    far = np.zeros(4096)
    far[0] = 5.0  # about 6 away; the permuted models are at most T + M = 2 away
    _check_adversarial(query, [far] + permuted, list(range(13)), list(range(1, 13)), True)


def test_classify_ties_duplicate_models_with_different_labels():
    rng = np.random.default_rng(101)
    a, b = rng.uniform(0.0, 1.0, (2, 20))
    query = a * rng.uniform(0.99, 1.01, 20)
    _check_adversarial(query, [b, a, b, a], [0, 1, 2, 1], [1, 3], False)
    _check_adversarial(query, [b, a, b, a], [0, 1, 2, 3], [1, 3], True)


def test_classify_query_with_bins_no_model_uses():
    rng = np.random.default_rng(102)
    rows = np.zeros((4, 30))
    rows[:, :12] = rng.uniform(0.0, 1.0, (4, 12))
    query = np.zeros(30)
    query[8:20] = rng.uniform(0.0, 1.0, 12)
    order = np.argsort([chi_square(query, m) for m in rows])
    _check_adversarial(query, rows, [5, 6, 7, 8], [int(order[0])], False)
    # Only bins that no model uses: every model is at T + M.
    query[:12] = 0.0
    ties = [k for k in range(4) if chi_square(query, rows[k]) == min(
        chi_square(query, m) for m in rows)]
    _check_adversarial(query, rows, [5, 6, 7, 8], ties, len(ties) > 1)


def test_classify_rejects_negative_bins():
    models = ModelSet([[1.0, 0.0], [0.0, 1.0]], [0, 1])
    for bad in ([-0.5, 1.0], [0.0, -1e-300], [-1.0, 0.0]):
        with pytest.raises(ValueError, match="test histogram has negative bins"):
            classify(bad, models)
        with pytest.raises(ValueError, match="test histogram has negative bins"):
            predict(bad, models)
        with pytest.raises(ValueError, match="test histogram has negative bins"):
            evaluate([(bad, 1)], models)
    assert classify([-0.0, 1.0], models) == (1, 1, 0.0)  # -0.0 is not negative


def test_bins_of_2_pow_500_or_more_are_rejected():
    # Below 2^500 no product or sum of the model search overflows.
    models = ModelSet([[1.0, 0.0], [0.0, 1.0]], [0, 1])
    with pytest.raises(ValueError, match=r"test histogram has bins of 2\^500 or more"):
        classify([2.0**500, 1.0], models)
    with pytest.raises(ValueError, match=r"model 1 histogram has bins of 2\^500 or more"):
        ModelSet([[0.0, 1.0], [1e300, 0.0]], [0, 1])
    big = np.nextafter(2.0**500, 0.0)
    huge = ModelSet([[0.0, big], [big, big], [big, 0.0]], [0, 1, 2])
    assert classify([big, 1.0], huge) == (2, 2, chi_square([big, 1.0], [big, 0.0]))


def test_model_set_rejects_negative_bins():
    for bad in ([-0.5, 1.0], [0.0, -1e-300]):
        with pytest.raises(ValueError, match="model 0 histogram has negative bins"):
            ModelSet([bad, [0.0, 1.0]], [0, 1])
        with pytest.raises(ValueError, match="model 1 histogram has negative bins"):
            ModelSet([[0.0, 1.0], bad], [0, 1])


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


def test_model_set_from_sparse_rows_equals_dense():
    """A ModelSet built from SparseHistograms keeps the same columns, values
    and mass, bitwise, and the scheme, P and R of its models."""
    rng = np.random.default_rng(12)
    for P, R, text in ((8, 3.0, "S/M/D/C"), (24, 3.0, "S_D_M/C"), (16, 2.0, "S/M/C")):
        scheme = parse_scheme(text)
        hists = [build_histogram(extract_maps(gray(np.floor(rng.uniform(0, 256, (20, 24)))), P, R),
                                 scheme) for _ in range(7)]
        labels = list(range(7))
        dense = ModelSet(hists, labels)
        for sparse in (ModelSet([h.sparse() for h in hists], labels),
                       ModelSet([h.bins for h in hists], labels)):
            assert sparse.columns.tobytes() == dense.columns.tobytes()
            assert sparse.values.tobytes() == dense.values.tobytes()
            assert sparse.mass.tobytes() == dense.mass.tobytes()
        sparse = ModelSet([h.sparse() for h in hists], labels)
        assert (sparse.scheme, sparse.P, sparse.R) == (scheme, P, R)
        assert (dense.scheme, dense.P, dense.R) == (scheme, P, R)
        bad = hists[0].sparse()
        with pytest.raises(ValueError, match="model 1 histogram length 3 is not"):
            ModelSet([bad, np.ones(3)], [0, 1])


def test_sparse_histogram_query_equals_dense_bitwise():
    """A SparseHistogram is a query and a chi_square operand wherever a
    SparseHistogram model is accepted: the same label, index and distance,
    bitwise, as its FeatureHistogram; the scheme check covers it."""
    rng = np.random.default_rng(13)
    scheme = parse_scheme("S/M/C")
    hists = [build_histogram(extract_maps(gray(np.floor(rng.uniform(0, 256, (20, 24)))), 8, 2.0),
                             scheme) for _ in range(5)]
    models = ModelSet([h.sparse() for h in hists[1:]], [1, 2, 3, 4])
    query = hists[0]
    assert classify(query.sparse(), models) == classify(query, models)
    assert predict(query.sparse(), models) == predict(query, models)
    for other in (hists[1], hists[1].sparse(), hists[1].bins):
        assert chi_square(query.sparse(), other) == chi_square(query, hists[1])
        assert chi_square(other, query.sparse()) == chi_square(hists[1], query)
    m_only = build_histogram(extract_maps(gray(np.floor(rng.uniform(0, 256, (20, 24)))), 8, 2.0),
                             parse_scheme("M/S/C"))
    with pytest.raises(ValueError, match="histogram schemes differ"):
        chi_square(query.sparse(), m_only)
