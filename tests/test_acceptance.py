"""Acceptance gate: every release-blocking behavior, one test per criterion.

Criteria 1-9 are self-contained and fast. Criteria 10-12 need a local
Outex copy and run only when OUTEX_ROOT is set; they are skipped (not
weakened) otherwise. Each test prints one [criterion NN] PASS line so a
plain `pytest -v -s tests/test_acceptance.py` reads as a checklist.
"""

import os
import random
import time

import numpy as np
import pytest

from cldp import (
    ExperimentMatrix,
    GrayImage,
    ModelSet,
    Riu2Mapper,
    build_histogram,
    chi_square,
    classify,
    code_space_stats,
    extract_maps,
    make_synthetic_suite,
    parse_scheme,
    run_matrix,
    run_suite,
    scheme_dimension,
)
from cldp.cli import main
from conftest import random_8bit
from naive import (
    counted_riu2,
    naive_histogram,
    naive_riu2,
    naive_rotation_classes,
    naive_scheme_dimension,
    naive_scheme_groups,
    naive_uniform_count,
)

OUTEX_ROOT = os.environ.get("OUTEX_ROOT")
needs_outex = pytest.mark.skipif(
    not OUTEX_ROOT,
    reason="set OUTEX_ROOT to a directory holding Outex_TC_00010/Outex_TC_00012 "
    "with PGM images (see configs/*.suite)",
)
CONFIG_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "configs")


def _ok(n, text):
    print(f"[criterion {n:02d}] PASS: {text}")


def test_c01_riu2_combinatorics_p8():
    stats = code_space_stats(8)
    oracle_bins = [0] * 10
    for code in range(256):
        oracle_bins[naive_riu2(code, 8)] += 1
    assert stats["total_codes"] == 256
    assert stats["rotation_classes"] == naive_rotation_classes(8) == 36
    assert stats["riu2_bins"] == len({naive_riu2(c, 8) for c in range(256)}) == 10
    assert stats["uniform_codes"] == naive_uniform_count(8) == 58
    assert stats["bin_populations"] == oracle_bins == [1, 8, 8, 8, 8, 8, 8, 8, 1, 198]
    _ok(1, "P=8 code space: 256 codes, 36 rotation classes, 10 bins, 58 uniform")


def test_c02_mapper_equivalence():
    all16 = list(range(1 << 16))
    oracle16 = [naive_riu2(c, 16) for c in all16]
    assert Riu2Mapper(16).map_array(np.array(all16, dtype=np.uint32)).tolist() == oracle16
    assert [counted_riu2(c, 16) for c in all16] == oracle16

    rng = np.random.default_rng(2024)
    sample24 = rng.integers(0, 1 << 24, size=1_000_000, dtype=np.uint32)
    oracle24 = [counted_riu2(c, 24) for c in sample24.tolist()]
    assert Riu2Mapper(24).map_array(sample24).tolist() == oracle24
    assert [naive_riu2(c, 24) for c in sample24[:10_000].tolist()] == oracle24[:10_000]
    _ok(2, "riu2 mapping equals the scalar oracle on all 2^16 codes and 10^6 random P=24 codes")


def _acceptance_images(count=20, size=64, seed=777):
    rng = np.random.default_rng(seed)
    return [random_8bit(rng, size, size) for _ in range(count)]


def _map_histograms(maps):
    out = {}
    for comp in "SMDC":
        arr = maps.component(comp)
        width = 2 if comp == "C" else maps.P + 2
        out[comp] = np.bincount(arr.ravel(), minlength=width)
    return out


def test_c03_rotation_invariance():
    checked = 0
    for arr in _acceptance_images():
        for P in (8, 16, 24):
            for R in (2.0, 3.0):
                base = _map_histograms(extract_maps(GrayImage(arr), P, R))
                rot = _map_histograms(extract_maps(GrayImage(np.rot90(arr).copy()), P, R))
                for comp in "SMDC":
                    assert np.array_equal(base[comp], rot[comp]), (P, R, comp)
                checked += 1
    assert checked == 20 * 3 * 2
    _ok(3, "riu2 map histograms exactly invariant under rot90 for 120 image/geometry cases")


def test_c04_affine_invariance():
    for arr in _acceptance_images():
        for P in (8, 16, 24):
            for R in (2.0, 3.0):
                base = extract_maps(GrayImage(arr), P, R)
                for a in (0.5, 3.0):
                    for b in (-10.0, 40.0):
                        other = extract_maps(GrayImage(a * arr + b), P, R)
                        for comp in "SMDC":
                            assert np.array_equal(
                                base.component(comp), other.component(comp)
                            ), (P, R, a, b, comp)
                        assert other.c_m == base.c_m and other.c_I == base.c_I
    _ok(4, "maps exactly invariant under intensity scale/shift (a in {0.5,3}, b in {-10,40})")


def _random_scheme(rnd):
    base = [c for c in "SMD" if rnd.random() < 0.7] or [rnd.choice("SMD")]
    rnd.shuffle(base)
    groups, current = [], []
    for comp in base:
        current.append(comp)
        if rnd.random() < 0.5:
            groups.append(current)
            current = []
    if current:
        groups.append(current)
    if rnd.random() < 0.5:
        g = rnd.choice(groups)
        g.insert(rnd.randrange(len(g) + 1), "C")
    return "_".join("/".join(g) for g in groups)


def test_c05_dimension_rule():
    assert scheme_dimension(parse_scheme("S/M/D/C"), 8) == 2000
    assert scheme_dimension(parse_scheme("S"), 8) == 10
    rnd = random.Random(123)
    for _ in range(50):
        text = _random_scheme(rnd)
        P = rnd.randint(4, 24)
        got = scheme_dimension(parse_scheme(text), P)
        want = naive_scheme_dimension(naive_scheme_groups(text), P)
        assert got == want, (text, P)
    _ok(5, "dimension rule matches bin-counting oracle on 50 random schemes (plus 2000/10)")


def test_c06_chi_square_contract():
    rng = np.random.default_rng(606)
    for _ in range(100):
        n = int(rng.integers(4, 64))
        t = rng.uniform(0.0, 1.0, n)
        m = rng.uniform(0.0, 1.0, n)
        d = chi_square(t, m)
        assert d >= 0.0
        assert d == chi_square(m, t)
        assert chi_square(t, t) == 0.0
        pad = rng.integers(1, 8)
        assert chi_square(np.concatenate([t, np.zeros(pad)]),
                          np.concatenate([m, np.zeros(pad)])) == d

    for _ in range(10):
        train = rng.uniform(0.0, 1.0, (5, 24))
        models = ModelSet(list(train), list(range(5)))
        lam = float(rng.uniform(0.1, 50.0))
        scaled = ModelSet(list(train * lam), list(range(5)))
        for _ in range(10):
            t = rng.uniform(0.0, 1.0, 24)
            assert classify(t, models)[:2] == classify(t * lam, scaled)[:2]
    _ok(6, "chi-square semimetric + zero-bin convention + rescale-stable argmin")


def test_c07_brute_force_pipeline_oracle():
    rng = np.random.default_rng(707)
    images = [random_8bit(rng, 32, 32) for _ in range(10)]
    # (10, 2.5): P not a multiple of 4 and an inner radius of 1.5; (24, 3)
    # is the paper's widest geometry. Three images each keep the oracle fast.
    runs = [(arr, geometry) for arr in images for geometry in ((8, 2.0), (16, 3.0))]
    runs += [(arr, geometry) for arr in images[:3] for geometry in ((10, 2.5), (24, 3.0))]
    schemes = ("S", "S/M/D/C", "S_D_M/C")
    for arr, (P, R) in runs:
        maps = extract_maps(GrayImage(arr), P, R)
        for text in schemes:
            fast = build_histogram(maps, parse_scheme(text)).bins
            slow = naive_histogram(arr, P, R, text)
            assert np.array_equal(fast, slow), (P, R, text)
    count = len(runs) * len(schemes)
    _ok(7, f"optimized pipeline bitwise-matches the per-pixel loop oracle ({count} histograms)")


def test_c08_synthetic_end_to_end(tmp_path):
    start = time.perf_counter()
    spec = make_synthetic_suite(tmp_path / "suite", seed=7)
    report = run_suite(spec, "S/M/D/C", 8, 2.0, workers=1)
    elapsed = time.perf_counter() - start
    assert report.accuracy == 1.0
    assert elapsed < 10.0, f"took {elapsed:.1f} s"
    _ok(8, f"3-class synthetic suite at accuracy 1.0 in {elapsed:.1f} s single-threaded")


def test_c09_bench_determinism_across_workers(tmp_path):
    make_synthetic_suite(tmp_path / "suite", seed=7, classes=3,
                         samples_per_class=4, size=48)
    cfg = tmp_path / "bench.matrix"
    cfg.write_text(
        "schemes = CLBP_S, CLDP_S/M/D/C\n"
        "geometries = (8,2)\n"
        "suites = suite/suite.cfg\n"
    )

    def run(tag, workers):
        table = tmp_path / f"{tag}.table"
        csv_path = tmp_path / f"{tag}.csv"
        code = main(["bench", str(cfg), "--quiet", "--workers", str(workers),
                     "--table", str(table), "--out", str(csv_path)])
        assert code == 0
        return table.read_bytes(), csv_path.read_bytes()

    assert run("w1", 1) == run("w8", 8)
    _ok(9, "bench outputs byte-identical for 1 and 8 workers")


@pytest.fixture(scope="module")
def outex_suites():
    from cldp import load_suite_config

    names = ("outex_tc10.suite", "outex_tc12_t184.suite", "outex_tc12_horizon.suite")
    return [load_suite_config(os.path.join(CONFIG_DIR, n)) for n in names]


@pytest.fixture(scope="module")
def outex_cache(tmp_path_factory):
    configured = os.environ.get("CLDP_CACHE_DIR")
    return configured or str(tmp_path_factory.mktemp("outex-cache"))


def _suite_averages(suites, schemes, P, R, cache_dir):
    """{scheme: (mean accuracy over suites in percent, {suite: accuracy})}
    from one run_matrix at (P, R), which reads each image once."""
    matrix = ExperimentMatrix(schemes=tuple(schemes), geometries=((P, R),), suites=tuple(suites))
    report = run_matrix(matrix, cache_dir=cache_dir, workers=0)
    failed = [f"{c.scheme} {c.suite}: {c.error}" for c in report.cells if c.error is not None]
    assert not failed, failed
    averages = {}
    for scheme in schemes:
        accs = {c.suite: 100.0 * c.accuracy for c in report.cells
                if c.scheme == scheme and c.suite in report.suite_names}
        averages[scheme] = (sum(accs.values()) / len(accs), accs)
    return averages


@pytest.fixture(scope="module")
def pair_scores_8_2(outex_suites, outex_cache):
    schemes = (
        "CLBP_S", "CLDP_S/D",
        "CLBP_M", "CLDP_M/D",
        "CLBP_M/C", "CLDP_M/D/C",
        "CLBP_S_M/C", "CLDP_S_D_M/C",
    )
    averages = _suite_averages(outex_suites, schemes, 8, 2.0, outex_cache)
    return {s: avg for s, (avg, _) in averages.items()}


@needs_outex
def test_c10_best_scheme_matches_published_accuracy(outex_suites, outex_cache):
    avg, accs = _suite_averages(outex_suites, ["CLDP_S/M/D/C"], 8, 3.0,
                                outex_cache)["CLDP_S/M/D/C"]
    tc10 = accs["TC10"]
    assert abs(avg - 97.14) <= 1.5, f"three-suite average {avg:.2f} vs 97.14"
    assert abs(tc10 - 99.32) <= 1.5, f"TC10 {tc10:.2f} vs 99.32"
    _ok(10, f"CLDP_S/M/D/C (8,3): avg {avg:.2f} (ref 97.14), TC10 {tc10:.2f} (ref 99.32)")


@needs_outex
def test_c11_clbp_baseline_and_pairwise_ordering(outex_suites, outex_cache,
                                                 pair_scores_8_2):
    avg, _ = _suite_averages(outex_suites, ["CLBP_S/M/C"], 24, 3.0, outex_cache)["CLBP_S/M/C"]
    assert abs(avg - 96.28) <= 1.5, f"three-suite average {avg:.2f} vs 96.28"
    pairs = [
        ("CLBP_S", "CLDP_S/D"),
        ("CLBP_M", "CLDP_M/D"),
        ("CLBP_M/C", "CLDP_M/D/C"),
        ("CLBP_S_M/C", "CLDP_S_D_M/C"),
    ]
    for clbp, cldp in pairs:
        assert pair_scores_8_2[cldp] > pair_scores_8_2[clbp], (
            f"{cldp} {pair_scores_8_2[cldp]:.2f} <= {clbp} {pair_scores_8_2[clbp]:.2f}"
        )
    _ok(11, f"CLBP_S/M/C (24,3) avg {avg:.2f} (ref 96.28); all four CLDP>CLBP pairs hold at (8,2)")


@needs_outex
def test_c12_derivative_gain_at_8_2(pair_scores_8_2):
    gain = pair_scores_8_2["CLDP_S/D"] - pair_scores_8_2["CLBP_S"]
    assert gain >= 5.0, f"gain {gain:.2f} < 5"
    _ok(12, f"CLDP_S/D beats CLBP_S by {gain:.2f} points at (8,2) (ref 8.34)")
