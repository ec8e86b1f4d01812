import collections
import csv
import functools
import hashlib
import math
import multiprocessing
import os
import shutil
import struct
import time

import numpy as np
import pytest

from cldp import (
    CacheError,
    ConfigError,
    DatasetError,
    ExperimentMatrix,
    FeatureCache,
    ModelSet,
    SuiteError,
    SuiteSpec,
    atomic_write_text,
    build_histogram,
    evaluate,
    extract_maps,
    histogram_for_file,
    load_manifest,
    load_matrix_config,
    load_suite_config,
    make_synthetic_suite,
    parse_scheme,
    run_matrix,
    run_suite,
    save_pgm,
)
from cldp import suite as suite_module
from cldp.histogram import _parse_scheme
from cldp.sampler import OffsetSampler
from cldp.suite import _WINDOW_PER_WORKER, _seal, _unseal, atomic_writer, map_ordered
from conftest import SharedLog, gray, random_8bit


def _tiny_suite(tmp_path, name="tiny", classes=2, samples=2, size=32, seed=3):
    spec = make_synthetic_suite(tmp_path / name, seed=seed, classes=classes,
                                samples_per_class=samples, size=size)
    return spec


def _renamed(spec, name):
    return SuiteSpec(name, spec.train, spec.test, expected=spec.expected)


def test_atomic_write_leaves_no_temp_files(tmp_path):
    target = tmp_path / "out" / "data.txt"
    atomic_write_text(target, "hello\n")
    assert target.read_text() == "hello\n"
    with atomic_writer(target) as fh:
        fh.write(b"\x00\x01")
    assert target.read_bytes() == b"\x00\x01"
    assert os.listdir(target.parent) == ["data.txt"]


def test_suite_spec_validates_labels_and_counts(tmp_path):
    img_dir = tmp_path / "images"
    img_dir.mkdir()
    for name in ("a.pgm", "b.pgm"):
        save_pgm(gray(np.zeros((16, 16))), img_dir / name)
    (tmp_path / "train.csv").write_text("a.pgm,0\nb.pgm,1\n")
    (tmp_path / "test.csv").write_text("a.pgm,0\n")
    train = load_manifest(tmp_path / "train.csv", img_dir, "native-csv")
    test = load_manifest(tmp_path / "test.csv", img_dir, "native-csv")
    with pytest.raises(ValueError, match="labels"):
        SuiteSpec("s", train, test)
    with pytest.raises(ValueError, match="expected 5 training"):
        SuiteSpec("s", train, train, expected=(5, 2))
    ok = SuiteSpec("s", train, train, expected=(2, 2))
    assert ok.name == "s"
    with pytest.raises(ValueError, match="^suite needs a name$"):
        SuiteSpec("", train, train)


def test_load_suite_config_happy_path(tmp_path):
    spec = _tiny_suite(tmp_path)
    loaded = load_suite_config(tmp_path / "tiny" / "suite.cfg")
    assert loaded.name == spec.name
    assert len(loaded.train) == len(spec.train)
    assert loaded.train.entries == spec.train.entries


def test_load_suite_config_missing_root_is_actionable(tmp_path):
    cfg = tmp_path / "bad.suite"
    cfg.write_text(
        "name = TC10\n"
        "root = /nonexistent/outex\n"
        "train_manifest = train.txt\n"
        "test_manifest = test.txt\n"
        "format = outex-index\n"
    )
    with pytest.raises(DatasetError) as err:
        load_suite_config(cfg)
    msg = str(err.value)
    assert "/nonexistent/outex" in msg
    assert "mogrify" in msg and "OUTEX_ROOT" in msg


def test_load_suite_config_missing_manifest(tmp_path):
    (tmp_path / "images").mkdir()
    cfg = tmp_path / "bad.suite"
    cfg.write_text(
        "name = x\nroot = images\ntrain_manifest = nope.csv\ntest_manifest = nope.csv\n"
    )
    with pytest.raises(DatasetError, match="cannot read manifest"):
        load_suite_config(cfg)


def test_load_suite_config_rejects_bad_files(tmp_path):
    cfg = tmp_path / "a.suite"
    cfg.write_text("name = x\n")
    with pytest.raises(ConfigError, match="missing required key"):
        load_suite_config(cfg)
    cfg.write_text("name = x\nname = y\n")
    with pytest.raises(ConfigError, match="duplicate"):
        load_suite_config(cfg)
    cfg.write_text("just some words\n")
    with pytest.raises(ConfigError, match="key = value"):
        load_suite_config(cfg)


def test_load_suite_config_expands_env_vars(tmp_path, monkeypatch):
    _tiny_suite(tmp_path)
    monkeypatch.setenv("TINY_ROOT", str(tmp_path / "tiny"))
    cfg = tmp_path / "env.suite"
    cfg.write_text(
        "name = env\n"
        "root = $TINY_ROOT/images\n"
        "train_manifest = $TINY_ROOT/train.csv\n"
        "test_manifest = $TINY_ROOT/test.csv\n"
    )
    assert load_suite_config(cfg).name == "env"


def test_make_synthetic_suite_is_deterministic(tmp_path):
    make_synthetic_suite(tmp_path / "a", seed=7, classes=3, samples_per_class=2, size=32)
    make_synthetic_suite(tmp_path / "b", seed=7, classes=3, samples_per_class=2, size=32)
    files_a = sorted(p.relative_to(tmp_path / "a") for p in (tmp_path / "a").rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(tmp_path / "b") for p in (tmp_path / "b").rglob("*") if p.is_file())
    assert files_a == files_b
    for rel in files_a:
        assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes()
    make_synthetic_suite(tmp_path / "c", seed=8, classes=3, samples_per_class=2, size=32)
    img = files_a[0]
    images_a = sorted((tmp_path / "a" / "images").iterdir())
    images_c = sorted((tmp_path / "c" / "images").iterdir())
    assert any(x.read_bytes() != y.read_bytes() for x, y in zip(images_a, images_c))
    assert img is not None


def test_make_synthetic_suite_naming_and_counts(tmp_path):
    spec = make_synthetic_suite(tmp_path, seed=5, classes=4, samples_per_class=3, size=32)
    assert spec.name == "synth-4x3-32px-seed5"
    assert len(spec.train) == 12 and len(spec.test) == 12
    assert spec.train.labels() == [0, 1, 2, 3]
    with pytest.raises(ValueError):
        make_synthetic_suite(tmp_path / "x", classes=1)
    with pytest.raises(ValueError):
        make_synthetic_suite(tmp_path / "y", size=8)


def test_synthetic_suite_classifies_perfectly(tmp_path):
    spec = make_synthetic_suite(tmp_path, seed=7)
    report = run_suite(spec, "S/M/D/C", 8, 2.0)
    assert report.accuracy == 1.0
    assert report.suite == spec.name


def test_run_suite_keeps_scheme_text_verbatim(tmp_path):
    spec = _tiny_suite(tmp_path)
    report = run_suite(spec, "CLDP_S/D", 8, 2.0)
    assert report.scheme == "CLDP_S/D"


def test_run_suite_rejects_derivative_below_r2(tmp_path):
    spec = _tiny_suite(tmp_path)
    with pytest.raises(ValueError, match="R >= 2"):
        run_suite(spec, "S/M/D/C", 8, 1.0)


def test_run_suite_worker_count_does_not_change_report(tmp_path):
    spec = _tiny_suite(tmp_path, samples=3)
    serial = run_suite(spec, "S/M/C", 8, 2.0)
    parallel = run_suite(spec, "S/M/C", 8, 2.0, workers=4)
    assert serial.to_json() == parallel.to_json()


def test_run_suite_cache_round_trip(tmp_path):
    spec = _tiny_suite(tmp_path)
    cache_dir = tmp_path / "cache"
    cold = run_suite(spec, "S/M/D/C", 8, 2.0, cache_dir=cache_dir)
    assert list(cache_dir.rglob("*.maps"))
    assert not list(cache_dir.rglob("*.hist"))
    warm = run_suite(spec, "S/M/D/C", 8, 2.0, cache_dir=cache_dir)
    assert warm.to_json() == cold.to_json()
    uncached = run_suite(spec, "S/M/D/C", 8, 2.0)
    assert uncached.to_json() == cold.to_json()


# A .maps entry damaged in one way, and the reason its CacheError gives. All
# but the first keep a valid seal, so only the payload checks can catch them.
_DAMAGED_MAPS = {
    "unsealed": (lambda entry: b"not pattern maps", "truncated cache entry"),
    "magic": (lambda entry: _seal(b"CLDPM0" + _unseal(entry)[6:]), "bad maps magic"),
    "geometry": (lambda entry: _seal(_unseal(entry)[:6] + struct.pack("<I", 16)
                                     + _unseal(entry)[10:]), "maps entry is for P=16, R=2.0"),
    "length": (lambda entry: _seal(_unseal(entry) + b"\0"), "maps payload length mismatch"),
}


@pytest.mark.parametrize("damage", sorted(_DAMAGED_MAPS))
def test_run_suite_corrupt_cache_names_sample(tmp_path, damage):
    rewrite, reason = _DAMAGED_MAPS[damage]
    spec = _tiny_suite(tmp_path)
    cache_dir = tmp_path / "cache"
    run_suite(spec, "S", 8, 2.0, cache_dir=cache_dir)
    for path in cache_dir.rglob("*.maps"):
        path.write_bytes(rewrite(path.read_bytes()))
    with pytest.raises(CacheError, match=f"corrupt cache entry for sample c0.*: {reason}"):
        run_suite(spec, "S", 8, 2.0, cache_dir=cache_dir)


def test_feature_cache_rejects_flipped_histogram_bit(tmp_path):
    rng = np.random.default_rng(61)
    scheme = parse_scheme("S/M")
    hist = build_histogram(extract_maps(gray(random_8bit(rng, 20, 20)), 8, 2.0), scheme)
    cache = FeatureCache(tmp_path / "cache")
    key = "f" * 64
    cache.store_hist(key, hist)
    path = tmp_path / "cache" / key[:2] / f"{key}.hist"
    data = bytearray(path.read_bytes())
    data[30] ^= 0x01  # lowest mantissa bit of bin 1, inside the payload
    path.write_bytes(bytes(data))
    with pytest.raises(CacheError, match="corrupt cache entry for sample x.pgm"):
        cache.load_hist(key, scheme, "x.pgm")


def test_cache_skips_histograms_for_fractional_radius(tmp_path):
    spec = _tiny_suite(tmp_path)
    cache_dir = tmp_path / "cache"
    run_suite(spec, "S/M", 8, 2.5, cache_dir=cache_dir)
    assert list(cache_dir.rglob("*.maps"))
    assert not list(cache_dir.rglob("*.hist"))
    again = run_suite(spec, "S/M", 8, 2.5, cache_dir=cache_dir)
    assert again.to_json() == run_suite(spec, "S/M", 8, 2.5).to_json()


def test_feature_cache_maps_round_trip(tmp_path):
    rng = np.random.default_rng(60)
    maps = extract_maps(gray(random_8bit(rng, 20, 20)), 8, 2.0)
    cache = FeatureCache(tmp_path / "cache")
    key = cache.maps_key("f" * 64, 8, 2.0)
    assert cache.load_maps(key, 8, 2.0, "x.pgm") is None
    cache.store_maps(key, maps)
    back = cache.load_maps(key, 8, 2.0, "x.pgm")
    assert back is not None
    for comp in "SMDC":
        assert np.array_equal(back.component(comp), maps.component(comp))
    assert back.region == maps.region
    assert (back.c_m, back.c_I) == (maps.c_m, maps.c_I)
    assert (back.intensity_lo, back.intensity_hi) == (maps.intensity_lo, maps.intensity_hi)


def test_feature_cache_keys_separate_variants():
    h = "a" * 64
    keys = {
        FeatureCache.maps_key(h, 8, 2.0),
        FeatureCache.maps_key(h, 8, 3.0),
        FeatureCache.maps_key(h, 8, 1.0),
        FeatureCache.maps_key(h, 16, 2.0),
    }
    assert len(keys) == 4
    # The deriv= field follows from R; these are the keys of existing caches.
    assert FeatureCache.maps_key(h, 8, 3.0) == \
        "44fdd4928d897251680d3897949a891f69d54e4f98b723796342ad4d4f85bdc1"
    assert FeatureCache.maps_key(h, 8, 1.0) == \
        "ff15b7e2f7b3e6828f7cb5e45367fcf594c79da0baf2072b77f5af7d085b86d2"


def test_cache_key_formats_radius_as_float(tmp_path):
    spec = _tiny_suite(tmp_path)
    rel = spec.train.entries[0][0]
    cache = FeatureCache(tmp_path / "cache")
    scheme = parse_scheme("S/M")
    as_int = histogram_for_file(rel, spec.train.abs_path(rel), scheme, 8, 3, cache)
    as_float = histogram_for_file(rel, spec.train.abs_path(rel), scheme, 8, 3.0, cache)
    assert as_int.bins.tobytes() == as_float.bins.tobytes()
    assert len(list((tmp_path / "cache").rglob("*.maps"))) == 1
    assert not list((tmp_path / "cache").rglob("*.hist"))


def test_each_sample_is_read_once(tmp_path, monkeypatch):
    """One open per sample and pass: with a cache the bytes that are hashed
    are the bytes that are decoded."""
    spec = _tiny_suite(tmp_path)
    samples = {spec.train.abs_path(rel) for rel, _ in spec.train.entries}
    samples |= {spec.test.abs_path(rel) for rel, _ in spec.test.entries}
    opened = []
    real_open = open

    def counting_open(file, *args, **kwargs):
        if str(file) in samples:
            opened.append(str(file))
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr("builtins.open", counting_open)
    rel = spec.train.entries[0][0]
    path = spec.train.abs_path(rel)
    scheme = parse_scheme("S/M/D/C")
    for cache in (None, FeatureCache(tmp_path / "one"), FeatureCache(tmp_path / "one")):
        histogram_for_file(rel, path, scheme, 8, 2.0, cache)  # no cache, miss, hit
        assert opened == [path]
        opened.clear()
    for _ in ("cold", "warm"):
        run_suite(spec, "S/M/D/C", 8, 2.0, cache_dir=tmp_path / "two")
        assert sorted(opened) == sorted(samples)
        opened.clear()


def test_histogram_for_file_takes_a_scheme_string(tmp_path):
    """A scheme string gives the bins of its parsed form, as run_suite's
    scheme does, with and without a cache (cold, then warm)."""
    spec = _tiny_suite(tmp_path)
    rel = spec.train.entries[0][0]
    path = spec.train.abs_path(rel)
    want = histogram_for_file(rel, path, parse_scheme("S/M"), 8, 2.0)
    for cache in (None, FeatureCache(tmp_path / "cache"), FeatureCache(tmp_path / "cache")):
        got = histogram_for_file(rel, path, "S/M", 8, 2.0, cache)
        assert got.bins.tobytes() == want.bins.tobytes()
        assert got.scheme == want.scheme


def test_histogram_for_file_missing_file(tmp_path):
    with pytest.raises(SuiteError, match="gone.pgm"):
        histogram_for_file("gone.pgm", str(tmp_path / "gone.pgm"),
                           parse_scheme("S"), 8, 2.0)


@pytest.mark.parametrize("P, R", [(3, 2.0), (25, 2.0), (8, 0.5), (8, math.inf), (8, math.nan)])
def test_bad_geometry_raises_before_any_sample_is_read(tmp_path, monkeypatch, P, R):
    spec = _tiny_suite(tmp_path)
    opened = []
    real_open = open

    def counting_open(file, *args, **kwargs):
        opened.append(str(file))
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr("builtins.open", counting_open)
    rel = spec.train.entries[0][0]
    cache_dir = tmp_path / "cache"
    with pytest.raises(ValueError, match="must be"):
        histogram_for_file(rel, spec.train.abs_path(rel), parse_scheme("S"), P, R,
                           FeatureCache(cache_dir))
    with pytest.raises(ValueError, match="must be"):
        run_suite(spec, "S", P, R, cache_dir=tmp_path / "other")
    with pytest.raises(ValueError, match="must be"):
        ExperimentMatrix(schemes=("CLBP_S",), geometries=((8, 2.0), (P, R)), suites=(spec,))
    assert opened == []
    assert not list(cache_dir.iterdir()) and not (tmp_path / "other").exists()


def test_experiment_matrix_validates_derivative_feasibility(tmp_path):
    spec = _tiny_suite(tmp_path)
    with pytest.raises(ValueError, match="R >= 2"):
        ExperimentMatrix(schemes=("CLDP_S/D",), geometries=((8, 1.0),), suites=(spec,))
    ok = ExperimentMatrix(schemes=("CLBP_S",), geometries=((8, 1.0),), suites=(spec,))
    assert ok.geometries == ((8, 1.0),)


def test_run_matrix_appends_avg3(tmp_path):
    base = _tiny_suite(tmp_path)
    suites = tuple(_renamed(base, n) for n in ("s1", "s2", "s3"))
    matrix = ExperimentMatrix(schemes=("CLBP_S", "CLDP_S/D"),
                              geometries=((8, 2.0),), suites=suites)
    report = run_matrix(matrix)
    assert not report.failed
    rows = {(c.scheme, c.suite): c for c in report.cells}
    avg = rows[("CLBP_S", "AVG3")]
    members = [rows[("CLBP_S", n)].accuracy for n in ("s1", "s2", "s3")]
    assert avg.accuracy == sum(members) / 3
    assert ("CLBP_S", "AVG2-TC12") not in rows


def test_run_matrix_appends_avg2_for_tc12_pairs(tmp_path):
    base = _tiny_suite(tmp_path)
    suites = (_renamed(base, "TC12-t184"), _renamed(base, "TC12-horizon"))
    matrix = ExperimentMatrix(schemes=("CLDP_S/D",), geometries=((8, 2.0),), suites=suites)
    report = run_matrix(matrix)
    rows = {(c.scheme, c.suite): c for c in report.cells}
    pair = rows[("CLDP_S/D", "AVG2-TC12")]
    want = (rows[("CLDP_S/D", "TC12-t184")].accuracy
            + rows[("CLDP_S/D", "TC12-horizon")].accuracy) / 2
    assert pair.accuracy == want
    assert ("CLDP_S/D", "AVG3") not in rows


def test_matrix_table_shows_the_mean_of_the_suite_cells(tmp_path):
    """The table's value is the AVG3 row's mean over the three suite cells,
    and AVG2-TC12 averages the TC12 suites, even when a suite is named like
    an aggregate row."""
    suites = tuple(
        _renamed(make_synthetic_suite(tmp_path / name, seed=seed, classes=9,
                                      samples_per_class=2, size=16), name)
        for name, seed in (("x", 3), ("TC12a", 4), ("AVG2-TC12", 5)))
    matrix = ExperimentMatrix(schemes=("CLBP_S/M/C",), geometries=((8, 1.0),), suites=suites)
    report = run_matrix(matrix)
    *members, avg3, avg2 = report.cells
    accuracies = [c.accuracy for c in members]
    assert [c.suite for c in members] == ["x", "TC12a", "AVG2-TC12"]
    assert len(set(accuracies)) == 3
    assert (avg3.suite, avg3.accuracy) == ("AVG3", sum(accuracies) / 3)
    assert (avg2.suite, avg2.accuracy) == ("AVG2-TC12", (accuracies[1] + accuracies[2]) / 2)
    assert report.to_table_text().splitlines()[1].split() == [
        "CLBP_S/M/C", f"{100.0 * sum(accuracies) / 3:.2f}"]


def test_run_matrix_records_failures(tmp_path):
    spec = _tiny_suite(tmp_path)
    victim = tmp_path / "tiny" / "images" / spec.test.entries[0][0]
    victim.unlink()
    matrix = ExperimentMatrix(schemes=("CLBP_S",), geometries=((8, 2.0),),
                              suites=(_renamed(spec, "s1"),))
    report = run_matrix(matrix)
    assert report.failed
    cell = report.cells[0]
    assert cell.accuracy is None and cell.error is not None
    csv_text = report.to_csv_text()
    assert csv_text.splitlines()[0] == "scheme,P,R,suite,accuracy,ties"
    assert "CLBP_S,8,2,s1,FAILED,0" in csv_text


def test_matrix_report_table_layout(tmp_path):
    base = _tiny_suite(tmp_path)
    matrix = ExperimentMatrix(
        schemes=("CLBP_S", "CLDP_S/D"),
        geometries=((8, 2.0), (8, 3.0)),
        suites=(_renamed(base, "s1"),),
    )
    report = run_matrix(matrix)
    text = report.to_table_text()
    lines = text.splitlines()
    assert lines[0].split() == ["scheme", "(8,2)", "(8,3)"]
    assert lines[1].startswith("CLBP_S")
    assert lines[2].startswith("CLDP_S/D")
    assert lines[3].startswith("Delta(acc)")
    clbp = float(lines[1].split()[-1])
    cldp = float(lines[2].split()[-1])
    delta = float(lines[3].split()[-1])
    assert delta == pytest.approx(cldp - clbp, abs=0.011)
    assert 0.0 <= clbp <= 100.0


def test_matrix_report_csv_parses_back(tmp_path):
    base = _tiny_suite(tmp_path)
    names = ("s1", "TC12, horizon", 'say "t184"')  # quoted, RFC 4180
    matrix = ExperimentMatrix(schemes=("CLBP_S",), geometries=((8, 2.0),),
                              suites=tuple(_renamed(base, n) for n in names))
    report = run_matrix(matrix)
    header, *rows = csv.reader(report.to_csv_text().splitlines())
    assert header == ["scheme", "P", "R", "suite", "accuracy", "ties"]
    assert [r[3] for r in rows] == [*names, "AVG3"]
    for fields, cell in zip(rows, report.cells):
        assert fields[0] == "CLBP_S"
        assert (int(fields[1]), float(fields[2])) == (8, 2.0)
        assert float(fields[4]) == cell.accuracy


def test_load_matrix_config(tmp_path):
    _tiny_suite(tmp_path)
    cfg = tmp_path / "m.matrix"
    cfg.write_text(
        "schemes = CLBP_S, CLDP_S/D\n"
        "geometries = (8,2), (16,3)\n"
        "suites = tiny/suite.cfg\n"
    )
    matrix = load_matrix_config(cfg)
    assert matrix.schemes == ("CLBP_S", "CLDP_S/D")
    assert matrix.geometries == ((8, 2.0), (16, 3.0))
    assert matrix.suites[0].name.startswith("synth-")


def test_load_matrix_config_rejects_bad_input(tmp_path):
    _tiny_suite(tmp_path)
    cfg = tmp_path / "m.matrix"
    cfg.write_text("schemes = S\nsuites = tiny/suite.cfg\n")
    with pytest.raises(ConfigError, match="missing required key"):
        load_matrix_config(cfg)
    cfg.write_text("schemes = S\ngeometries = 8x2\nsuites = tiny/suite.cfg\n")
    with pytest.raises(ConfigError, match="geometries"):
        load_matrix_config(cfg)
    cfg.write_text("schemes = S/D\ngeometries = (8,1)\nsuites = tiny/suite.cfg\n")
    with pytest.raises(ValueError, match="R >= 2"):
        load_matrix_config(cfg)
    cfg.write_text("schemes = S/Q\ngeometries = (8,2)\nsuites = tiny/suite.cfg\n")
    with pytest.raises(ValueError):
        load_matrix_config(cfg)
    cfg.write_text("schemes = , \ngeometries = (8,2)\nsuites = tiny/suite.cfg\n")
    with pytest.raises(ConfigError, match="no schemes listed"):
        load_matrix_config(cfg)
    cfg.write_text("schemes = S\ngeometries = (8,2)\nsuites = ,\n")
    with pytest.raises(ConfigError, match="no suites listed"):
        load_matrix_config(cfg)


def test_config_comment_and_blank_lines_are_skipped(tmp_path):
    _tiny_suite(tmp_path)
    cfg = tmp_path / "m.matrix"
    cfg.write_text("# a matrix\n\n  # indented comment\t\nschemes = CLBP_S\n \t\n"
                   "geometries = (8,2)\r\n\r\nsuites = tiny/suite.cfg\n#\n", encoding="utf-8")
    matrix = load_matrix_config(cfg)
    assert (matrix.schemes, matrix.geometries) == (("CLBP_S",), ((8, 2.0),))


CONFIGS = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "configs")


@pytest.mark.parametrize("name", sorted(os.listdir(CONFIGS)))
def test_every_shipped_config_parses(monkeypatch, name):
    """Each file under configs/ reads as a config: without OUTEX_ROOT its
    only error is the absent dataset."""
    monkeypatch.delenv("OUTEX_ROOT", raising=False)
    loader = load_suite_config if name.endswith(".suite") else load_matrix_config
    with pytest.raises(DatasetError, match="does not exist"):
        loader(os.path.join(CONFIGS, name))


@pytest.mark.parametrize("geometries, want", [
    ("( 8 , 3 )", ((8, 3.0),)),
    ("(8,2) (8,3)", ((8, 2.0), (8, 3.0))),
    ("\t(8,2),(16,2.5) ,\x0c(8,3)\x0b", ((8, 2.0), (16, 2.5), (8, 3.0))),
    ("(8,2)(8,3)", ((8, 2.0), (8, 3.0))),
])
def test_load_matrix_config_reads_ascii_geometries(tmp_path, geometries, want):
    _tiny_suite(tmp_path)
    cfg = tmp_path / "m.matrix"
    cfg.write_text(f"schemes = CLBP_S\ngeometries = {geometries}\nsuites = tiny/suite.cfg\n",
                   encoding="utf-8", newline="")
    assert load_matrix_config(cfg).geometries == want


@pytest.mark.parametrize("geometries", [
    "(8,\u20033)", "(\u00a08,3)", "(8,2)\u00a0(8,3)", "(8,3.)", "(8,+3)", "(8,1e1)", "(8,3,4)",
    "((8,3))", "(8,3) x",
])
def test_load_matrix_config_reads_p_and_r_as_the_flags_do(tmp_path, geometries):
    """P is read as -P is (ascii_int) and R as -R is (ascii_radius): ASCII
    blanks around them are trimmed, a Unicode space is not."""
    _tiny_suite(tmp_path)
    cfg = tmp_path / "m.matrix"
    cfg.write_text(f"schemes = CLBP_S\ngeometries = {geometries}\nsuites = tiny/suite.cfg\n",
                   encoding="utf-8")
    with pytest.raises(ConfigError, match="cannot parse geometries"):
        load_matrix_config(cfg)


def test_config_lines_keys_and_items_are_trimmed_of_ascii_blanks(tmp_path):
    _tiny_suite(tmp_path)
    cfg = tmp_path / "m.matrix"
    cfg.write_text("\tschemes =\x0bCLBP_S ,\x0cCLDP_S/D\t\r\ngeometries = (8,2)\r"
                   "suites = ,tiny/suite.cfg,\n", encoding="utf-8", newline="")
    assert load_matrix_config(cfg).schemes == ("CLBP_S", "CLDP_S/D")


@pytest.mark.parametrize("schemes, error", [
    ("schemes\u00a0= CLBP_S", r"m\.matrix:1: unknown key 'schemes\\xa0'"),
    ("schemes = CLBP_S,\u00a0CLDP_S/D", r"got '\\xa0'"),
], ids=["key", "item"])
def test_config_unicode_space_is_part_of_a_key_or_item(tmp_path, schemes, error):
    """Config lines, keys, values and list items are trimmed of ASCII space,
    tab, VT and FF only, as manifest fields are: U+00A0 stays part of the
    key or the item, which then does not read."""
    _tiny_suite(tmp_path)
    cfg = tmp_path / "m.matrix"
    cfg.write_text(f"{schemes}\ngeometries = (8,2)\nsuites = tiny/suite.cfg\n", encoding="utf-8")
    with pytest.raises(ValueError, match=error):
        load_matrix_config(cfg)


@pytest.mark.parametrize("loader", [load_suite_config, load_matrix_config])
def test_config_not_utf8_cites_its_line(tmp_path, loader):
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(b"# caf\xc3\xa9\r\nname = caf\xe9\n")
    with pytest.raises(ConfigError, match=r"bad\.cfg:2: not UTF-8: invalid continuation byte"):
        loader(cfg)


def test_config_leading_byte_order_mark_is_not_part_of_the_first_key(tmp_path):
    _tiny_suite(tmp_path)
    suite_cfg = tmp_path / "tiny" / "suite.cfg"
    suite_cfg.write_bytes(b"\xef\xbb\xbf" + suite_cfg.read_bytes())
    assert load_suite_config(suite_cfg).expected == (4, 4)
    cfg = tmp_path / "m.matrix"
    cfg.write_text("\ufeffschemes = CLBP_S\ngeometries = (8,2)\nsuites = tiny/suite.cfg\n",
                   encoding="utf-8")
    assert load_matrix_config(cfg).schemes == ("CLBP_S",)
    cfg.write_bytes(b"\xef\xbb\xbfschemes = CLBP_S\ngeometries = (8,2)\xff\n")
    with pytest.raises(ConfigError, match=r"m\.matrix:2: not UTF-8"):
        load_matrix_config(cfg)


def test_config_unknown_key_cites_its_line(tmp_path):
    """A key outside a loader's list, such as a misspelt count guard, is an
    error rather than a key nobody reads."""
    _tiny_suite(tmp_path)
    suite_cfg = tmp_path / "tiny" / "suite.cfg"
    text = suite_cfg.read_text(encoding="utf-8")
    assert load_suite_config(suite_cfg).expected == (4, 4)
    suite_cfg.write_text(text + "expected_trian = 999\n", encoding="utf-8")
    with pytest.raises(ConfigError, match=r"suite\.cfg:8: unknown key 'expected_trian'"):
        load_suite_config(suite_cfg)
    suite_cfg.write_text("= x\n" + text, encoding="utf-8")
    with pytest.raises(ConfigError, match=r"suite\.cfg:1: unknown key ''"):
        load_suite_config(suite_cfg)
    cfg = tmp_path / "m.matrix"
    cfg.write_text("schemes = CLBP_S\ngeometries = (8,2)\nsuites = tiny/suite.cfg\n"
                   "schemse = CLDP_S_D\n", encoding="utf-8")
    with pytest.raises(ConfigError, match=r"m\.matrix:4: unknown key 'schemse'"):
        load_matrix_config(cfg)
    cfg.write_text("schemes = CLBP_S\ngeometries = (8,2)\nsuites = tiny/suite.cfg\n"
                   "format = native-csv\n", encoding="utf-8")
    with pytest.raises(ConfigError, match=r"m\.matrix:4: unknown key 'format'"):
        load_matrix_config(cfg)


def test_matrix_parses_each_scheme_once(tmp_path):
    _tiny_suite(tmp_path)
    cfg = tmp_path / "m.matrix"
    cfg.write_text(
        "schemes = CLBP_S, CLDP_S/D\n"
        "geometries = (8,2), (8,3)\n"
        "suites = tiny/suite.cfg\n"
    )
    _parse_scheme.cache_clear()
    run_matrix(load_matrix_config(cfg))
    assert _parse_scheme.cache_info().misses == 2


def test_matrix_progress_callback(tmp_path):
    base = _tiny_suite(tmp_path)
    seen = []
    matrix = ExperimentMatrix(schemes=("CLBP_S",), geometries=((8, 2.0),),
                              suites=(_renamed(base, "s1"),))
    run_matrix(matrix, progress=seen.append)
    assert seen == ["CLBP_S (8,2) s1"]


def _shared_train_suites(tmp_path):
    """Three suites with their own test splits and byte-identical training
    images, each under its own root, as the Outex suites all train on the
    same textures."""
    specs = [_tiny_suite(tmp_path, name=f"s{k}", classes=9, samples=2, size=20, seed=3 + k)
             for k in range(3)]
    for spec in specs[1:]:
        for rel, _ in specs[0].train.entries:
            shutil.copyfile(specs[0].train.abs_path(rel), spec.train.abs_path(rel))
    return tuple(_renamed(spec, f"s{k}") for k, spec in enumerate(specs))


def _evaluated_cell(spec, scheme, P, R):
    """(accuracy, ties) of one cell, composed from histogram_for_file and
    evaluate without a cache."""
    expr = parse_scheme(scheme)

    def hists(manifest):
        return [histogram_for_file(rel, manifest.abs_path(rel), expr, P, R)
                for rel, _ in manifest.entries]

    models = ModelSet(hists(spec.train), [label for _, label in spec.train.entries])
    report = evaluate(zip(hists(spec.test), [label for _, label in spec.test.entries]), models)
    return report.accuracy, report.ties


_FUSED_SCHEMES = ("CLBP_M", "CLDP_S_D_M/C")
_FUSED_GEOMETRIES = ((8, 2.0), (8, 3.0))


@pytest.mark.parametrize("workers", [1, 3])
def test_run_matrix_cells_equal_per_scheme_evaluation(tmp_path, workers):
    suites = _shared_train_suites(tmp_path)
    matrix = ExperimentMatrix(schemes=_FUSED_SCHEMES, geometries=_FUSED_GEOMETRIES,
                              suites=suites)
    want = {(scheme, P, R, spec.name): _evaluated_cell(spec, scheme, P, R)
            for scheme in _FUSED_SCHEMES for P, R in _FUSED_GEOMETRIES for spec in suites}
    order = [(scheme, P, R, name) for scheme in _FUSED_SCHEMES for P, R in _FUSED_GEOMETRIES
             for name in ("s0", "s1", "s2", "AVG3")]
    cache_dir = tmp_path / "cache"
    for run_cache in (None, cache_dir, cache_dir):  # no cache, cold, warm
        report = run_matrix(matrix, cache_dir=run_cache, workers=workers)
        assert not report.failed
        assert [(c.scheme, c.P, c.R, c.suite) for c in report.cells] == order
        got = {(c.scheme, c.P, c.R, c.suite): (c.accuracy, c.ties)
               for c in report.cells if c.suite != "AVG3"}
        assert got == want


@pytest.mark.parametrize("workers", [1, 3])
def test_run_matrix_builds_each_shared_training_split_once(tmp_path, monkeypatch, workers):
    """The three suites' training images are byte-identical under three
    roots: one ModelSet per (geometry, scheme), and the cells of
    test_run_matrix_cells_equal_per_scheme_evaluation."""
    suites = _shared_train_suites(tmp_path)
    matrix = ExperimentMatrix(schemes=_FUSED_SCHEMES, geometries=_FUSED_GEOMETRIES,
                              suites=suites)
    want = {(scheme, P, R, spec.name): _evaluated_cell(spec, scheme, P, R)
            for scheme in _FUSED_SCHEMES for P, R in _FUSED_GEOMETRIES for spec in suites}
    built = []
    real_model_set = suite_module.ModelSet

    def counting_model_set(histograms, labels):
        built.append(histograms[0].scheme)
        return real_model_set(histograms, labels)

    monkeypatch.setattr(suite_module, "ModelSet", counting_model_set)
    cache_dir = tmp_path / "cache"
    for run_cache in (None, cache_dir, cache_dir):  # no cache, cold, warm
        report = run_matrix(matrix, cache_dir=run_cache, workers=workers)
        got = {(c.scheme, c.P, c.R, c.suite): (c.accuracy, c.ties)
               for c in report.cells if c.suite != "AVG3"}
        assert got == want
        assert len(built) == len(_FUSED_GEOMETRIES) * len(_FUSED_SCHEMES)
        assert [str(b) for b in built] == [str(parse_scheme(s)) for s in _FUSED_SCHEMES] * 2
        built.clear()


def test_run_matrix_does_not_share_a_failed_training_split(tmp_path, monkeypatch):
    """The same corrupt training image in every suite: each suite's own
    train pass reads it, once for both geometries of its P, and fails
    naming it. The worker processes log the loads to a shared file."""
    suites = _shared_train_suites(tmp_path)
    victim = suites[0].train.entries[3][0]
    for spec in suites:
        with open(spec.train.abs_path(victim), "r+b") as fh:
            fh.write(b"XX")
    log = SharedLog(tmp_path / "loads.log")
    real_load_image = suite_module.load_image

    def recording_load_image(path, data=None):
        log.append(str(path))
        return real_load_image(path, data)

    monkeypatch.setattr(suite_module, "load_image", recording_load_image)
    matrix = ExperimentMatrix(schemes=_FUSED_SCHEMES, geometries=_FUSED_GEOMETRIES,
                              suites=suites)
    report = run_matrix(matrix, workers=3)
    for cell in report.cells:
        assert cell.accuracy is None
        if cell.suite != "AVG3":
            assert f"sample {victim}: not a P5 PGM" in cell.error
    victims = [spec.train.abs_path(victim) for spec in suites]
    assert sorted(p for p in log.lines() if p in victims) == sorted(victims)


def test_run_matrix_missing_test_image_fails_only_its_suite(tmp_path):
    suites = _shared_train_suites(tmp_path)
    matrix = ExperimentMatrix(schemes=_FUSED_SCHEMES, geometries=_FUSED_GEOMETRIES,
                              suites=suites)
    before = run_matrix(matrix).cells
    victim = suites[1].test.entries[4][0]
    os.unlink(suites[1].test.abs_path(victim))
    after = run_matrix(matrix, workers=3).cells
    assert len(after) == len(before)
    for old, new in zip(before, after):
        if new.suite == "s1":
            assert new.accuracy is None and victim in new.error
        elif new.suite == "AVG3":
            assert new.error == "aggregate over failed cells"
        else:
            assert new == old


def test_run_matrix_image_too_small_fails_only_its_suite(tmp_path):
    suites = _shared_train_suites(tmp_path)
    matrix = ExperimentMatrix(schemes=_FUSED_SCHEMES, geometries=((8, 3.0),), suites=suites)
    before = run_matrix(matrix).cells
    victim = suites[1].test.entries[4][0]
    save_pgm(gray(np.zeros((6, 6))), suites[1].test.abs_path(victim))
    after = run_matrix(matrix, workers=3).cells
    assert len(after) == len(before)
    for old, new in zip(before, after):
        if new.suite == "s1":
            assert new.accuracy is None
            assert new.error == f"sample {victim}: image 6x6 has no valid centers at R=3.0"
        elif new.suite == "AVG3":
            assert new.error == "aggregate over failed cells"
        else:
            assert new == old


def test_run_matrix_cold_cache_holds_one_maps_entry_per_input(tmp_path):
    suites = _shared_train_suites(tmp_path)
    matrix = ExperimentMatrix(schemes=_FUSED_SCHEMES, geometries=_FUSED_GEOMETRIES,
                              suites=suites)
    cache_dir = tmp_path / "cache"
    run_matrix(matrix, cache_dir=cache_dir, workers=3)
    contents = set()
    for spec in suites:
        for manifest in (spec.train, spec.test):
            for rel, _ in manifest.entries:
                with open(manifest.abs_path(rel), "rb") as fh:
                    contents.add(hashlib.sha256(fh.read()).hexdigest())
    assert len(contents) == 18 + 3 * 18
    assert not list(cache_dir.rglob("*.hist"))
    assert len(list(cache_dir.rglob("*.maps"))) == len(contents) * len(_FUSED_GEOMETRIES)


@pytest.mark.parametrize("workers", [1, 3])
def test_run_matrix_hashes_each_training_sample_once(tmp_path, monkeypatch, workers):
    """A run hashes each training file once, to find the shared training
    splits, and reads it again only to decode it on a cache miss, once per
    P; a test file is read once per P, and hashed then only with a cache.
    Both geometries have P = 8."""
    suites = _shared_train_suites(tmp_path)
    matrix = ExperimentMatrix(schemes=_FUSED_SCHEMES, geometries=_FUSED_GEOMETRIES,
                              suites=suites)
    kind = {}
    for spec in suites:
        for split, manifest in (("train", spec.train), ("test", spec.test)):
            for rel, _ in manifest.entries:
                path = manifest.abs_path(rel)
                with open(path, "rb") as fh:
                    kind[path] = kind[fh.read()] = split
    log = SharedLog(tmp_path / "calls.log")  # "open train", "sha256 test", ... from any process
    real_open, real_sha256 = open, hashlib.sha256

    def counting_open(file, *args, **kwargs):
        if str(file) in kind:
            log.append(f"open {kind[str(file)]}")
        return real_open(file, *args, **kwargs)

    def counting_sha256(data=b"", **kwargs):
        if isinstance(data, bytes) and data in kind:
            log.append(f"sha256 {kind[data]}")
        return real_sha256(data, **kwargs)

    monkeypatch.setattr("builtins.open", counting_open)
    monkeypatch.setattr(hashlib, "sha256", counting_sha256)
    per_suite, ps = 18, len({P for P, _ in _FUSED_GEOMETRIES})
    train, test = 3 * per_suite, ps * 3 * per_suite
    decoded = ps * per_suite  # one shared split, decoded once per P
    cache_dir = tmp_path / "cache"
    for run_cache, want in (
        (None, {("sha256", "train"): train, ("open", "train"): train + decoded,
                ("open", "test"): test}),
        (cache_dir, {("sha256", "train"): train, ("open", "train"): train + decoded,
                     ("sha256", "test"): test, ("open", "test"): test}),
        (cache_dir, {("sha256", "train"): train, ("open", "train"): train,
                     ("sha256", "test"): test, ("open", "test"): test}),
    ):
        assert not run_matrix(matrix, cache_dir=run_cache, workers=workers).failed
        assert collections.Counter(tuple(line.split()) for line in log.lines()) == want
        log.clear()


@pytest.mark.parametrize("workers", [1, 2])
def test_run_matrix_does_not_hash_a_training_split_no_other_suite_repeats(
        tmp_path, monkeypatch, workers):
    """Two suites with different training label sequences cannot share a
    split: each training file is opened only to be decoded, once per P,
    and hashed only to key a cache, in the same read."""
    suites = (_tiny_suite(tmp_path, name="a", classes=2, samples=3, size=20),
              _tiny_suite(tmp_path, name="b", classes=3, samples=2, size=20, seed=4))
    kind = {}
    for spec in suites:
        for split, manifest in (("train", spec.train), ("test", spec.test)):
            for rel, _ in manifest.entries:
                path = manifest.abs_path(rel)
                with open(path, "rb") as fh:
                    kind[path] = kind[fh.read()] = split
    log = SharedLog(tmp_path / "calls.log")
    real_open, real_sha256 = open, hashlib.sha256

    def counting_open(file, *args, **kwargs):
        if str(file) in kind:
            log.append(f"open {kind[str(file)]}")
        return real_open(file, *args, **kwargs)

    def counting_sha256(data=b"", **kwargs):
        if isinstance(data, bytes) and data in kind:
            log.append(f"sha256 {kind[data]}")
        return real_sha256(data, **kwargs)

    monkeypatch.setattr("builtins.open", counting_open)
    monkeypatch.setattr(hashlib, "sha256", counting_sha256)
    matrix = ExperimentMatrix(schemes=_FUSED_SCHEMES, geometries=((8, 2.0), (16, 2.0)),
                              suites=suites)
    files = 2 * (6 + 6)  # per split: two P, six files per suite
    cache_dir = tmp_path / "cache"
    for run_cache, want in (
        (None, {("open", "train"): files, ("open", "test"): files}),
        (cache_dir, {("open", "train"): files, ("sha256", "train"): files,
                     ("open", "test"): files, ("sha256", "test"): files}),
    ):
        assert not run_matrix(matrix, cache_dir=run_cache, workers=workers).failed
        assert collections.Counter(tuple(line.split()) for line in log.lines()) == want
        log.clear()


@pytest.mark.parametrize("split", ["train", "test"])
def test_run_suite_raises_the_error_run_matrix_records(tmp_path, split):
    """run_suite is run_matrix's one-cell case: a corrupt training image or
    a missing test image fails both with the same message."""
    spec = _tiny_suite(tmp_path)
    manifest = spec.train if split == "train" else spec.test
    victim = manifest.entries[1][0]
    if split == "train":
        with open(manifest.abs_path(victim), "r+b") as fh:
            fh.write(b"XX")
    else:
        os.unlink(manifest.abs_path(victim))
    matrix = ExperimentMatrix(schemes=("S/M",), geometries=((8, 2.0),), suites=(spec,))
    for workers in (1, 2):
        cell, = run_matrix(matrix, workers=workers).cells
        with pytest.raises(SuiteError) as raised:
            run_suite(spec, "S/M", 8, 2.0, workers=workers)
        assert cell.error == str(raised.value)
        assert cell.error.startswith(f"sample {victim}: ")


def test_summary_failure_fails_only_its_cells(tmp_path, monkeypatch):
    """An error that no sample caused, here in summarizing a test pass in
    the calling process, fails every cell of its (P, suite) and no other,
    and run_suite raises it."""
    suites = tuple(_tiny_suite(tmp_path, name=n, seed=seed) for n, seed in (("a", 3), ("b", 4)))
    real_summarize = suite_module.summarize

    def failing_summarize(truth, outcomes, models, *, suite, scheme):
        if suite == suites[1].name:
            raise RuntimeError("summary failed")
        return real_summarize(truth, outcomes, models, suite=suite, scheme=scheme)

    monkeypatch.setattr(suite_module, "summarize", failing_summarize)
    matrix = ExperimentMatrix(schemes=("CLBP_S", "CLBP_S/M"), geometries=((8, 1.0), (8, 2.0)),
                              suites=suites)
    for cell in run_matrix(matrix).cells:
        if cell.suite == suites[1].name:
            assert (cell.accuracy, cell.error) == (None, "summary failed")
        else:
            assert cell.accuracy is not None and cell.error is None
    with pytest.raises(RuntimeError, match="summary failed"):
        run_suite(suites[1], "CLBP_S", 8, 2.0)


def test_unreadable_shared_training_file_fails_only_its_suite(tmp_path):
    """Two suites with one training label sequence have their splits hashed
    to find whether they share one. A training file gone after the suites
    loaded fails the cells of its suite, naming the sample; the other suite
    trains on its own split and still classifies every test image."""
    suites = tuple(_tiny_suite(tmp_path, name=n, seed=seed) for n, seed in (("a", 3), ("b", 4)))
    assert [label for _, label in suites[0].train.entries] == [
        label for _, label in suites[1].train.entries]
    victim = suites[0].train.entries[1][0]
    os.unlink(suites[0].train.abs_path(victim))
    matrix = ExperimentMatrix(schemes=("CLBP_S/M/C",), geometries=((8, 2.0),), suites=suites)
    for workers in (1, 2):
        first, second = run_matrix(matrix, workers=workers).cells
        assert first.accuracy is None and first.error.startswith(f"sample {victim}: ")
        assert (second.suite, second.accuracy) == (suites[1].name, 1.0)


def test_matrix_without_suites_renders_dashes():
    """No suite ran, so no cell has a mean: '-' in every scheme's row and in
    the Delta row."""
    matrix = ExperimentMatrix(schemes=("CLBP_S", "CLDP_S/D"), geometries=((8, 2.0), (8, 3.0)),
                              suites=())
    report = run_matrix(matrix)
    assert report.cells == () and not report.failed
    assert [line.split() for line in report.to_table_text().splitlines()] == [
        ["scheme", "(8,2)", "(8,3)"], ["CLBP_S", "-", "-"], ["CLDP_S/D", "-", "-"],
        ["Delta(acc)", "-", "-"]]


def _tree(top):
    """{relative path: bytes} of every file under top."""
    return {str(path.relative_to(top)): path.read_bytes()
            for path in sorted(top.rglob("*")) if path.is_file()}


def test_run_matrix_cold_cache_equals_per_geometry_runs(tmp_path):
    """Grouped by P, a cold run writes the cache entries that one run_suite
    per (geometry, suite) writes: the same keys and the same .maps bytes."""
    suites = _shared_train_suites(tmp_path)
    geometries = ((8, 1.0), (8, 2.0), (8, 3.0), (16, 2.5), (16, 1.5))
    matrix = ExperimentMatrix(schemes=("CLBP_S_M/C",), geometries=geometries, suites=suites)
    assert not run_matrix(matrix, cache_dir=tmp_path / "grouped", workers=3).failed
    for P, R in geometries:
        for spec in suites:
            run_suite(spec, "CLBP_S_M/C", P, R, cache_dir=tmp_path / "single")
    grouped = _tree(tmp_path / "grouped")
    assert len(grouped) == (18 + 3 * 18) * len(geometries)
    assert grouped == _tree(tmp_path / "single")


def test_run_matrix_small_test_image_fails_only_its_geometry(tmp_path):
    """A 6x6 test image has valid centers at R=2 but not at R=3: only the
    (8,3) cells of its suite fail, naming it, and the (8,2) cells are those
    of a run at (8,2) alone."""
    suites = _shared_train_suites(tmp_path)
    victim = suites[1].test.entries[4][0]
    save_pgm(gray(np.zeros((6, 6))), suites[1].test.abs_path(victim))
    alone = run_matrix(ExperimentMatrix(schemes=_FUSED_SCHEMES, geometries=((8, 2.0),),
                                        suites=suites))
    assert not alone.failed
    matrix = ExperimentMatrix(schemes=_FUSED_SCHEMES, geometries=_FUSED_GEOMETRIES, suites=suites)
    for workers, cache_dir in ((1, None), (3, tmp_path / "cache"), (3, tmp_path / "cache")):
        cells = run_matrix(matrix, cache_dir=cache_dir, workers=workers).cells
        assert [c for c in cells if c.R == 2.0] == list(alone.cells)
        for cell in (c for c in cells if c.R == 3.0):
            if cell.suite == "s1":
                assert cell.error == f"sample {victim}: image 6x6 has no valid centers at R=3.0"
            elif cell.suite == "AVG3":
                assert cell.error == "aggregate over failed cells"
            else:
                assert cell.error is None


def test_training_image_failing_at_r3_leaves_r2_models_shared(tmp_path, monkeypatch):
    """The same 6x6 training image in every suite: the (8,2) model sets are
    built once and shared by all three suites, while every suite's (8,3)
    train pass fails naming the image, and shares nothing."""
    suites = _shared_train_suites(tmp_path)
    victim = suites[0].train.entries[5][0]
    for spec in suites:
        save_pgm(gray(np.zeros((6, 6))), spec.train.abs_path(victim))
    built = []
    real_model_set = suite_module.ModelSet

    def counting_model_set(histograms, labels):
        built.append((histograms[0].R, str(histograms[0].scheme)))
        return real_model_set(histograms, labels)

    monkeypatch.setattr(suite_module, "ModelSet", counting_model_set)
    matrix = ExperimentMatrix(schemes=_FUSED_SCHEMES, geometries=_FUSED_GEOMETRIES, suites=suites)
    report = run_matrix(matrix, workers=3)
    assert built == [(2.0, str(parse_scheme(s))) for s in _FUSED_SCHEMES]
    for cell in report.cells:
        if cell.R == 2.0:
            assert cell.error is None
        elif cell.suite != "AVG3":
            assert cell.error == f"sample {victim}: image 6x6 has no valid centers at R=3.0"


def test_run_matrix_samples_three_circles_per_image(tmp_path, monkeypatch):
    """(8,2) and (8,3) sample the circles of radii 1, 2 and 3 once per
    decoded image, where one geometry at a time sampled four. The shared
    training split is decoded once. The worker processes log the samplers
    they make to a shared file."""
    suites = _shared_train_suites(tmp_path)
    log = SharedLog(tmp_path / "samplers.log")
    real_init = OffsetSampler.__init__

    def counting_init(self, pixels, margin):
        log.append(str(margin))
        real_init(self, pixels, margin)

    monkeypatch.setattr(OffsetSampler, "__init__", counting_init)
    matrix = ExperimentMatrix(schemes=_FUSED_SCHEMES, geometries=_FUSED_GEOMETRIES, suites=suites)
    images = 18 + 3 * 18
    cache_dir = tmp_path / "cache"
    for run_cache, want in ((None, 3 * images), (cache_dir, 3 * images), (cache_dir, 0)):
        assert not run_matrix(matrix, cache_dir=run_cache, workers=3).failed
        assert len(log.lines()) == want
        log.clear()


def test_extraction_error_fails_only_the_radii_it_was_extracting(tmp_path, monkeypatch):
    """With the (8,2) maps cached, a test image whose (8,3) extraction
    raises fails only its suite's (8,3) cells, naming it; its (8,2) cells
    are those of a run without the fault."""
    suites = _shared_train_suites(tmp_path)
    cache_dir = tmp_path / "cache"
    warm = ExperimentMatrix(schemes=_FUSED_SCHEMES, geometries=((8, 2.0),), suites=suites)
    assert not run_matrix(warm, cache_dir=cache_dir).failed
    victim = suites[1].test.entries[2][0]
    faulty = suite_module.load_image(suites[1].test.abs_path(victim)).pixels.tobytes()
    for name in ("extract_maps", "extract_radii"):
        def failing(img, *args, real=getattr(suite_module, name)):
            if img.pixels.tobytes() == faulty:
                raise ValueError("boom")
            return real(img, *args)

        monkeypatch.setattr(suite_module, name, failing)
    matrix = ExperimentMatrix(schemes=_FUSED_SCHEMES, geometries=_FUSED_GEOMETRIES, suites=suites)
    report = run_matrix(matrix, cache_dir=cache_dir, workers=3)
    for cell in report.cells:
        if cell.R == 3.0 and cell.suite == "s1":
            assert cell.error == f"sample {victim}: boom"
        elif cell.R == 3.0 and cell.suite == "AVG3":
            assert cell.error == "aggregate over failed cells"
        else:
            assert cell.error is None, cell


def test_suites_sharing_a_name_keep_their_own_rows(tmp_path):
    """Two suites named alike with different images and accuracies: each
    keeps its own cells, in suite order, whatever the worker count."""
    first = _tiny_suite(tmp_path, name="a", classes=3, samples=2, size=20, seed=3)
    other = _tiny_suite(tmp_path, name="b", classes=3, samples=2, size=20, seed=9)
    shifted = tmp_path / "b" / "shifted.csv"  # every test label moved to the next class
    shifted.write_text("".join(f"{rel},{(label + 1) % 3}\n" for rel, label in other.test.entries))
    second = SuiteSpec(first.name, other.train,
                       load_manifest(shifted, tmp_path / "b" / "images", "native-csv"))
    matrix = ExperimentMatrix(schemes=("CLBP_S/M/C",), geometries=((8, 1.0), (8, 2.0)),
                              suites=(first, second))
    reports = [run_matrix(matrix, workers=workers) for workers in (1, 2)]
    assert reports[0].cells == reports[1].cells
    for P, R in matrix.geometries:
        rows = [c for c in reports[0].cells if (c.P, c.R) == (P, R)]
        assert [c.suite for c in rows] == [first.name] * 2
        want = [run_suite(spec, "CLBP_S/M/C", P, R) for spec in (first, second)]
        assert [(c.accuracy, c.ties) for c in rows] == [(w.accuracy, w.ties) for w in want]
        assert rows[0] != rows[1]


@pytest.mark.parametrize("workers", [1, 3])
def test_feature_cache_makes_each_subdirectory_once(tmp_path, monkeypatch, workers):
    """A cold run makes the cache root and each <key[:2]> subdirectory it
    stores into, each once; --out style writes still make a missing parent.
    Worker processes may race to make a subdirectory: the mkdir calls that
    lose raise FileExistsError and make nothing, so only the calls that
    made a directory are logged."""
    log = SharedLog(tmp_path / "mkdir.log")
    real_mkdir = os.mkdir

    def counting_mkdir(path, *args, **kwargs):
        real_mkdir(path, *args, **kwargs)
        log.append(os.fspath(path))

    suites = _shared_train_suites(tmp_path)
    monkeypatch.setattr(os, "mkdir", counting_mkdir)
    matrix = ExperimentMatrix(schemes=_FUSED_SCHEMES, geometries=_FUSED_GEOMETRIES, suites=suites)
    cache_dir = tmp_path / "cache"
    assert not run_matrix(matrix, cache_dir=cache_dir, workers=workers).failed
    prefixes = [p for p in cache_dir.iterdir() if p.is_dir()]
    assert len(list(cache_dir.rglob("*.maps"))) == 72 * 2 > len(prefixes)
    assert sorted(log.lines()) == sorted([str(cache_dir)] + [str(p) for p in prefixes])
    log.clear()
    atomic_write_text(tmp_path / "new" / "out.csv", "x\n")
    assert (tmp_path / "new" / "out.csv").read_text() == "x\n"
    assert log.lines() == [str(tmp_path / "new")]


def _fail_at_30(i):
    if i == 30:
        raise ValueError("item 30")
    return i


def test_map_ordered_leaves_no_worker_process():
    """The pool of worker processes is gone when map_ordered finishes, when
    an item past the window fails, and when the consumer closes it early."""
    assert list(map_ordered(_fail_at_30, range(12), 3)) == list(range(12))
    assert multiprocessing.active_children() == []
    with pytest.raises(ValueError, match="item 30"):
        list(map_ordered(_fail_at_30, range(100), 3))
    assert multiprocessing.active_children() == []
    results = map_ordered(_fail_at_30, range(100), 3)
    assert next(results) == 0
    assert len(multiprocessing.active_children()) == 3
    results.close()
    assert multiprocessing.active_children() == []


def _pid(_):
    return os.getpid()


def test_map_ordered_starts_at_most_one_process_per_item():
    assert list(map_ordered(_pid, [0], 4)) == [os.getpid()]
    results = map_ordered(_pid, [0, 1], 4)
    assert next(results) != os.getpid()
    assert 1 <= len(multiprocessing.active_children()) <= 2
    results.close()


def test_map_ordered_zero_workers_means_one_per_usable_cpu(monkeypatch):
    """workers=0 counts the CPUs this process may run on, not the CPUs of
    the machine: with one, the items run here, without a pool."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    assert list(map_ordered(_pid, range(4), 0)) == [os.getpid()] * 4
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    assert list(map_ordered(_pid, range(4), 0)) == [os.getpid()] * 4
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    assert os.getpid() not in map_ordered(_pid, range(4), 0)


def _counted_square(counts, i):
    """i * i, counting i started in counts (started, consumed, most)."""
    with counts.get_lock():
        counts[0] += 1
        counts[2] = max(counts[2], counts[0] - counts[1])
    return i * i


def test_map_ordered_keeps_a_bounded_window():
    """Started but unconsumed items never exceed the window, even when the
    consumer is slower than the workers, and the window fills. The counts
    live in shared memory that the worker processes inherit."""
    for workers in (1, 3):
        window = _WINDOW_PER_WORKER * workers
        counts = multiprocessing.Array("i", 3)  # started, consumed, most
        got = []
        for value in map_ordered(functools.partial(_counted_square, counts), range(40), workers):
            time.sleep(0.001)
            got.append(value)
            with counts.get_lock():
                counts[1] += 1
        assert got == [i * i for i in range(40)]
        assert 1 <= counts[2] <= window


def _logged_fail_at_5_and_6(log, i):
    log.append(str(i))
    if i == 5:
        time.sleep(0.05)  # item 6 fails first in time, 5 first in order
        raise ValueError("item 5")
    if i == 6:
        raise ValueError("item 6")
    return i


def test_map_ordered_raises_first_failure_without_starting_past_window(tmp_path):
    workers = 3
    window = _WINDOW_PER_WORKER * workers
    log = SharedLog(tmp_path / "started.log")
    got = []
    with pytest.raises(ValueError, match="item 5"):
        for value in map_ordered(functools.partial(_logged_fail_at_5_and_6, log), range(100),
                                 workers):
            got.append(value)
    assert got == [0, 1, 2, 3, 4]
    started = {int(line) for line in log.lines()}
    assert started >= set(range(6)) and max(started) < 5 + window
