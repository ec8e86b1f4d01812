import csv
import hashlib
import io
import json
import multiprocessing
import os
import subprocess
import sys

import numpy as np
import pytest

from cldp import (
    histogram_from_bytes,
    load_manifest,
    make_synthetic_suite,
    parse_scheme,
    save_pgm,
)
from cldp import cli
from cldp.cli import main
from cldp.histogram import csv_field
from cldp.suite import _MAPS_MAGIC, _WINDOW_PER_WORKER, FeatureCache, _seal, _unseal
from conftest import gray, random_8bit, traced_peak
from test_image import make_bmp8


def _write_images(tmp_path, count=3, size=32, seed=70):
    rng = np.random.default_rng(seed)
    img_dir = tmp_path / "images"
    img_dir.mkdir(exist_ok=True)
    names = []
    for i in range(count):
        name = f"t{i}.pgm"
        save_pgm(gray(random_8bit(rng, size, size)), img_dir / name)
        names.append(name)
    return img_dir, names


def test_extract_single_constant_image(tmp_path, capsys):
    img = tmp_path / "flat.pgm"
    save_pgm(gray(np.full((32, 32), 90.0)), img)
    assert main(["extract", str(img), "-P", "8", "-R", "2"]) == 0
    out = capsys.readouterr().out
    rows = out.splitlines()
    assert len(rows) == 1
    fields = rows[0].split(",")
    assert fields[0] == str(img)
    assert fields[1] == "-1"
    assert fields[2:5] == ["S/M/D/C", "8", "2"]
    values = [float(v) for v in fields[5:]]
    assert len(values) == 2000
    assert values[1761] == 1.0 and sum(values) == 1.0


def test_extract_missing_file(tmp_path, capsys):
    missing = tmp_path / "gone.pgm"
    assert main(["extract", str(missing)]) == 1
    err = capsys.readouterr().err
    assert "gone.pgm" in err and err.startswith("cldp: error:")


def test_extract_manifest_rows_follow_manifest_order(tmp_path, capsys):
    img_dir, names = _write_images(tmp_path)
    # The label is after the last comma, so a path may hold one; the row quotes it.
    (img_dir / names[1]).rename(img_dir / "a,b.pgm")
    names[1] = "a,b.pgm"
    manifest = tmp_path / "list.csv"
    manifest.write_text("".join(f"{n},{i % 2}\n" for i, n in enumerate(names)))
    assert main(["extract", str(manifest), "--root", str(img_dir),
                 "-P", "8", "-R", "2", "--scheme", "S"]) == 0
    rows = list(csv.reader(capsys.readouterr().out.splitlines()))
    assert [r[0] for r in rows] == names
    assert [r[1] for r in rows] == ["0", "1", "0"]
    assert [len(r) for r in rows] == [5 + 10] * 3


def test_extract_bmp_with_oversized_palette_exits_2_naming_it(tmp_path, capsys, monkeypatch):
    palette = [(i % 256,) * 3 for i in range(300)]
    (tmp_path / "big.bmp").write_bytes(make_bmp8(4, 4, [[0] * 4] * 4, palette))
    monkeypatch.chdir(tmp_path)
    assert main(["extract", "big.bmp", "-P", "8", "-R", "1", "--scheme", "S"]) == 2
    captured = capsys.readouterr()
    assert "sample big.bmp: palette of 300 entries" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("name, data, message", [
    ("bad.pgm", b"P5\n2 2\n100\n" + bytes([0, 1, 200, 3]), "pixel value 200 at byte 13 exceeds maxval 100"),
    ("bad.bmp", make_bmp8(2, 2, [[0, 1], [200, 0]], [(0, 0, 0), (9, 9, 9)]),
     "pixel index 200 at byte 62 is past the 2-entry palette"),
], ids=["pgm", "bmp"])
def test_extract_raster_value_its_header_rules_out_exits_2_naming_it(tmp_path, capsys, monkeypatch,
                                                                      name, data, message):
    (tmp_path / name).write_bytes(data)
    monkeypatch.chdir(tmp_path)
    assert main(["extract", name, "-P", "4", "-R", "1", "--scheme", "S"]) == 2
    captured = capsys.readouterr()
    assert f"sample {name}: {message}" in captured.err
    assert captured.out == ""


def test_extract_outex_manifest_with_ras_fallback(tmp_path, capsys):
    img_dir, names = _write_images(tmp_path, count=2)
    manifest = tmp_path / "index.txt"
    manifest.write_text("2\nt0.ras 4\nt1.ras 9\n")
    assert main(["extract", str(manifest), "--root", str(img_dir),
                 "--scheme", "S", "-R", "2"]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert [r.split(",")[1] for r in rows] == ["4", "9"]


def test_extract_binary_round_trip(tmp_path):
    img = tmp_path / "flat.pgm"
    save_pgm(gray(np.full((32, 32), 12.0)), img)
    out = tmp_path / "h.bin"
    assert main(["extract", str(img), "-R", "2", "--scheme", "S_D",
                 "--format", "binary", "--out", str(out)]) == 0
    hist = histogram_from_bytes(out.read_bytes(), parse_scheme("S_D"))
    assert hist.bins[8] == 1.0 and hist.bins[10] == 1.0


def test_extract_binary_stdout(tmp_path, capsysbinary):
    img = tmp_path / "flat.pgm"
    save_pgm(gray(np.full((32, 32), 12.0)), img)
    assert main(["extract", str(img), "-R", "2", "--scheme", "S",
                 "--format", "binary"]) == 0
    data = capsysbinary.readouterr().out
    assert histogram_from_bytes(data, parse_scheme("S")).bins[8] == 1.0


def test_extract_binary_rejects_manifests(tmp_path, capsys):
    img_dir, names = _write_images(tmp_path, count=1)
    manifest = tmp_path / "list.csv"
    manifest.write_text(f"{names[0]},0\n")
    assert main(["extract", str(manifest), "--format", "binary"]) == 1
    assert "binary" in capsys.readouterr().err


def test_extract_rejects_derivative_at_r1(tmp_path, capsys):
    img = tmp_path / "flat.pgm"
    save_pgm(gray(np.zeros((16, 16))), img)
    assert main(["extract", str(img), "-R", "1"]) == 1
    assert "R >= 2" in capsys.readouterr().err


# sha256 of the CSV below as written before single-tap sampling, in-place
# interpolation and sparse row formatting; those change no output byte.
EXTRACT_CSV_SHA256 = "c962c4920dad98e0b1388007096c2a2a3851b8caa66d52b9d957bc4d226cb47b"


@pytest.mark.parametrize("to", ["stdout", "out", "cache"])
def test_extract_csv_bytes_are_pinned(tmp_path, capsysbinary, monkeypatch, to):
    """The same bytes to stdout, to --out, and through a cache, cold and
    warm; a cache holds .maps entries only."""
    monkeypatch.delenv("CLDP_CACHE_DIR", raising=False)
    spec = make_synthetic_suite(tmp_path / "suite", seed=7, classes=3,
                                samples_per_class=2, size=32)
    manifest = tmp_path / "all.csv"
    manifest.write_text("".join(f"{rel},{label}\n"
                                for rel, label in spec.train.entries + spec.test.entries))
    args = ["extract", str(manifest), "--root", spec.train.root,
            "-P", "8", "-R", "3", "--scheme", "S/M/D/C"]
    out = tmp_path / "out.csv"
    if to == "out":
        args += ["--out", str(out)]
    cache_dir = tmp_path / "cache"
    if to == "cache":
        args += ["--cache-dir", str(cache_dir)]
    for run in ("cold", "warm") if to == "cache" else ("once",):
        assert main(args) == 0
        data = capsysbinary.readouterr().out
        if to == "out":
            assert data == b""
            data = out.read_bytes()
        assert data.count(b"\n") == 12
        assert hashlib.sha256(data).hexdigest() == EXTRACT_CSV_SHA256, run
    if to == "cache":
        entries = [p for p in cache_dir.rglob("*") if p.is_file()]
        assert len(entries) == 12 and all(p.suffix == ".maps" for p in entries)


@pytest.mark.parametrize("with_cache", [False, True])
def test_extract_sample_deleted_after_manifest_load_exits_2(tmp_path, capsys, monkeypatch,
                                                            with_cache):
    monkeypatch.delenv("CLDP_CACHE_DIR", raising=False)
    img_dir, names = _write_images(tmp_path)
    manifest = tmp_path / "list.csv"
    manifest.write_text("".join(f"{n},0\n" for n in names))
    load_manifest = cli.load_manifest

    def load_then_delete(*args):
        loaded = load_manifest(*args)
        (img_dir / names[1]).unlink()
        return loaded

    monkeypatch.setattr(cli, "load_manifest", load_then_delete)
    args = ["extract", str(manifest), "--root", str(img_dir), "-P", "8", "-R", "2"]
    if with_cache:
        args += ["--cache-dir", str(tmp_path / "cache")]
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    kept = (img_dir / names[1]).read_bytes()
    # The failing sample is the second of three: the first row is already
    # written when it fails.
    for out in (None, out_dir / "features.csv"):
        (img_dir / names[1]).write_bytes(kept)
        assert main(args + (["--out", str(out)] if out else [])) == 2
        captured = capsys.readouterr()
        assert f"sample {names[1]}:" in captured.err
        assert captured.out == ""
        assert not list(out_dir.iterdir())  # no output file, no .tmp-* file
        assert not list(tmp_path.glob(".tmp-*"))


@pytest.mark.parametrize("workers", [1, 3])
def test_extract_memory_does_not_grow_with_manifest(tmp_path, workers):
    """Rows are written as the histograms come: 4N images peak no higher
    than N, plus the histograms that can be in flight at once (the window
    of map_ordered and the one being written)."""
    img_dir, names = _write_images(tmp_path, count=48, size=24)
    out = tmp_path / "features.csv"

    def extract(n):
        manifest = tmp_path / f"list{n}.csv"
        manifest.write_text("".join(f"{name},0\n" for name in names[:n]))
        argv = ["extract", str(manifest), "--root", str(img_dir), "-P", "24", "-R", "3",
                "--scheme", "S/M/D/C", "--workers", str(workers), "--out", str(out)]

        def run():
            assert main(argv) == 0

        return traced_peak(run)

    extract(12)  # warm-up: memoized geometry, mapper and scheme
    small = extract(12)
    large = extract(48)
    assert out.read_bytes().count(b"\n") == 48
    hist_bytes = 2 * 26 ** 3 * 8  # S/M/D/C at P=24
    slack = (_WINDOW_PER_WORKER * workers + 1) * hist_bytes
    assert large <= small + slack, (small, large, slack)


def _cldp_process(args, start_method=None) -> subprocess.CompletedProcess:
    """Run the cldp CLI in a fresh interpreter, its stdout and stderr
    captured; with start_method, multiprocessing is set to it first."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    env.pop("CLDP_CACHE_DIR", None)
    code = "import multiprocessing, sys\n"
    if start_method:
        code += f"multiprocessing.set_start_method({start_method!r})\n"
    code += "from cldp.cli import main\nsys.exit(main(sys.argv[1:]))\n"
    return subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, timeout=300)


def test_extract_stdout_and_out_do_not_depend_on_workers(tmp_path):
    """Worker processes are forked while the output is open, and each one
    flushes the standard streams it inherited when it exits: the rows still
    appear once, on stdout and in --out alike."""
    img_dir, names = _write_images(tmp_path, count=10, size=24)
    manifest = tmp_path / "list.csv"
    manifest.write_text("".join(f"{name},{i % 3}\n" for i, name in enumerate(names)))
    args = ["extract", str(manifest), "--root", str(img_dir), "-P", "8", "-R", "2"]
    assert main(args + ["--workers", "1", "--out", str(tmp_path / "w1.csv")]) == 0
    want = (tmp_path / "w1.csv").read_bytes()
    assert want.count(b"\n") == 10
    proc = _cldp_process(args + ["--workers", "3"])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == want
    proc = _cldp_process(args + ["--workers", "3", "--out", str(tmp_path / "w3.csv")])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == b""
    assert (tmp_path / "w3.csv").read_bytes() == want


def test_extract_first_failing_sample_past_the_window_exits_2(tmp_path, capsys):
    """Two unreadable samples past the window of 3 workers: the first in
    manifest order is named, nothing is written, and no worker process is
    left behind."""
    img_dir, names = _write_images(tmp_path, count=24, size=24)
    for i in (14, 20):
        (img_dir / names[i]).write_bytes(b"not an image")
    manifest = tmp_path / "list.csv"
    manifest.write_text("".join(f"{name},0\n" for name in names))
    out = tmp_path / "out.csv"
    assert main(["extract", str(manifest), "--root", str(img_dir), "-R", "2",
                 "--workers", "3", "--out", str(out)]) == 2
    assert f"sample {names[14]}:" in capsys.readouterr().err
    assert not out.exists()
    assert multiprocessing.active_children() == []


def test_extract_rows_read_back_as_a_manifest(tmp_path):
    """A path with a comma or a quote is quoted in extract's rows, which are
    UTF-8 as manifests are; the row's first two fields, as a manifest line,
    name the same sample."""
    rng = np.random.default_rng(5)
    img_dir = tmp_path / "images"
    img_dir.mkdir()
    names = ["a,b.pgm", 'say "cheese".pgm', "plain.pgm", "\u00e9.pgm"]
    for name in names:
        save_pgm(gray(random_8bit(rng, 24, 24)), img_dir / name)
    first = tmp_path / "first.csv"
    first.write_text("".join(f"{name},{i}\n" for i, name in enumerate(names)), encoding="utf-8")
    rows = tmp_path / "rows.csv"
    args = ["--root", str(img_dir), "-P", "8", "-R", "2", "--out", str(rows)]
    assert main(["extract", str(first)] + args) == 0
    want = rows.read_bytes()
    assert want.startswith(b'"a,b.pgm",0,')
    again = tmp_path / "again.csv"
    with open(again, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(
            row[:2] for row in csv.reader(io.StringIO(want.decode())))
    assert again.read_text(encoding="utf-8").splitlines()[1:] == [
        '"say ""cheese"".pgm",1', "plain.pgm,2", "\u00e9.pgm,3"]
    assert (load_manifest(again, img_dir, "native-csv").entries
            == load_manifest(first, img_dir, "native-csv").entries
            == tuple((name, i) for i, name in enumerate(names)))
    assert main(["extract", str(again)] + args) == 0
    assert rows.read_bytes() == want


@pytest.mark.parametrize("name", [
    "a,b.pgm", 'say "cheese".pgm', "a\rb.pgm", "a\nb.pgm", "a\r\nb.pgm",
    "a\u2028b.pgm", "a\u0085b.pgm", " lead.pgm", "\u00e9.pgm",
], ids=["comma", "quote", "cr", "lf", "crlf", "u2028", "u0085", "leading-blank", "e-acute"])
def test_extract_row_fields_load_back_as_a_manifest(tmp_path, name):
    """The first two fields of an extract row, as csv_field writes them, are
    a manifest line that loads back as the same (path, label)."""
    rng = np.random.default_rng(5)
    img_dir = tmp_path / "images"
    img_dir.mkdir()
    save_pgm(gray(random_8bit(rng, 24, 24)), img_dir / name)
    line = f"{csv_field(name)},3"
    manifest = tmp_path / "list.csv"
    manifest.write_bytes(f"{line}\n".encode("utf-8"))
    rows = tmp_path / "rows.csv"
    assert main(["extract", str(manifest), "--root", str(img_dir), "-P", "8", "-R", "2",
                 "--out", str(rows)]) == 0
    text = rows.read_bytes().decode("utf-8")
    assert text.startswith(line + ",S/M/D/C,8,2,")
    assert [row[:2] for row in csv.reader(io.StringIO(text, newline=""))] == [[name, "3"]]
    assert load_manifest(manifest, img_dir, "native-csv").entries == ((name, 3),)


def test_extract_truncated_maps_entry_exits_2_naming_the_sample(tmp_path, capsys):
    """A sealed .maps entry too short for its header is a corrupt cache
    entry of its sample, not a crash."""
    img = tmp_path / "flat.pgm"
    save_pgm(gray(np.zeros((32, 32))), img)
    cache = FeatureCache(tmp_path / "cache")
    key = cache.maps_key(hashlib.sha256(img.read_bytes()).hexdigest(), 8, 2.0)
    path = tmp_path / "cache" / key[:2] / f"{key}.maps"
    path.parent.mkdir()
    path.write_bytes(_seal(_MAPS_MAGIC + b"short"))
    rc = main(["extract", str(img), "-P", "8", "-R", "2", "--cache-dir", str(tmp_path / "cache")])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"corrupt cache entry for sample {img}: truncated maps header" in err


def test_bench_maps_entry_with_bad_magic_exits_2_naming_the_sample(tmp_path, capsys):
    """A .maps entry whose seal holds but whose payload is not pattern maps
    fails the cells that read it, so bench exits 2."""
    cfg = _matrix_config(tmp_path, schemes="CLBP_S")
    cache = tmp_path / "cache"
    args = ["bench", str(cfg), "--quiet", "--cache-dir", str(cache), "--out", str(tmp_path / "c.csv")]
    assert main(args) == 0
    for path in cache.rglob("*.maps"):
        path.write_bytes(_seal(b"CLDPM0" + _unseal(path.read_bytes())[len(_MAPS_MAGIC):]))
    capsys.readouterr()
    assert main(args) == 2
    rows = list(csv.reader((tmp_path / "c.csv").read_text(encoding="utf-8").splitlines()))
    assert rows[1][:5] == ["CLBP_S", "8", "2", "synth-2x2-32px-seed3", "FAILED"]
    assert (f"FAILED CLBP_S (8,2) synth-2x2-32px-seed3: corrupt cache entry for sample "
            f"c00_train_000.pgm: bad maps magic\n") == capsys.readouterr().err


def test_config_not_utf8_exits_1_citing_its_line(tmp_path, capsys):
    cfg = _matrix_config(tmp_path)
    cfg.write_bytes(cfg.read_bytes().replace(b"CLBP_S,", b"CLBP_S\xff,"))
    assert main(["bench", str(cfg), "--quiet"]) == 1
    assert f"{cfg}:1: not UTF-8: invalid start byte" in capsys.readouterr().err


def test_extract_uses_cache_dir_env(tmp_path, monkeypatch, capsys):
    img = tmp_path / "flat.pgm"
    save_pgm(gray(np.zeros((32, 32))), img)
    cache_dir = tmp_path / "cache"
    monkeypatch.setenv("CLDP_CACHE_DIR", str(cache_dir))
    assert main(["extract", str(img), "-R", "2"]) == 0
    capsys.readouterr()
    assert list(cache_dir.rglob("*.maps"))
    assert not list(cache_dir.rglob("*.hist"))


def _synth(tmp_path, **kw):
    kw.setdefault("seed", 3)
    kw.setdefault("classes", 2)
    kw.setdefault("samples_per_class", 2)
    kw.setdefault("size", 32)
    return make_synthetic_suite(tmp_path / "suite", **kw)


@pytest.mark.parametrize("P, R", [(8, 2), (24, 3)])
def test_classify_adhoc_manifests_json(tmp_path, capsys, P, R):
    """The report, at P=24 too, where most bins are used by no model; its
    bytes do not depend on the worker count."""
    _synth(tmp_path)
    root = tmp_path / "suite"
    out = []
    for workers in (1, 2):
        assert main([
            "classify",
            "--train", str(root / "train.csv"),
            "--test", str(root / "test.csv"),
            "--root", str(root / "images"),
            "--name", "demo",
            "-P", str(P), "-R", str(R), "--format", "json", "--workers", str(workers),
        ]) == 0
        out.append(capsys.readouterr().out)
    assert out[0] == out[1]
    report = json.loads(out[0])
    assert report["suite"] == "demo"
    assert report["accuracy"] == 1.0
    assert set(report) == {
        "suite", "scheme", "P", "R", "accuracy", "per_class", "confusion", "ties",
    }


def test_classify_with_config_table_and_csv(tmp_path, capsys):
    _synth(tmp_path)
    cfg = str(tmp_path / "suite" / "suite.cfg")
    assert main(["classify", "--config", cfg, "-R", "2", "--scheme", "S/M"]) == 0
    table = capsys.readouterr().out
    assert "accuracy  100.00%" in table
    assert main(["classify", "--config", cfg, "-R", "2", "--scheme", "S/M",
                 "--format", "csv"]) == 0
    csv_text = capsys.readouterr().out
    lines = csv_text.splitlines()
    assert lines[0] == "scheme,P,R,suite,accuracy,ties"
    assert lines[1].startswith("S/M,8,2,synth-2x2-32px-seed3,1,")


def test_classify_config_conflicts_with_manifests(tmp_path, capsys):
    _synth(tmp_path)
    cfg = str(tmp_path / "suite" / "suite.cfg")
    assert main(["classify", "--config", cfg, "--train", "x.csv"]) == 1
    assert "mutually exclusive" in capsys.readouterr().err
    assert main(["classify", "--train", "x.csv"]) == 1
    assert "--config or both" in capsys.readouterr().err
    root = tmp_path / "suite"
    assert main(["classify", "--train", str(root / "train.csv"), "--test", str(root / "a.list"),
                 "--root", str(root / "images")]) == 1
    assert (f"cannot infer manifest format of {root / 'a.list'}; pass --manifest-format"
            in capsys.readouterr().err)


def test_classify_missing_dataset_root_exits_2(tmp_path, capsys):
    cfg = tmp_path / "away.suite"
    cfg.write_text(
        "name = away\nroot = /missing/place\n"
        "train_manifest = t.txt\ntest_manifest = e.txt\n"
    )
    assert main(["classify", "--config", str(cfg), "-R", "2"]) == 2
    err = capsys.readouterr().err
    assert "/missing/place" in err and "OUTEX_ROOT" in err


def _matrix_config(tmp_path, schemes="CLBP_S, CLDP_S/D", geometries="(8,2)"):
    _synth(tmp_path)
    cfg = tmp_path / "m.matrix"
    cfg.write_text(
        f"schemes = {schemes}\n"
        f"geometries = {geometries}\n"
        f"suites = suite/suite.cfg\n"
    )
    return cfg


def test_bench_writes_table_and_csv(tmp_path, capsys):
    cfg = _matrix_config(tmp_path)
    out_csv = tmp_path / "cells.csv"
    assert main(["bench", str(cfg), "--out", str(out_csv)]) == 0
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert lines[0].split() == ["scheme", "(8,2)"]
    assert lines[1].startswith("CLBP_S")
    assert lines[3].startswith("Delta(acc)")
    assert "CLBP_S (8,2)" in captured.err  # progress
    csv_lines = out_csv.read_text().splitlines()
    assert csv_lines[0] == "scheme,P,R,suite,accuracy,ties"
    assert len(csv_lines) == 1 + 2  # one cell per scheme, no aggregates for 1 suite
    assert main(["bench", str(cfg), "--quiet"]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("schemes, geometries", [
    ("CLBP_S, CLDP_S/D", "(8,2)"),
    ("CLBP_S/M/C, CLBP_S_M/C", "(8,1), (8,2), (8,3)"),
], ids=["one-radius", "three-radii"])
def test_bench_outputs_identical_across_workers_and_cache(tmp_path, capsys, schemes, geometries):
    """Cells and table do not depend on the worker count, nor on whether the
    maps come from the cache; the radii of one P are extracted together."""
    cfg = _matrix_config(tmp_path, schemes, geometries)

    def run(tag, extra):
        table = tmp_path / f"{tag}.table"
        csv_path = tmp_path / f"{tag}.csv"
        assert main(["bench", str(cfg), "--quiet", "--table", str(table),
                     "--out", str(csv_path)] + extra) == 0
        return table.read_bytes(), csv_path.read_bytes()

    base = run("w1", ["--workers", "1"])
    assert run("w8", ["--workers", "8"]) == base
    cache = str(tmp_path / "cache")
    assert run("cold", ["--cache-dir", cache]) == base
    assert run("warm", ["--cache-dir", cache]) == base
    cache = str(tmp_path / "cache-w2")
    assert run("w2-cold", ["--workers", "2", "--cache-dir", cache]) == base
    assert run("w2-warm", ["--workers", "2", "--cache-dir", cache]) == base
    capsys.readouterr()


@pytest.mark.parametrize("workers", [1, 2])
def test_bench_one_cell_csv_is_classify_csv(tmp_path, capsys, workers):
    """classify is bench's one-cell case: a one-suite, one-scheme,
    one-geometry matrix writes classify's CSV, whatever the worker count."""
    cfg = _matrix_config(tmp_path, schemes="CLDP_S/M/D/C")
    cells = tmp_path / "cells.csv"
    assert main(["bench", str(cfg), "--quiet", "--workers", str(workers),
                 "--out", str(cells)]) == 0
    capsys.readouterr()
    assert main(["classify", "--config", str(tmp_path / "suite" / "suite.cfg"),
                 "--scheme", "CLDP_S/M/D/C", "-P", "8", "-R", "2", "--format", "csv",
                 "--workers", str(workers)]) == 0
    row = capsys.readouterr().out
    assert row.splitlines()[1].startswith("CLDP_S/M/D/C,8,2,synth-2x2-32px-seed3,")
    assert cells.read_text(encoding="utf-8") == row


@pytest.mark.parametrize("start_method", ["spawn", "forkserver"])
def test_bench_outputs_do_not_depend_on_start_method(tmp_path, start_method):
    """Under spawn and forkserver every worker gets its work by pickling:
    the schemes, the cache and a test pass's model sets. The cells and the
    table are those of one worker."""
    if start_method not in multiprocessing.get_all_start_methods():
        pytest.skip(f"no {start_method} start method here")
    cfg = _matrix_config(tmp_path, geometries="(8,2), (8,3)")
    args = ["bench", str(cfg), "--quiet"]
    assert main(args + ["--workers", "1", "--table", str(tmp_path / "w1.table"),
                        "--out", str(tmp_path / "w1.csv")]) == 0
    proc = _cldp_process(args + ["--workers", "2", "--cache-dir", str(tmp_path / "cache"),
                                 "--table", str(tmp_path / "w2.table"),
                                 "--out", str(tmp_path / "w2.csv")], start_method)
    assert proc.returncode == 0, proc.stderr
    for name in ("table", "csv"):
        assert (tmp_path / f"w2.{name}").read_bytes() == (tmp_path / f"w1.{name}").read_bytes()


def test_bench_missing_dataset_exits_2(tmp_path, capsys):
    suite_cfg = tmp_path / "away.suite"
    suite_cfg.write_text(
        "name = away\nroot = /missing/place\n"
        "train_manifest = t.txt\ntest_manifest = e.txt\n"
    )
    cfg = tmp_path / "m.matrix"
    cfg.write_text(
        "schemes = CLBP_S\ngeometries = (8,2)\nsuites = away.suite\n"
    )
    assert main(["bench", str(cfg), "--quiet"]) == 2
    assert "mogrify" in capsys.readouterr().err


def test_bench_bad_scheme_exits_1_before_suites_load(tmp_path, capsys):
    """Every (scheme, geometry) cell is checked before any suite loads, so a
    bad one is a configuration error even when the dataset is missing."""
    suite_cfg = tmp_path / "away.suite"
    suite_cfg.write_text(
        "name = away\nroot = /missing/place\n"
        "train_manifest = t.txt\ntest_manifest = e.txt\n"
    )
    cfg = tmp_path / "m.matrix"
    for schemes, geometries, message in [
        ("CLBP_S, S/Q", "(8,2)", "'Q'"),
        ("CLBP_S", "(8,2), (32,3)", "P must be"),
        ("CLBP_S", "(2,1), (8,2)", "P must be"),
        ("CLBP_S", "(8,0.5)", "R must be"),
        ("CLBP_S, CLDP_S/D", "(8,1)", "R >= 2"),
    ]:
        cfg.write_text(
            f"schemes = {schemes}\ngeometries = {geometries}\nsuites = away.suite\n"
        )
        assert main(["bench", str(cfg), "--quiet"]) == 1, (schemes, geometries)
        err = capsys.readouterr().err
        assert message in err
        assert "mogrify" not in err


def _count_opens(monkeypatch, directory) -> list:
    """Record every open of a file under directory, as
    test_each_sample_is_read_once does."""
    opened = []
    real_open = open

    def counting_open(file, *args, **kwargs):
        if os.path.dirname(os.path.abspath(str(file))) == str(directory):
            opened.append(str(file))
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr("builtins.open", counting_open)
    return opened


# Scheme S has no D component, so these fail on the geometry rule alone.
_BAD_GEOMETRIES = [["-P", "3"], ["-P", "25"], ["-R", "0.5"], ["-R", "inf"], ["-R", "nan"]]


@pytest.mark.parametrize("command", ["extract", "classify"])
def test_bad_geometry_exits_1_before_any_sample_is_opened(tmp_path, capsys, monkeypatch,
                                                          command):
    _synth(tmp_path)
    img_dir = tmp_path / "suite" / "images"
    if command == "extract":
        args = ["extract", str(tmp_path / "suite" / "train.csv"), "--root", str(img_dir)]
    else:
        args = ["classify", "--config", str(tmp_path / "suite" / "suite.cfg")]
    args += ["--scheme", "S"]
    assert main(args + ["-P", "8", "-R", "2"]) == 0
    capsys.readouterr()
    opened = _count_opens(monkeypatch, img_dir)
    for geometry in _BAD_GEOMETRIES:
        assert main(args + geometry) == 1, geometry
        captured = capsys.readouterr()
        assert "must be" in captured.err and captured.out == ""
        assert opened == [], geometry


def test_extract_binary_fractional_radius_exits_1_before_the_sample_is_opened(tmp_path,
                                                                             capsys,
                                                                             monkeypatch):
    img_dir, names = _write_images(tmp_path, count=1)
    out = tmp_path / "x.bin"
    opened = _count_opens(monkeypatch, img_dir)
    assert main(["extract", str(img_dir / names[0]), "-R", "2.5", "--format", "binary",
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "binary histogram header stores R as u32; R=2.5 is not integral" in err
    assert opened == []
    assert not out.exists()


@pytest.mark.parametrize("command", ["extract", "classify"])
def test_sample_too_small_for_radius_exits_2_naming_it(tmp_path, capsys, command):
    spec = _synth(tmp_path)
    victim = spec.test.entries[1][0]
    save_pgm(gray(np.zeros((6, 6))), tmp_path / "suite" / "images" / victim)
    if command == "extract":
        args = ["extract", str(tmp_path / "suite" / "test.csv"),
                "--root", str(tmp_path / "suite" / "images")]
    else:
        args = ["classify", "--config", str(tmp_path / "suite" / "suite.cfg")]
    assert main(args + ["-P", "8", "-R", "2"]) == 0  # a 6x6 image has centers at R=2
    capsys.readouterr()
    assert main(args + ["-P", "8", "-R", "3"]) == 2
    captured = capsys.readouterr()
    assert f"sample {victim}: image 6x6 has no valid centers at R=3" in captured.err
    assert captured.out == ""


def test_bench_failed_cells_exit_2(tmp_path, capsys):
    cfg = _matrix_config(tmp_path, schemes="CLBP_S")
    victim = next((tmp_path / "suite" / "images").iterdir())
    victim.write_bytes(b"not an image at all")
    out_csv = tmp_path / "cells.csv"
    assert main(["bench", str(cfg), "--quiet", "--out", str(out_csv)]) == 2
    assert "FAILED CLBP_S (8,2)" in capsys.readouterr().err
    assert "FAILED" in out_csv.read_text()


def test_enumerate_codes_table(capsys):
    assert main(["enumerate-codes", "-P", "8"]) == 0
    out = capsys.readouterr().out
    assert "total codes       256" in out
    assert "rotation classes  36" in out
    assert "riu2 bins         10" in out
    assert "uniform codes     58" in out
    assert "  9  198  (catch-all)" in out


def test_enumerate_codes_json(capsys):
    assert main(["enumerate-codes", "-P", "4", "--format", "json"]) == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats["rotation_classes"] == 6
    assert stats["bin_populations"] == [1, 4, 4, 4, 1, 2]


def test_enumerate_codes_rejects_bad_p(capsys):
    for P in ("3", "25"):
        assert main(["enumerate-codes", "-P", P]) == 1
        err = capsys.readouterr().err
        assert err == f"cldp: error: P must be an integer in [4, 24], got {P}\n"


def test_synth_command(tmp_path, capsys):
    out_dir = tmp_path / "generated"
    assert main(["synth", str(out_dir), "--classes", "2",
                 "--samples-per-class", "2", "--size", "32"]) == 0
    out = capsys.readouterr().out
    assert "2 train + 2 test" not in out  # 2 classes x 2 samples = 4 per split
    assert "4 train + 4 test" in out
    assert (out_dir / "suite.cfg").is_file()
    assert len(list((out_dir / "images").iterdir())) == 8


def test_usage_errors_exit_1(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["extract"])  # missing input
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["extract", "x.pgm", "--workers", "-3"])
    assert exc.value.code == 1
    assert "--workers" in capsys.readouterr().err
    for args in (["extract", "x.pgm"], ["classify", "--config", "x.cfg"], ["bench", "x.matrix"]):
        with pytest.raises(SystemExit) as exc:
            main(args + ["--normalize", "mean128-std20"])
        assert exc.value.code == 1
        assert "--normalize" in capsys.readouterr().err


@pytest.mark.parametrize("where", ["geometries", "expected_train", "label", "--workers", "-P",
                                   "-R", "-R 1e1", "-R 3_0"])
def test_digits_of_other_scripts_are_usage_errors(tmp_path, capsys, where):
    """An integer read from a config file, a manifest label or a flag is
    ASCII digits, and a radius ASCII digits with an optional fraction:
    Arabic-Indic digits, which int(), float() and \\d take, exit 1, and so do
    the exponent and the '_' that float() takes."""
    where, _, radius = where.partition(" ")
    _synth(tmp_path)
    suite_cfg = tmp_path / "suite" / "suite.cfg"
    text = suite_cfg.read_text(encoding="utf-8")
    assert "expected_train = 4\n" in text
    if where == "expected_train":
        suite_cfg.write_text(text.replace("expected_train = 4", "expected_train = \u0664"),
                             encoding="utf-8")
    geometries = "(\u0668,\u0663)" if where == "geometries" else "(8,3)"
    matrix = tmp_path / "m.matrix"
    matrix.write_text(f"schemes = CLBP_S\ngeometries = {geometries}\nsuites = suite/suite.cfg\n",
                      encoding="utf-8")
    manifest = tmp_path / "digits.csv"
    manifest.write_text("c00_train_000.pgm,\u0663\n", encoding="utf-8")
    argv = {"label": ["extract", str(manifest), "--root", str(tmp_path / "suite" / "images")],
            "--workers": ["bench", str(matrix), "--quiet", "--workers", "\u0662"],
            "-P": ["enumerate-codes", "-P", "\u0668"],
            "-R": ["extract", str(tmp_path / "suite" / "images" / "c00_train_000.pgm"),
                   "-R", radius or "\u0663"]}.get(where, ["bench", str(matrix), "--quiet"])
    try:
        rc = main(argv)
    except SystemExit as exc:  # argparse rejects a flag
        rc = exc.code
    assert rc == 1
    assert {"-R": "R must be", "label": "bad label"}.get(where, where) in capsys.readouterr().err


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("cldp ")
