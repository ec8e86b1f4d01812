"""Experiment suites: dataset protocol, feature cache, and the result matrix.

A suite is a (train manifest, test manifest) pair sharing one label set,
typically one Outex test problem. A matrix crosses schemes x geometries x
suites and aggregates accuracies the way the rotation-invariance benchmark
tables do: AVG3 over the canonical three-suite set and AVG2-TC12 over the
two TC12 illuminant suites.

Suite runs work one (P, suite) at a time, with every radius of that P and
all schemes at once: each image is read and decoded once per P and yields
one set of pattern maps per radius from one extraction pass, and every
scheme's histogram is built from those. Features are cached on disk keyed
by image content hash, so reruns never decode or resample an image twice:

  <cache>/<key[:2]>/<key>.maps   pattern maps per (image, P, R)

This is the one kind of entry that suite runs and cldp extract write and
read; every scheme's histogram is built from it. An entry ends in a SHA-256
digest of its payload; corruption is a hard error naming the sample rather
than a silent recompute.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import hashlib
import math
import os
import re
import struct
import tempfile
from dataclasses import dataclass

import numpy as np

# evaluate and normalize_image are not called here; perfbench/tracer.py wraps
# cldp.suite.evaluate and cldp.suite.normalize_image.
from .classifier import EvalReport, ModelSet, evaluate, predict, summarize  # noqa: F401
from .histogram import (
    FeatureHistogram,
    SchemeExpr,
    build_histogram,
    check_scheme,
    csv_field,
    histogram_from_bytes,
    histogram_to_bytes,
    parse_scheme,
)
from .image import (  # noqa: F401
    _BLANKS, GrayImage, Manifest, ascii_int, ascii_radius, load_image, load_manifest,
    normalize_image, save_pgm, text_lines)
from .patterns import PatternMaps, extract_maps, extract_radii, has_derivative
from .sampler import valid_region

_MAPS_MAGIC = b"CLDPM1"


class SuiteError(RuntimeError):
    """A suite run failed: an absent dataset or a sample that cannot be read,
    decoded or extracted."""


class DatasetError(SuiteError):
    """A suite's dataset is absent or incomplete on this machine."""


class CacheError(RuntimeError):
    """A cache entry exists but cannot be trusted."""


class ConfigError(ValueError):
    """A suite or matrix config file cannot be parsed."""


@contextlib.contextmanager
def atomic_writer(path):
    """A binary file to stream output into; readers never see partial output.

    The data goes to a temp file beside path, which replaces path when the
    block exits normally and is deleted when it raises. A parent directory
    that mkstemp finds missing is made then: when several processes find it
    missing, one mkdir makes it and the others find it made.
    """
    directory = os.path.dirname(os.path.abspath(path))
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    except FileNotFoundError:
        os.makedirs(directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with os.fdopen(fd, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path, text: str) -> None:
    with atomic_writer(path) as fh:
        fh.write(text.encode("utf-8"))


# Items map_ordered keeps submitted but not yet consumed, per worker: one
# running and one queued, so a worker that finishes has its next item ready
# while results wait to be consumed in order.
_WINDOW_PER_WORKER = 2

_fn = None  # in a worker process of map_ordered: the fn it maps


def _install(fn) -> None:
    global _fn
    _fn = fn


def _call(item):
    return _fn(item)


def map_ordered(fn, items, workers: int):
    """Yield fn(item) for every item of the sequence items, in item order,
    computed in up to workers processes, and never more than one per item.

    workers None or < 1 means one per CPU this process may run on; one
    worker, or one item, runs fn here, with no pool. Otherwise each call
    starts a ProcessPoolExecutor of the platform's default start method whose
    initializer hands fn to each worker once, so fn must pickle (under
    fork it is inherited instead) and each item is sent on its own. The
    results are produced lazily: at most _WINDOW_PER_WORKER x workers items
    are submitted and not yet consumed, so a consumer that keeps only what
    it needs holds a bounded number of results whatever the number of
    items. The output is identical for any worker count. The first failing
    item, in item order, raises, and items past the window are never
    started. No worker process outlives the generator.
    """
    if workers is None or workers < 1:
        workers = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                   else os.cpu_count() or 1)
    workers = min(workers, len(items))
    if workers <= 1:
        for item in items:
            yield fn(item)
        return
    # Imported here: multiprocessing adds about 1 MiB and 15 ms to every
    # process, and a run with one worker does not need it.
    from concurrent.futures import ProcessPoolExecutor

    window = _WINDOW_PER_WORKER * workers
    pending = collections.deque()
    with ProcessPoolExecutor(workers, initializer=_install, initargs=(fn,)) as pool:
        try:
            for item in items:
                pending.append(pool.submit(_call, item))
                if len(pending) == window:
                    yield pending.popleft().result()
            while pending:
                yield pending.popleft().result()
        finally:
            for future in pending:
                future.cancel()


class SuiteSpec:
    """A named train/test pair; both manifests must cover the same labels."""

    __slots__ = ("name", "train", "test", "expected")

    def __init__(self, name: str, train: Manifest, test: Manifest, expected=None):
        if not name:
            raise ValueError("suite needs a name")
        if train.labels() != test.labels():
            raise ValueError(
                f"suite {name}: train labels {train.labels()} != test labels {test.labels()}"
            )
        for split, manifest, want in zip(("training", "test"), (train, test),
                                         expected or (None, None)):
            if want is not None and len(manifest) != want:
                raise ValueError(
                    f"suite {name}: expected {want} {split} samples, found {len(manifest)}"
                )
        self.name = name
        self.train = train
        self.test = test
        self.expected = expected


def _parse_kv_file(path, required, optional) -> dict:
    """{key: value} of a 'key = value' config file with '#' comments, read
    by text_lines as manifests are, each line, key and value trimmed of
    ASCII blanks only. It sets each key of required, and may set each of
    optional, once; any other key is an error citing its line."""
    values = {}
    for lineno, raw in enumerate(text_lines(path, ConfigError), start=1):
        line = raw.strip(_BLANKS + "\r\n")
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = (part.strip(_BLANKS) for part in line.partition("="))
        if key not in required and key not in optional:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        values[key] = value
    for key in required:
        if key not in values:
            raise ConfigError(f"{path}: missing required key {key!r}")
    return values


def _resolve_config_path(value: str, config_dir: str) -> str:
    expanded = os.path.expanduser(os.path.expandvars(value))
    if not os.path.isabs(expanded):
        expanded = os.path.join(config_dir, expanded)
    return expanded


def load_suite_config(path) -> SuiteSpec:
    """Load a suite definition file.

    Keys: name, root, train_manifest, test_manifest, optional format
    (native-csv or outex-index), optional expected_train/expected_test
    counts; no other. Relative paths resolve against the config file;
    environment variables in paths are expanded.
    """
    values = _parse_kv_file(path, ("name", "root", "train_manifest", "test_manifest"),
                            ("format", "expected_train", "expected_test"))
    config_dir = os.path.dirname(os.path.abspath(path))
    fmt = values.get("format", "native-csv")
    root = _resolve_config_path(values["root"], config_dir)
    dataset_help = (
        "For the Outex suites, download the TC10/TC12 archives, unpack them, "
        "convert the .ras rasters to 8-bit PGM (for example: "
        "mogrify -format pgm images/*.ras), and point root (or the OUTEX_ROOT "
        "environment variable) at the result."
    )
    if not os.path.isdir(root):
        raise DatasetError(f"{path}: image root {root} does not exist. {dataset_help}")
    def _count(key):
        try:
            return ascii_int(values[key]) if key in values else None
        except ValueError:
            raise ConfigError(f"{path}: bad integer for {key!r}") from None

    expected = (_count("expected_train"), _count("expected_test"))
    try:
        train = load_manifest(_resolve_config_path(values["train_manifest"], config_dir), root, fmt)
        test = load_manifest(_resolve_config_path(values["test_manifest"], config_dir), root, fmt)
    except OSError as err:
        raise DatasetError(f"{path}: cannot read manifest: {err}. {dataset_help}") from None
    return SuiteSpec(values["name"], train, test, expected)


def _seal(payload: bytes) -> bytes:
    """Frame a cache entry: the payload followed by its SHA-256 digest."""
    return payload + hashlib.sha256(payload).digest()


def _unseal(data: bytes) -> bytes:
    """Return the payload of a sealed entry, or raise if the digest disagrees."""
    if len(data) < 32:
        raise CacheError("truncated cache entry")
    payload, digest = data[:-32], data[-32:]
    if hashlib.sha256(payload).digest() != digest:
        raise CacheError("digest mismatch")
    return payload


def _maps_to_bytes(maps: PatternMaps) -> bytes:
    flags = 1 if maps.derivative is not None else 0
    h, w = maps.sign.shape
    header = _MAPS_MAGIC + struct.pack(
        "<IdB4I4dII",
        maps.P, maps.R, flags, *maps.region,
        maps.c_m, maps.c_I, maps.intensity_lo, maps.intensity_hi,
        h, w,
    )
    planes = [maps.sign.tobytes(), maps.magnitude.tobytes()]
    if maps.derivative is not None:
        planes.append(maps.derivative.tobytes())
    planes.append(maps.center.tobytes())
    return header + b"".join(planes)


def _maps_from_bytes(payload: bytes, P: int, R: float) -> PatternMaps:
    if payload[: len(_MAPS_MAGIC)] != _MAPS_MAGIC:
        raise CacheError("bad maps magic")
    off = len(_MAPS_MAGIC) + struct.calcsize("<IdB4I4dII")
    if len(payload) < off:
        raise CacheError("truncated maps header")
    fields = struct.unpack_from("<IdB4I4dII", payload, len(_MAPS_MAGIC))
    (got_p, got_r, flags, x0, y0, x1, y1, c_m, c_I, lo, hi, h, w) = fields
    if got_p != P or got_r != R:
        raise CacheError(f"maps entry is for P={got_p}, R={got_r}")
    n = h * w
    n_planes = 3 + (flags & 1)
    if len(payload) != off + n_planes * n:
        raise CacheError("maps payload length mismatch")

    def plane(i):
        arr = np.frombuffer(payload, dtype=np.uint8, count=n, offset=off + i * n)
        arr = arr.reshape(h, w)
        arr.flags.writeable = False
        return arr

    sign = plane(0)
    magnitude = plane(1)
    deriv = plane(2) if flags & 1 else None
    center = plane(n_planes - 1)
    return PatternMaps(
        P=int(got_p), R=float(got_r), region=(x0, y0, x1, y1),
        sign=sign, magnitude=magnitude, derivative=deriv, center=center,
        c_m=c_m, c_I=c_I, intensity_lo=lo, intensity_hi=hi,
    )


class FeatureCache:
    """Content-addressed store of pattern maps, one sealed .maps entry per
    (image content, P, R), keyed by maps_key.

    Each <key[:2]> subdirectory is created by atomic_writer on the first
    store into it.
    """

    def __init__(self, directory):
        self.directory = str(directory)
        os.makedirs(self.directory, exist_ok=True)

    def _path(self, key: str, kind: str) -> str:
        return os.path.join(self.directory, key[:2], f"{key}.{kind}")

    @staticmethod
    def maps_key(file_hash: str, P: int, R: float) -> str:
        # norm=0 keeps the keys that earlier versions wrote their entries under.
        deriv = int(has_derivative(R))
        raw = f"{file_hash}|maps|P={P}|R={float(R)!r}|norm=0|deriv={deriv}"
        return hashlib.sha256(raw.encode("ascii")).hexdigest()

    def _load(self, key: str, kind: str, sample: str, parse):
        """parse(payload) of a sealed entry, or None when there is no entry."""
        try:
            with open(self._path(key, kind), "rb") as fh:
                data = fh.read()
        except FileNotFoundError:
            return None
        try:
            return parse(_unseal(data))
        except (CacheError, ValueError) as err:
            raise CacheError(f"corrupt cache entry for sample {sample}: {err}") from None

    def load_maps(self, key: str, P: int, R: float, sample: str) -> PatternMaps | None:
        return self._load(key, "maps", sample, lambda payload: _maps_from_bytes(payload, P, R))

    def _store(self, key: str, kind: str, payload: bytes) -> None:
        with atomic_writer(self._path(key, kind)) as fh:
            fh.write(_seal(payload))

    def store_maps(self, key: str, maps: PatternMaps) -> None:
        self._store(key, "maps", _maps_to_bytes(maps))

    # load_hist and store_hist are not called, so no .hist entry is read or
    # written; perfbench/tracer.py wraps cldp.suite.FeatureCache.load_hist
    # and store_hist.
    def load_hist(self, key: str, scheme: SchemeExpr, sample: str) -> FeatureHistogram | None:
        return self._load(key, "hist", sample, lambda payload: histogram_from_bytes(payload, scheme))

    def store_hist(self, key: str, hist: FeatureHistogram) -> None:
        self._store(key, "hist", histogram_to_bytes(hist))


def _read_sample(abs_path: str) -> tuple:
    """(bytes, SHA-256 hex digest) of a sample file, read once: the digest
    keys the cache, and on a miss the same bytes are decoded."""
    with open(abs_path, "rb") as fh:
        data = fh.read()
    return data, hashlib.sha256(data).hexdigest()


def _attempt(rel: str, step):
    """step(), or the error it fails with, the one place a sample's error is
    named: an OSError or ValueError becomes a SuiteError naming sample rel
    (the configuration was checked before, so the error is the sample's),
    and a CacheError is returned as it is."""
    try:
        return step()
    except (OSError, ValueError) as err:
        return SuiteError(f"sample {rel}: {err}")
    except CacheError as err:
        return err


def _raised(outcome):
    """outcome, or raise it when it is an error (see _attempt)."""
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def _maps_for_file(rel: str, abs_path: str, P: int, radii, cache: FeatureCache | None,
                   digest=None) -> list:
    """Pattern maps of one image at P and each of radii, in order: the cached
    entry where there is one, else made by one extract_radii pass over the
    radii that miss, and stored when a cache is given. With a cache the
    entries are keyed by digest; when digest is None the file is read and
    hashed here, and on a miss those same bytes are decoded. Without a
    cache the file is read once, to decode it.

    A radius that fails has its error in place of its maps: the SuiteError
    naming the sample, or a CacheError. A file that cannot be read or
    decoded fails every radius that needs it, and a failed extraction the
    radii it was extracting; an empty valid region, a bad cache entry or a
    failed store fails its radius alone.
    """
    out = [None] * len(radii)
    data = None
    if cache is not None:
        if digest is None:
            sample = _attempt(rel, lambda: _read_sample(abs_path))
            if isinstance(sample, Exception):
                return [sample] * len(radii)
            data, digest = sample
        keys = [cache.maps_key(digest, P, R) for R in radii]
        out = [_attempt(rel, lambda: cache.load_maps(key, P, float(R), rel))
               for key, R in zip(keys, radii)]
    todo = [i for i, maps in enumerate(out) if maps is None]
    img = _attempt(rel, lambda: load_image(abs_path, data)) if todo else None
    if isinstance(img, Exception):
        return [img if maps is None else maps for maps in out]
    for i in todo:
        out[i] = _attempt(rel, lambda: valid_region(img, radii[i]) and None)
    todo = [i for i in todo if out[i] is None]
    if todo:
        # perfbench/tracer.py wraps cldp.suite.extract_maps: one radius, as
        # in cldp extract, goes through it.
        made = _attempt(rel, lambda: [extract_maps(img, P, radii[todo[0]])] if len(todo) == 1
                        else extract_radii(img, P, [radii[i] for i in todo]))
        if isinstance(made, Exception):
            made = [made] * len(todo)
        for i, maps in zip(todo, made):
            out[i] = maps if cache is None or isinstance(maps, Exception) else _attempt(
                rel, lambda: cache.store_maps(keys[i], maps) or maps)
    return out


def histogram_for_file(rel: str, abs_path: str, scheme: str | SchemeExpr, P: int, R: float,
                       cache: FeatureCache | None = None) -> FeatureHistogram:
    """Histogram for one image file: the per-image path of ``cldp extract``.

    rel is the name used in error messages and cache diagnostics (usually the
    manifest-relative path). scheme may be a string or a parsed SchemeExpr,
    as in run_suite. The histogram is built from the image's maps at
    (P, R), which come from the cache's .maps entry when a cache is given
    and has one (_maps_for_file), as in suite runs. The file is read once;
    it is hashed only to key a cache. A bad (scheme, P, R) raises ValueError
    before the file is read; a bad file raises SuiteError naming rel.
    """
    expr = check_scheme(scheme, P, R)
    maps, = _maps_for_file(rel, abs_path, P, (R,), cache)
    return build_histogram(_raised(maps), expr)


def _files(manifest, digests=None) -> list:
    """(rel, absolute path, content SHA-256 or None) of each sample."""
    digests = digests or [None] * len(manifest.entries)
    return [(rel, manifest.abs_path(rel), d) for (rel, _), d in zip(manifest.entries, digests)]


def _split_key(manifest):
    """The ordered (content SHA-256, label) list of a manifest's samples,
    each file read and hashed here, or None when a sample cannot be read:
    its run then reports that sample."""
    try:
        return tuple((_read_sample(manifest.abs_path(rel))[1], label)
                     for rel, label in manifest.entries)
    except OSError:
        return None


def _histograms(maps, schemes) -> list:
    """The histogram of maps for each (text, SchemeExpr) of schemes, a group
    that several schemes share counted once."""
    counted = {}
    return [build_histogram(maps, expr, counted=counted) for _, expr in schemes]


def _pass_item(P: int, radii, cache: FeatureCache | None, use, entry) -> list:
    """[use(R, maps), or the failure at R, for each R of radii] for one
    _files entry: one read, one decode and one extract_radii pass on a
    cache miss (_maps_for_file), then use."""
    rel, abs_path, digest = entry
    all_maps = _maps_for_file(rel, abs_path, P, radii, cache, digest=digest)
    return [maps if isinstance(maps, Exception) else use(R, maps)
            for R, maps in zip(radii, all_maps)]


def _pass(files, P: int, radii, cache: FeatureCache | None, workers: int, use) -> dict:
    """{R: [use(R, maps) per file, in order] or the first failure at R, for
    each R of radii}, from one map_ordered pass of _pass_item over files.

    files are _files entries. One worker call handles one image at every
    radius; use must pickle, as map_ordered's fn does, and so must what it
    returns. The pass stops early once every radius has failed; the result
    does not depend on the worker count.
    """
    if not radii:
        return {}
    got = {R: [] for R in radii}
    work = functools.partial(_pass_item, P, radii, cache, use)
    with contextlib.closing(map_ordered(work, files, workers)) as results:
        for outcome in results:
            for R, result in zip(radii, outcome):
                if isinstance(got[R], list):
                    if isinstance(result, Exception):
                        got[R] = result
                    else:
                        got[R].append(result)
            if not any(isinstance(g, list) for g in got.values()):
                break
    return got


def _train_rows(schemes, R: float, maps) -> list:
    """The nonzero bins of maps' histogram for each scheme."""
    return [h.sparse() for h in _histograms(maps, schemes)]


def _test_outcomes(schemes, models: dict, R: float, maps) -> list:
    """The (label, tied) of maps' histogram against models[R], per scheme."""
    return [predict(h, m) for h, m in zip(_histograms(maps, schemes), models[R])]


def _run(suites, schemes, geometries, cache: FeatureCache | None, workers: int,
         progress=None) -> dict:
    """{(P, R, suite position): one EvalReport per scheme, or the failure,
    for each (P, R) of geometries and each suite}: the one runner of suite
    runs. schemes are (text, SchemeExpr) pairs checked against every
    geometry, the text naming the scheme in its reports.

    The geometries are grouped by P, and the work goes P by P and suite by
    suite, a train pass then a test pass over every radius of the P and all
    schemes at once (_pass). So each image is read once per (P, suite)
    pass, and where its maps are not cached it is decoded once and each
    circle it needs is sampled once. A failure fails its (geometry, suite)
    and no other, with the error of that geometry's first failing sample in
    manifest order, the train pass first; a radius that failed to train is
    not tested.

    Suites whose training splits hold the same (content SHA-256, label)
    sequence share a geometry's model sets, built by the first of them
    whose train pass at that geometry succeeds; they are dropped when the
    P is done. Only a suite whose training label sequence another suite
    repeats has its split hashed, since splits with different labels never
    match; that is done once per run, in the calling process (_split_key),
    and those digests then key the cache, so no training file is hashed
    twice. With workers > 1 each pass runs in worker processes of its own
    (see map_ordered), and its fn, which carries the
    schemes, the cache and a test pass's model sets, must pickle. A train
    worker returns a training image's nonzero bins per scheme and radius,
    and a test worker the (label, tied) of a test image per scheme and
    radius, so no pass holds all its histograms at once. progress gets one
    line per (scheme, geometry) before each (P, suite) pass.
    """
    sequences = [[label for _, label in spec.train.entries] for spec in suites]
    split_keys = [_split_key(spec.train) if sequences.count(seq) > 1 else None
                  for spec, seq in zip(suites, sequences)]
    radii_of = {}  # P: its distinct radii, in geometry order, as the keys of a dict
    for P, R in geometries:
        radii_of.setdefault(P, {})[float(R)] = None
    outcome = {}
    for P, radii in radii_of.items():
        shared = {}  # this P's model sets of repeated training splits, by (split, R)
        for s, (spec, split_key, labels) in enumerate(zip(suites, split_keys, sequences)):
            if progress:
                for R in radii:
                    for text, _ in schemes:
                        progress(f"{text} ({P},{R:g}) {spec.name}")
            try:
                models = {R: shared.get((split_key, R)) for R in radii}  # None: to train
                rows = _pass(_files(spec.train, split_key and [d for d, _ in split_key]), P,
                             [R for R in radii if models[R] is None], cache, workers,
                             functools.partial(_train_rows, schemes))
                for R, got in rows.items():  # a model set holds its own copy of its rows
                    if not isinstance(got, Exception):
                        got = [ModelSet([row[k] for row in got], labels) for k in range(len(schemes))]
                        if split_key:
                            shared[split_key, R] = got
                    models[R] = got
                live = {R: m for R, m in models.items() if not isinstance(m, Exception)}
                tested = _pass(_files(spec.test), P, list(live), cache, workers,
                               functools.partial(_test_outcomes, schemes, live))
                truth = [label for _, label in spec.test.entries]
                for R, sets in models.items():
                    got = tested.get(R, sets)
                    outcome[P, R, s] = got if isinstance(got, Exception) else [
                        summarize(truth, [o[k] for o in got], m, suite=spec.name, scheme=text)
                        for k, ((text, _), m) in enumerate(zip(schemes, sets))]
            except Exception as err:  # recorded; run_suite raises it, run_matrix reports it
                outcome.update(((P, R, s), err) for R in radii)
    return outcome


def run_suite(spec: SuiteSpec, scheme: str | SchemeExpr, P: int, R: float,
              cache_dir=None, workers: int = 1) -> EvalReport:
    """Extract features for one suite and classify its test split: the
    one-cell case of _run, which states what a run shares and reads.

    scheme may be a string (kept verbatim in the report, so CLBP_/CLDP_
    prefixes survive into tables) or a parsed SchemeExpr. The report is
    byte-identical for any worker count. A bad (scheme, P, R) raises
    ValueError before any file is touched; otherwise the error that
    run_matrix records for this cell is raised: the first failing sample,
    train pass first.
    """
    expr = check_scheme(scheme, P, R)
    cache = FeatureCache(cache_dir) if cache_dir else None
    reports, = _run((spec,), [(str(scheme), expr)], [(P, R)], cache, workers).values()
    return _raised(reports)[0]


def _check_cells(schemes, geometries) -> None:
    """check_scheme every (scheme, geometry) pair of a matrix."""
    for text in schemes:
        for P, R in geometries:
            check_scheme(text, P, R)


@dataclass(frozen=True)
class ExperimentMatrix:
    """schemes x geometries x suites; every (scheme, geometry) pair passes
    check_scheme."""

    schemes: tuple
    geometries: tuple
    suites: tuple

    def __post_init__(self):
        _check_cells(self.schemes, self.geometries)


_GEOMETRY = re.compile(r"\(([^(),]*),([^()]*)\)")  # (P, R), each read as its flag is


def _items(text: str) -> tuple:
    """The comma-separated items of text, less ASCII blanks; empty ones dropped."""
    return tuple(filter(None, (item.strip(_BLANKS) for item in text.split(","))))


def load_matrix_config(path) -> ExperimentMatrix:
    """Load a matrix definition: the _items of schemes and suites (suite config
    paths), the (P, R) pairs of geometries read as -P and -R are; no other key."""
    values = _parse_kv_file(path, ("schemes", "geometries", "suites"), ())
    config_dir = os.path.dirname(os.path.abspath(path))
    schemes = _items(values["schemes"])
    if not schemes:
        raise ConfigError(f"{path}: no schemes listed")
    geom_text = values["geometries"]
    try:
        geometries = tuple((ascii_int(p), ascii_radius(r)) for p, r in _GEOMETRY.findall(geom_text))
    except ValueError:
        geometries = ()
    if not geometries or _GEOMETRY.sub("", geom_text).strip(_BLANKS + ","):
        raise ConfigError(f"{path}: cannot parse geometries {geom_text!r}")
    # A bad cell fails here, before any suite loads, so it is a config error
    # even when a dataset is missing too. parse_scheme and make_geometry are
    # memoized: the matrix's own check and the runs reuse this work.
    _check_cells(schemes, geometries)
    suite_paths = _items(values["suites"])
    if not suite_paths:
        raise ConfigError(f"{path}: no suites listed")
    suites = tuple(load_suite_config(_resolve_config_path(sp, config_dir)) for sp in suite_paths)
    return ExperimentMatrix(schemes=schemes, geometries=geometries, suites=suites)


@dataclass(frozen=True)
class MatrixCell:
    scheme: str
    P: int
    R: float
    suite: str
    accuracy: float | None
    ties: int
    error: str | None = None


def cells_csv_text(cells) -> str:
    """The per-cell CSV: a header, then one row per cell, floats at 17
    significant digits, FAILED for a failed cell's accuracy, and scheme and
    suite quoted by csv_field."""
    lines = ["scheme,P,R,suite,accuracy,ties"]
    for c in cells:
        acc = "FAILED" if c.accuracy is None else f"{c.accuracy:.17g}"
        lines.append(f"{csv_field(c.scheme)},{c.P},{c.R:.17g},{csv_field(c.suite)},{acc},{c.ties}")
    return "\n".join(lines) + "\n"


def _mean_cell(name: str, members) -> MatrixCell | None:
    """The cell named name holding the mean accuracy and summed ties of
    members, cells of one (scheme, geometry): the one mean of the AVG rows
    and the table. It fails when a member failed; None without members."""
    if not members:
        return None
    scheme, P, R = members[0].scheme, members[0].P, members[0].R
    if any(c.accuracy is None for c in members):
        return MatrixCell(scheme, P, R, name, None, 0, error="aggregate over failed cells")
    return MatrixCell(scheme, P, R, name, sum(c.accuracy for c in members) / len(members),
                      sum(c.ties for c in members))


@dataclass(frozen=True)
class MatrixReport:
    """A matrix's cells, and means[k][g]: scheme k's mean at geometry g."""

    cells: tuple
    schemes: tuple
    geometries: tuple
    suite_names: tuple
    means: tuple

    @property
    def failed(self) -> bool:
        return any(c.error is not None for c in self.cells)

    def to_csv_text(self) -> str:
        return cells_csv_text(self.cells)

    def to_table_text(self) -> str:
        """Render scheme rows against geometry columns, each value the mean
        over the suites in percent (FAIL when one failed, - when none ran),
        with a Delta row after every CLDP scheme that follows a CLBP one."""
        name_width = max([len("Delta(acc)"), *map(len, self.schemes)])
        headers = [f"({P},{R:g})" for P, R in self.geometries]
        col = max(8, max((len(h) for h in headers), default=8) + 1)

        def line(name, values):
            return name.ljust(name_width) + "".join(v.rjust(col) for v in values)

        def delta(a, b):
            try:
                return f"{float(b) - float(a):+.2f}"
            except ValueError:  # FAIL or -
                return "-"

        rows = [["-" if m is None else "FAIL" if m.accuracy is None else f"{100.0 * m.accuracy:.2f}"
                 for m in means] for means in self.means]
        lines = [line("scheme", headers)]
        for k, (scheme, row) in enumerate(zip(self.schemes, rows)):
            lines.append(line(scheme, row))
            if k and scheme.startswith("CLDP") and self.schemes[k - 1].startswith("CLBP"):
                lines.append(line("Delta(acc)", [delta(a, b) for a, b in zip(rows[k - 1], row)]))
        return "\n".join(lines) + "\n"


def run_matrix(matrix: ExperimentMatrix, cache_dir=None, workers: int = 1,
               progress=None) -> MatrixReport:
    """Run every cell of the matrix with _run, recording failures instead of
    aborting: a failure fails every scheme's cell of its (geometry, suite).

    Cells are listed scheme by scheme, then by geometry and suite.
    Aggregate rows are appended per (scheme, geometry): AVG3 when the
    matrix has exactly three suites, AVG2-TC12 over the suites whose names
    contain 'TC12' when exactly two do. Both, and the table's value, are
    _mean_cell of suite cells picked by position, plain means of the
    per-suite accuracies, so they can be recomputed from the CSV.
    """
    cache = FeatureCache(cache_dir) if cache_dir else None
    suite_names = tuple(s.name for s in matrix.suites)
    tc12 = [s for s, n in enumerate(suite_names) if "TC12" in n.upper()]
    schemes = [(text, parse_scheme(text)) for text in matrix.schemes]
    outcome = _run(matrix.suites, schemes, matrix.geometries, cache, workers, progress)

    cells, means = [], []
    for k, scheme in enumerate(matrix.schemes):
        means.append([])
        for P, R in matrix.geometries:
            R = float(R)
            group = []
            for s, name in enumerate(suite_names):
                got = outcome[P, R, s]
                group.append(MatrixCell(scheme, P, R, name, None, 0, error=str(got))
                             if isinstance(got, Exception)
                             else MatrixCell(scheme, P, R, name, got[k].accuracy, got[k].ties))
            cells.extend(group)
            if len(suite_names) == 3:
                cells.append(_mean_cell("AVG3", group))
            if len(tc12) == 2:
                cells.append(_mean_cell("AVG2-TC12", [group[s] for s in tc12]))
            means[k].append(_mean_cell("mean", group))
    return MatrixReport(
        cells=tuple(cells),
        schemes=matrix.schemes,
        geometries=matrix.geometries,
        suite_names=suite_names,
        means=tuple(map(tuple, means)),
    )


def _box_filter(field: np.ndarray, win: int) -> np.ndarray:
    """Separable box filter, valid mode, via sliding cumulative sums."""

    def along_rows(a):
        c = np.cumsum(a, axis=0, dtype=np.float64)
        out = np.empty((a.shape[0] - win + 1, a.shape[1]))
        out[0] = c[win - 1]
        out[1:] = c[win:] - c[:-win]
        return out / win

    return along_rows(along_rows(field).T).T


def _synth_sample(rng, kind: int, level: int, size: int) -> np.ndarray:
    yy, xx = np.mgrid[0:size, 0:size].astype(np.float64)
    if kind == 0:
        wavelength = 6.0 + 4.0 * level
        theta = math.pi / 6.0
        phase = rng.uniform(0.0, 2.0 * math.pi)
        carrier = (xx * math.cos(theta) + yy * math.sin(theta)) / wavelength
        base = 127.5 + 55.0 * np.sin(2.0 * math.pi * carrier + phase)
    elif kind == 1:
        period = 5 + 3 * level
        ox = int(rng.integers(0, period))
        oy = int(rng.integers(0, period))
        base = 70.0 + 120.0 * ((((xx + ox) // period + (yy + oy) // period) % 2))
    else:
        win = 3 + 2 * level
        field = rng.normal(0.0, 1.0, size=(size + win - 1, size + win - 1))
        smooth = _box_filter(field, win)
        sd = smooth.std()
        if sd == 0.0:
            sd = 1.0
        base = (smooth - smooth.mean()) / sd * 35.0 + 128.0
    k = int(rng.integers(0, 4))
    base = np.rot90(base, k)
    gain = rng.uniform(0.85, 1.15)
    offset = rng.uniform(-12.0, 12.0)
    noisy = gain * base + offset + rng.normal(0.0, 2.0, size=base.shape)
    return np.clip(np.floor(noisy + 0.5), 0.0, 255.0)


def make_synthetic_suite(out_dir, seed: int = 7, classes: int = 3,
                         samples_per_class: int = 10, size: int = 64) -> SuiteSpec:
    """Generate a deterministic synthetic texture suite on disk.

    Class generators cycle through oriented sinusoid gratings, checkerboards
    and smoothed white noise, with parameters stepped every three classes.
    Each sample is independently 90-degree rotated, intensity jittered and
    lightly noised, then quantized to 8-bit PGM. The same seed always
    produces byte-identical files. Writes images/, the train.csv and
    test.csv manifests and suite.cfg under out_dir, and returns
    load_suite_config of that suite.cfg.
    """
    if classes < 2:
        raise ValueError("need at least 2 classes")
    if samples_per_class < 1 or size < 16:
        raise ValueError("need samples_per_class >= 1 and size >= 16")
    rng = np.random.default_rng(seed)
    img_dir = os.path.join(out_dir, "images")
    os.makedirs(img_dir, exist_ok=True)
    rows = {"train": [], "test": []}
    for c in range(classes):
        kind, level = c % 3, c // 3
        for split in ("train", "test"):
            for i in range(samples_per_class):
                arr = _synth_sample(rng, kind, level, size)
                rel = f"c{c:02d}_{split}_{i:03d}.pgm"
                save_pgm(GrayImage(arr), os.path.join(img_dir, rel))
                rows[split].append((rel, c))
    for split in ("train", "test"):
        atomic_write_text(os.path.join(out_dir, f"{split}.csv"),
                          "".join(f"{rel},{label}\n" for rel, label in rows[split]))
    config = os.path.join(out_dir, "suite.cfg")
    atomic_write_text(config, (
        f"name = synth-{classes}x{samples_per_class}-{size}px-seed{seed}\n"
        f"root = images\n"
        f"format = native-csv\n"
        f"train_manifest = train.csv\n"
        f"test_manifest = test.csv\n"
        f"expected_train = {classes * samples_per_class}\n"
        f"expected_test = {classes * samples_per_class}\n"))
    return load_suite_config(config)
