"""Run the cldp CLI with timing wrappers around each layer's public calls.

Usage: python3 perfbench/tracer.py SPANS_JSON cldp-arguments...

Each wrapper replaces a module or class attribute at the place its caller
looks it up (extract_maps calls ``cldp.patterns.plane_diffs``, run_suite
calls ``cldp.suite.histogram_for_file``), so nothing in the package is
edited. A call records one span (id, parent id, name, start ns, end ns,
thread id, info) in memory; the spans are written to SPANS_JSON when the
CLI returns. A target the package no longer has is listed under "skipped"
in SPANS_JSON, and run.py fails the traced operation, so a layer function
that is renamed or moved is not lost from the trace unnoticed.
"""

from __future__ import annotations

import itertools
import json
import os
import sys
import threading
import time

_clock = time.perf_counter_ns


class Recorder:
    """In-memory span store; the parent of a span is the innermost span
    still open on the same thread."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name, fn, info=None):
        """Wrap fn so every call records a span; info(args, result) adds
        a small JSON-able detail computed after the span has ended."""

        def wrapper(*args, **kwargs):
            stack = self._stack()
            sid = next(self._ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            t0 = _clock()
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                t1 = _clock()
                stack.pop()
                extra = None
                if ok and info is not None:
                    try:
                        extra = info(args, result)
                    except (AttributeError, IndexError, KeyError, TypeError):
                        pass  # a changed signature loses the detail, not the call
                self.spans.append((sid, parent, name, t0, t1, threading.get_ident(), extra))

        return wrapper

    def record(self, name, t0, t1) -> None:
        """Record a root span timed by the caller."""
        self.spans.append((next(self._ids), 0, name, t0, t1, threading.get_ident(), None))


def _entry_size(cache, key, kind):
    try:
        return os.path.getsize(cache._path(key, kind))
    except (AttributeError, OSError):
        return None


def _load_info(kind):
    def info(args, result):
        if result is None:
            return {"hit": False}
        return {"hit": True, "bytes": _entry_size(args[0], args[1], kind)}
    return info


def _store_info(kind):
    return lambda args, result: {"bytes": _entry_size(args[0], args[1], kind)}


def _file_info(args, result):
    # histogram_for_file(rel, abs_path, scheme, P, R, ...), positional in
    # every caller.
    return {"path": args[1], "P": args[3], "R": float(args[4]), "dim": int(result.bins.size)}


def _evaluate_info(args, result):
    tests, models = args[0], args[1]
    return {"queries": len(tests), "models": len(models),
            "dim": int(models.matrix.shape[1]), "ties": int(result.ties)}


# (module, attribute path, span name, info). Modules are named as the caller
# that looks the function up.
TARGETS = (
    ("cldp.cli", "histogram_for_file", "suite.file", _file_info),
    ("cldp.suite", "histogram_for_file", "suite.file", _file_info),
    ("cldp.cli", "run_suite", "suite.run_suite", None),
    ("cldp.suite", "run_suite", "suite.run_suite", None),
    ("cldp.cli", "run_matrix", "suite.run_matrix", None),
    ("cldp.cli", "load_suite_config", "suite.config", None),
    ("cldp.cli", "load_matrix_config", "suite.config", None),
    ("cldp.cli", "load_manifest", "image.manifest", None),
    ("cldp.cli", "format_histogram_csv_row", "histogram.csv_row", None),
    ("cldp.suite", "load_image", "image.load", None),
    ("cldp.suite", "normalize_image", "image.normalize", None),
    ("cldp.suite", "extract_maps", "patterns.extract_maps", None),
    ("cldp.patterns", "canonical_intensity", "patterns.canonicalize", None),
    ("cldp.patterns", "plane_diffs", "sampler.plane_diffs",
     lambda args, result: {"bytes": int(result[0].nbytes)}),
    ("cldp.patterns", "Riu2Mapper.map_array", "patterns.riu2_map", None),
    ("cldp.suite", "build_histogram", "histogram.build",
     lambda args, result: {"dim": int(result.bins.size)}),
    ("cldp.suite", "ModelSet", "classifier.modelset", None),
    ("cldp.suite", "evaluate", "classifier.evaluate", _evaluate_info),
    ("cldp.suite", "FeatureCache.load_maps", "cache.load_maps", _load_info("maps")),
    ("cldp.suite", "FeatureCache.store_maps", "cache.store_maps", _store_info("maps")),
    ("cldp.suite", "FeatureCache.load_hist", "cache.load_hist", _load_info("hist")),
    ("cldp.suite", "FeatureCache.store_hist", "cache.store_hist", _store_info("hist")),
)


def install(recorder: Recorder) -> list:
    """Wrap every target that exists; return the names of those skipped."""
    skipped = []
    for module_name, attr_path, name, info in TARGETS:
        owner = sys.modules.get(module_name)
        *owner_path, attr = attr_path.split(".")
        for part in owner_path:
            owner = getattr(owner, part, None)
        if owner is None or not hasattr(owner, attr):
            skipped.append(f"{module_name}.{attr_path}")
            continue
        setattr(owner, attr, recorder.span(name, getattr(owner, attr), info))
    return skipped


def main(argv) -> int:
    if len(argv) < 2:
        print("usage: tracer.py SPANS_JSON cldp-arguments...", file=sys.stderr)
        return 1
    out_path, cli_args = argv[0], argv[1:]
    recorder = Recorder()
    t0 = _clock()
    import cldp.cli  # imported here so that its cost is a span of its own

    recorder.record("startup.import", t0, _clock())
    skipped = install(recorder)
    try:
        return recorder.span("cli.main", cldp.cli.main)(cli_args)
    finally:
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump({"spans": recorder.spans, "skipped": skipped}, fh, separators=(",", ":"))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
