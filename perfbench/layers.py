"""Per-layer metrics from the spans that tracer.py writes for one operation.

A span's self time is its duration minus the durations of its child spans
(children are recorded on the span's own thread). Per-call times divide a
layer's total by its call count; a layer that was never called reports 0.
"""

from __future__ import annotations

import hashlib
from collections import defaultdict


class _Layer:
    __slots__ = ("calls", "total_ns", "self_ns", "infos")

    def __init__(self):
        self.calls = 0
        self.total_ns = 0
        self.self_ns = 0
        self.infos = []


def _file_digest(path: str, memo: dict) -> str:
    digest = memo.get(path)
    if digest is None:
        with open(path, "rb") as fh:
            digest = memo[path] = hashlib.sha256(fh.read()).hexdigest()
    return digest


def layer_metrics(spans, traced_wall_s: float) -> dict:
    """Per-layer values (without trace.overhead_pct) for one traced operation.

    trace.coverage is the self time of the layer spans on the CLI's main
    thread over the traced operation's wall time. The self time of cli.main
    (what no layer span covers) and the time outside every span (interpreter
    start, writing the spans) are what it leaves out. With --workers > 1 the
    worker threads' spans overlap the main thread's and are left out of it.
    """
    child_ns = defaultdict(int)
    for sid, parent, _name, t0, t1, _thread, _info in spans:
        child_ns[parent] += t1 - t0
    layers = defaultdict(_Layer)
    main_thread = next(s[5] for s in spans if s[2] == "cli.main")
    layer_self_ns = 0
    for sid, _parent, name, t0, t1, thread, info in spans:
        layer = layers[name]
        layer.calls += 1
        layer.total_ns += t1 - t0
        own = t1 - t0 - child_ns.get(sid, 0)
        layer.self_ns += own
        if info is not None:
            layer.infos.append(info)
        if thread == main_thread and name != "cli.main":
            layer_self_ns += own

    def per_call_ms(name, self_time=False):
        layer = layers[name]
        ns = layer.self_ns if self_time else layer.total_ns
        return ns / layer.calls / 1e6 if layer.calls else 0.0

    def total(name, key):
        return sum(i.get(key) or 0 for i in layers[name].infos)

    files = layers["suite.file"]
    memo = {}
    unique = {(_file_digest(i["path"], memo), i["P"], i["R"]) for i in files.infos}
    evaluate = layers["classifier.evaluate"]
    queries = total("classifier.evaluate", "queries")
    hits = {kind: [i["hit"] for i in layers[f"cache.load_{kind}"].infos] for kind in ("maps", "hist")}
    return {
        "image.load_ms": per_call_ms("image.load"),
        "image.loads": layers["image.load"].calls,
        "sampler.plane_diffs_ms": per_call_ms("sampler.plane_diffs"),
        "sampler.plane_diffs_calls": layers["sampler.plane_diffs"].calls,
        "sampler.diff_bytes": max((i["bytes"] for i in layers["sampler.plane_diffs"].infos), default=0),
        "patterns.extract_maps_ms": per_call_ms("patterns.extract_maps"),
        "patterns.canonicalize_ms": per_call_ms("patterns.canonicalize"),
        "patterns.riu2_map_ms": per_call_ms("patterns.riu2_map"),
        "patterns.extract_self_ms": per_call_ms("patterns.extract_maps", self_time=True),
        "histogram.build_ms": per_call_ms("histogram.build"),
        "histogram.csv_row_ms": per_call_ms("histogram.csv_row"),
        "histogram.dim": max((i["dim"] for i in files.infos), default=0),
        "classifier.modelset_ms": per_call_ms("classifier.modelset"),
        "classifier.query_ms": evaluate.total_ns / queries / 1e6 if queries else 0.0,
        "classifier.terms": sum(i["queries"] * i["models"] * i["dim"] for i in evaluate.infos),
        "classifier.ties": total("classifier.evaluate", "ties"),
        "suite.file_ms": per_call_ms("suite.file"),
        "suite.file_self_ms": per_call_ms("suite.file", self_time=True),
        "suite.run_suite_ms": per_call_ms("suite.run_suite"),
        "suite.file_visits": files.calls,
        "suite.unique_inputs": len(unique),
        "suite.reuse_ratio": len(unique) / files.calls if files.calls else 0.0,
        "cache.load_maps_ms": per_call_ms("cache.load_maps"),
        "cache.store_maps_ms": per_call_ms("cache.store_maps"),
        "cache.load_hist_ms": per_call_ms("cache.load_hist"),
        "cache.store_hist_ms": per_call_ms("cache.store_hist"),
        "cache.maps_hits": sum(hits["maps"]),
        "cache.maps_misses": len(hits["maps"]) - sum(hits["maps"]),
        "cache.hist_hits": sum(hits["hist"]),
        "cache.hist_misses": len(hits["hist"]) - sum(hits["hist"]),
        "cache.bytes_read": total("cache.load_maps", "bytes") + total("cache.load_hist", "bytes"),
        "cache.bytes_written": total("cache.store_maps", "bytes") + total("cache.store_hist", "bytes"),
        "cli.self_ms": layers["cli.main"].self_ns / 1e6,
        "startup.import_ms": layers["startup.import"].total_ns / 1e6,
        "trace.coverage": layer_self_ns / 1e9 / traced_wall_s,
    }
