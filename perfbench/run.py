"""cldp benchmark: three workloads, each driven through the public CLI.

Usage, from the root of a cldp source checkout:

  python3 perfbench/run.py --workload {extract,classify,matrix} [--seed 7]
      [--seconds 40] [--trace 0|1] [--record FILE]

BENCHMARK.json declares extract and matrix, the workloads a change is gated
on. classify runs the same way but is not declared: its run-to-run spread
on a shared two-vCPU host is as wide as the bound, and three workloads
leave no time for longer runs (perfbench/NOTES.md).

One operation is one ``python3 -m cldp ...`` process with ``src`` on
PYTHONPATH: one caller in a closed loop, the next operation starting when
the previous one has exited, so every operation pays interpreter start,
imports and lazy set-up as a user does. Operations start until --seconds
have passed (at least one; two with --trace 1). Inputs are synthetic suites
that ``cldp synth`` makes from --seed; they are generated SETUP_REPS times
and must come out byte identical.

Every operation's output bytes are hashed and must equal the set-up pass
(classify's cold pass, matrix's --workers 1 pass) or else the first
operation; at the default seed and size they must also equal the digests in
expected_digests.json. A non-zero exit or a mismatch fails the operation;
the set-up pass counts among the attempted operations.

--trace 0 reports the end-to-end metrics. --trace 1 alternates plain and
traced operations (tracer.py) and reports the per-layer metrics of
layers.py. A traced operation also fails when tracer.py could not wrap one
of its targets, or, for extract and classify at their default size, when
the layer spans cover less than MIN_COVERAGE of its wall time. The metric
names and units are those BENCHMARK.json declares. The last line of stdout
is one JSON object with the keys correct, attempted, failed and metrics;
--record also writes the whole run, with its environment, to FILE.

images_per_s (extract, matrix), queries_per_s (classify, matrix) and
fail_ratio are printed and recorded but not declared in BENCHMARK.json:
the first two are a fixed count per operation over wall_s, and fail_ratio
is what the result's failed and attempted carry.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time

from layers import layer_metrics

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
HERE = os.path.dirname(os.path.abspath(__file__))
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")
EXPECTED_DIGESTS = os.path.join(HERE, "expected_digests.json")

DEFAULT_SEED = 7
SETUP_REPS = 3
OP_TIMEOUT_S = 150
MIN_COVERAGE = 0.9

# Units of the metrics that are printed and recorded but not declared.
REPORTED_UNITS = {"images_per_s": "1/s", "queries_per_s": "1/s", "fail_ratio": "ratio"}


class SetupError(RuntimeError):
    """The inputs or the set-up pass could not be made."""


def _terminate(signum, frame):
    # Raised inside os.wait4, so _spawn kills and reaps the running child and
    # main() removes the scratch directory before the process exits.
    raise SystemExit(128 + signum)


def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("CLDP_CACHE_DIR", None)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _spawn(argv, stderr_path):
    """Run argv to completion; return (wall_s, exit code, child max RSS MiB)."""
    with open(stderr_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=_child_env(),
                                stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            timer.join()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024.0


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _tree_digest(top: str) -> str:
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(top):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, top).encode() + b"\0" + _sha256(path).encode())
    return h.hexdigest()


def _synth(dest, seed, shape, log):
    """Generate one suite with ``cldp synth``; a failure fails the set-up."""
    classes, samples, size = shape
    _, rc, _ = _spawn([sys.executable, "-m", "cldp", "synth", dest, "--seed", str(seed),
                       "--classes", str(classes), "--samples-per-class", str(samples),
                       "--size", str(size)], log)
    if rc != 0:
        with open(log, "rb") as fh:
            tail = fh.read()[-2000:].decode("utf-8", "replace")
        raise SetupError(f"cldp synth exited with {rc}: {tail.strip()}")


class Workload:
    """Inputs, command and output files of one workload."""

    name = ""
    default_shape = (24, 5, 128)  # classes, samples per class and split, pixels
    outputs = ()
    setup_pass = None  # "warm_up" (counted in setup_s) or "baseline" (not)
    coverage_gate = False  # traced operations must reach MIN_COVERAGE
    images_per_op = None
    queries_per_op = None

    def __init__(self, seed, shape, workers):
        self.seed = seed
        self.shape = shape
        self.workers = workers

    @property
    def split(self) -> int:
        return self.shape[0] * self.shape[1]

    def suites(self) -> list:
        """Name and shape of every suite, for the record."""
        c, s, size = self.shape
        return [{"name": f"synth-{c}x{s}-{size}px-seed{self.seed}", "train": c * s,
                 "test": c * s, "size": size}]

    def generate(self, dest, log):
        raise NotImplementedError

    def argv(self, inputs, op_dir, workers=None):
        raise NotImplementedError


class Extract(Workload):
    name = "extract"
    default_shape = (24, 20, 128)
    outputs = ("features.csv",)
    coverage_gate = True
    images_per_op = property(lambda self: 2 * self.split)

    def generate(self, dest, log):
        suite = os.path.join(dest, "suite")
        _synth(suite, self.seed, self.shape, log)
        with open(os.path.join(suite, "all.csv"), "wb") as out:
            for split in ("train", "test"):
                with open(os.path.join(suite, f"{split}.csv"), "rb") as fh:
                    out.write(fh.read())

    def argv(self, inputs, op_dir, workers=None):
        suite = os.path.join(inputs, "suite")
        return ["extract", os.path.join(suite, "all.csv"), "--root", os.path.join(suite, "images"),
                "-P", "8", "-R", "3", "--scheme", "S/M/D/C", "--workers", "1",
                "--out", os.path.join(op_dir, "features.csv")]


class Classify(Workload):
    name = "classify"
    outputs = ("report.json",)
    setup_pass = "warm_up"
    coverage_gate = True
    queries_per_op = property(lambda self: self.split)

    def generate(self, dest, log):
        _synth(os.path.join(dest, "suite"), self.seed, self.shape, log)

    def argv(self, inputs, op_dir, workers=None):
        return ["classify", "--config", os.path.join(inputs, "suite", "suite.cfg"),
                "-P", "24", "-R", "3", "--scheme", "S/M/D/C", "--format", "json",
                "--cache-dir", os.path.join(inputs, "cache"), "--workers", "1",
                "--out", os.path.join(op_dir, "report.json")]


class Matrix(Workload):
    name = "matrix"
    outputs = ("cells.csv", "table.txt")
    setup_pass = "baseline"
    schemes = ("CLBP_S/M/C", "CLDP_S/M/D/C", "CLBP_S_M/C", "CLDP_S_D_M/C")
    geometries = ((8, 2), (8, 3))
    n_suites = 3
    cells = len(schemes) * len(geometries) * n_suites
    images_per_op = property(lambda self: self.cells * 2 * self.split)
    queries_per_op = property(lambda self: self.cells * self.split)

    def suites(self) -> list:
        c, s, size = self.shape
        return [{"name": f"synth-{c}x{s}-{size}px-seed{self.seed + k}", "train": c * s,
                 "test": c * s, "size": size, "train_split_from": f"seed{self.seed}"}
                for k in range(self.n_suites)]

    def generate(self, dest, log):
        # Three suites with their own test splits and one byte-identical
        # train split, as the three Outex configs all train on inca 0 deg.
        for k in range(self.n_suites):
            _synth(os.path.join(dest, f"s{k}"), self.seed + k, self.shape, log)
        first = os.path.join(dest, "s0")
        for k in range(1, self.n_suites):
            suite = os.path.join(dest, f"s{k}")
            shutil.copyfile(os.path.join(first, "train.csv"), os.path.join(suite, "train.csv"))
            for name in os.listdir(os.path.join(first, "images")):
                if "_train_" in name:
                    shutil.copyfile(os.path.join(first, "images", name),
                                    os.path.join(suite, "images", name))
        with open(os.path.join(dest, "bench.matrix"), "w", encoding="utf-8") as fh:
            fh.write(f"schemes = {', '.join(self.schemes)}\n")
            fh.write(f"geometries = {', '.join(f'({p},{r})' for p, r in self.geometries)}\n")
            fh.write("suites = " + ", ".join(f"s{k}/suite.cfg" for k in range(self.n_suites)) + "\n")

    def argv(self, inputs, op_dir, workers=None):
        return ["bench", os.path.join(inputs, "bench.matrix"),
                "--out", os.path.join(op_dir, "cells.csv"),
                "--table", os.path.join(op_dir, "table.txt"),
                "--workers", str(workers or self.workers), "--quiet",
                "--cache-dir", os.path.join(op_dir, "cache")]


WORKLOADS = {w.name: w for w in (Extract, Classify, Matrix)}


class Runner:
    """Set-up, the closed loop of operations and the output checks of one run."""

    def __init__(self, workload: Workload, work: str, expected, gate_coverage: bool):
        self.w = workload
        self.work = work
        self.expected = expected
        self.gate_coverage = gate_coverage
        self.inputs = os.path.join(work, "inputs0")
        self.reference = None
        self.setup = {}
        self.setup_ops = []
        self.count = 0

    def set_up(self):
        times, digests = [], []
        for rep in range(SETUP_REPS):
            dest = os.path.join(self.work, f"inputs{rep}")
            t0 = time.perf_counter()
            self.w.generate(dest, os.path.join(self.work, "setup.log"))
            times.append(time.perf_counter() - t0)
            digests.append(_tree_digest(dest))
            if rep:
                shutil.rmtree(dest)
        if len(set(digests)) != 1:
            raise SetupError("suite generation is not byte-identical across repeats")
        self.setup = {"generation_s": times, "inputs_sha256": digests[0]}
        if self.w.setup_pass:
            # The set-up pass is the reference every later operation must equal.
            op = self.operation(traced=False, label="setup",
                                workers=1 if self.w.setup_pass == "baseline" else None)
            self.check(op)
            self.setup_ops.append(op)
            self.setup[f"{self.w.setup_pass}_s"] = op["wall_s"]
            self.setup["digests"] = op["digests"]

    @property
    def setup_s(self) -> float:
        return statistics.median(self.setup["generation_s"]) + self.setup.get("warm_up_s", 0.0)

    def operation(self, traced: bool, label=None, workers=None) -> dict:
        label = label or f"op{self.count}"
        self.count += 1
        op_dir = os.path.join(self.work, label)
        os.makedirs(op_dir)
        spans_path = os.path.join(op_dir, "spans.json")
        prefix = [os.path.join(HERE, "tracer.py"), spans_path] if traced else ["-m", "cldp"]
        argv = [sys.executable, *prefix, *self.w.argv(self.inputs, op_dir, workers)]
        wall, rc, rss = _spawn(argv, os.path.join(op_dir, "stderr.txt"))
        op = {"label": label, "traced": traced, "wall_s": wall, "rc": rc, "peak_rss_mib": rss,
              "digests": {}, "stderr": ""}
        if rc == 0:
            op["digests"] = {name: _sha256(os.path.join(op_dir, name)) for name in self.w.outputs}
            if traced:
                with open(spans_path, "r", encoding="utf-8") as fh:
                    trace = json.load(fh)
                op["skipped"] = trace["skipped"]
                op["layers"] = layer_metrics(trace["spans"], wall)
        else:
            with open(os.path.join(op_dir, "stderr.txt"), "rb") as fh:
                op["stderr"] = fh.read()[-2000:].decode("utf-8", "replace").strip()
        shutil.rmtree(op_dir)
        return op

    def check(self, op) -> None:
        """Set op["ok"], and op["fault"] to the reason when it failed."""
        op["fault"] = self._fault(op)
        op["ok"] = not op["fault"]

    def _fault(self, op) -> str:
        if op["rc"] != 0:
            return f"exit code {op['rc']}"
        if self.reference is None:
            self.reference = op["digests"]
        if self.expected is not None and op["digests"] != self.expected:
            return "output differs from expected_digests.json"
        if op["digests"] != self.reference:
            return "output differs from the reference operation"
        if op.get("skipped"):
            return "tracer.py could not wrap " + ", ".join(op["skipped"])
        if op["traced"] and self.gate_coverage:
            coverage = op["layers"]["trace.coverage"]
            if coverage < MIN_COVERAGE:
                return f"trace.coverage {coverage:.3f} < {MIN_COVERAGE}"
        return ""

    def loop(self, seconds: float, trace: bool) -> list:
        """Run operations back to back until the seconds have passed."""
        ops = []
        t_end = time.perf_counter() + seconds
        while len(ops) < (2 if trace else 1) or time.perf_counter() < t_end:
            op = self.operation(traced=trace and len(ops) % 2 == 1)
            self.check(op)
            ops.append(op)
        return ops


def end_to_end(w: Workload, runner: Runner, ops, fail_ratio: float) -> dict:
    plain = [op for op in ops if not op["traced"]]
    good = [op for op in plain if op["ok"]] or plain
    walls = [op["wall_s"] for op in good]
    values = {
        "setup_s": runner.setup_s,
        "wall_s": statistics.median(walls),
        "peak_rss_mib": statistics.median(op["peak_rss_mib"] for op in good),
    }
    for name, count in (("images_per_s", w.images_per_op), ("queries_per_s", w.queries_per_op)):
        if count:
            values[name] = statistics.median(count / t for t in walls)
    values["fail_ratio"] = fail_ratio
    return values


def per_layer(ops, names) -> dict:
    traced = [op for op in ops if op["traced"] and "layers" in op]
    plain = [op["wall_s"] for op in ops if not op["traced"]]
    if not traced:
        return {name: 0.0 for name in names}
    values = {name: statistics.median(op["layers"][name] for op in traced)
              for name in traced[0]["layers"]}
    traced_wall = statistics.median(op["wall_s"] for op in traced)
    values["trace.overhead_pct"] = 100.0 * (traced_wall / statistics.median(plain) - 1.0)
    return values


def environment(w: Workload, seed: int) -> dict:
    try:
        numpy_version = subprocess.run(
            [sys.executable, "-c", "import numpy; print(numpy.__version__)"],
            capture_output=True, text=True, timeout=60, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        numpy_version = "unavailable"
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": w.workers,
        "machine": platform.machine(),
        "seed": seed,
        "suites": w.suites(),
    }


def _load_expected(w: Workload, seed: int):
    if seed != DEFAULT_SEED or w.shape != w.default_shape:
        return None
    with open(EXPECTED_DIGESTS, "r", encoding="utf-8") as fh:
        return json.load(fh)[w.name]


def _load_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", default=None, help="write the whole run as JSON here")
    parser.add_argument("--shape", default=None, metavar="CLASSES,SAMPLES,SIZE",
                        help="suite shape override for smoke tests (skips the digest check)")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "cldp", "__init__.py")):
        print(f"perfbench: no cldp sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    bench = _load_benchmark()
    declared = {section: {m["name"]: m["unit"] for m in bench[section]}
                for section in ("end_to_end", "per_layer")}
    units = {**declared["end_to_end"], **REPORTED_UNITS, **declared["per_layer"]}
    why = {entry["name"]: entry["why"] for entry in bench["workloads"]}.get(args.workload)
    signal.signal(signal.SIGTERM, _terminate)
    cls = WORKLOADS[args.workload]
    shape = tuple(int(v) for v in args.shape.split(",")) if args.shape else cls.default_shape
    w = cls(args.seed, shape, len(os.sched_getaffinity(0)))
    os.makedirs(WORK_ROOT, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{w.name}-", dir=WORK_ROOT)
    try:
        runner = Runner(w, work, _load_expected(w, args.seed),
                        w.coverage_gate and shape == cls.default_shape)
        runner.set_up()
        ops = runner.loop(args.seconds, bool(args.trace))
    except SetupError as err:
        print(f"perfbench: set-up failed: {err}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:  # another run is still using it
            pass

    checked = runner.setup_ops + ops
    failed = sum(not op["ok"] for op in checked)
    e2e = end_to_end(w, runner, ops, failed / len(checked))
    layers = per_layer(ops, declared["per_layer"]) if args.trace else {}
    print(f"workload {w.name}  seed {args.seed}  trace {args.trace}  shape {shape}  "
          f"workers {w.workers}  operations {len(checked)}  failed {failed}")
    for op in checked:
        if op["fault"]:
            print(f"perfbench: {op['label']} failed: {op['fault']}", file=sys.stderr)
    shown = layers if args.trace else e2e
    for name, value in shown.items():
        print(f"  {name:<28} {value:>14.6g} {units[name]}")
    for key, value in runner.setup.items():
        print(f"  setup {key}: {value}")
    if args.record:
        record = {
            "workload": w.name, "why": why, "trace": args.trace, "seconds": args.seconds,
            "environment": environment(w, args.seed),
            "expected_digests": "checked" if runner.expected is not None else "not at this seed/shape",
            "setup": runner.setup,
            "ops": [{k: v for k, v in op.items() if k != "layers"} for op in checked],
            "end_to_end": {k: {"value": v, "unit": units[k]} for k, v in e2e.items()},
            "per_layer": {k: {"value": v, "unit": units[k]} for k, v in layers.items()},
        }
        with open(args.record, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=2)
            fh.write("\n")
    shown = declared["per_layer" if args.trace else "end_to_end"]
    metrics = {k: {"value": (layers if args.trace else e2e)[k], "unit": unit}
               for k, unit in shown.items()}
    print(json.dumps({"correct": failed == 0, "attempted": len(checked), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
