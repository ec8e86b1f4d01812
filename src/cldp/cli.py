"""Command-line front end: extract, classify, bench, enumerate-codes, synth.

Exit codes are a stable contract for scripting: 0 success; 1 usage or
configuration error (bad flag, scheme, geometry, manifest or config file),
raised before any sample is read; 2 experiment failure (absent dataset, a
sample that cannot be read, decoded or extracted, named in the message,
corrupt cache, failed benchmark cell). The CLDP_CACHE_DIR environment
variable supplies the default --cache-dir. Features, reports and tables
are written atomically.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import shutil
import sys
import tempfile

from . import __version__
from .histogram import binary_radius, check_scheme, format_histogram_csv_row, histogram_to_bytes
from .image import ascii_int, ascii_radius, load_manifest
from .patterns import code_space_stats
from .suite import (
    CacheError,
    FeatureCache,
    MatrixCell,
    SuiteError,
    SuiteSpec,
    atomic_write_text,
    atomic_writer,
    cells_csv_text,
    histogram_for_file,
    load_matrix_config,
    load_suite_config,
    make_synthetic_suite,
    map_ordered,
    run_matrix,
    run_suite,
)

_MANIFEST_EXT = {".csv": "native-csv", ".txt": "outex-index"}


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; 2 is reserved for
    # experiment failures here, so usage errors are remapped to 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _manifest_source(path: str, args):
    """(format, root) of a manifest argument: --manifest-format, else the
    format its extension names (None for any other extension); --root, else
    the manifest's directory."""
    fmt = args.manifest_format or _MANIFEST_EXT.get(os.path.splitext(path)[1].lower())
    root = args.root if args.root is not None else (os.path.dirname(path) or ".")
    return fmt, root


@contextlib.contextmanager
def _output(out):
    """A binary file for a command's output that shows up only on success:
    with out, a temp file renamed to out; without, an anonymous temp file
    copied to stdout. A failure leaves no file and writes nothing."""
    if out:
        with atomic_writer(out) as fh:
            yield fh
        return
    with tempfile.TemporaryFile() as spool:
        yield spool
        spool.seek(0)
        sys.stdout.flush()
        shutil.copyfileobj(spool, sys.stdout.buffer)
        sys.stdout.buffer.flush()


def _task_histogram(scheme, P, R, cache, task):
    """histogram_for_file of one extract task, (rel, label, abs_path)."""
    rel, _, abs_path = task
    return histogram_for_file(rel, abs_path, scheme, P, R, cache)


def cmd_extract(args) -> int:
    """Write one histogram per image: a CSV row per manifest entry, in
    manifest order, or the binary form of a single image.

    Rows are formatted and written as map_ordered yields the histograms, so
    memory holds one image's work plus a bounded window of results whatever
    the manifest length. The output appears only when every image succeeds.
    """
    R = ascii_radius(args.R)
    expr = check_scheme(args.scheme, args.P, R)
    fmt, root = _manifest_source(args.input, args)
    if args.format == "binary":
        if fmt is not None:
            raise ValueError("--format binary holds one histogram; use csv for manifests")
        binary_radius(R)
    if fmt is not None:
        manifest = load_manifest(args.input, root, fmt)
        tasks = [(rel, label, manifest.abs_path(rel)) for rel, label in manifest.entries]
    else:
        if not os.path.isfile(args.input):
            raise FileNotFoundError(f"no such image: {args.input}")
        tasks = [(args.input, -1, args.input)]

    cache = FeatureCache(args.cache_dir) if args.cache_dir else None
    work = functools.partial(_task_histogram, expr, args.P, R, cache)
    with _output(args.out) as fh, \
            contextlib.closing(map_ordered(work, tasks, args.workers)) as hists:
        if args.format == "binary":
            fh.write(histogram_to_bytes(next(hists)))
        else:
            for h, (rel, label, _) in zip(hists, tasks):
                fh.write((format_histogram_csv_row(rel, label, h) + "\n").encode("utf-8"))
    return 0


def _adhoc_suite(args) -> SuiteSpec:
    def load_one(path):
        fmt, root = _manifest_source(path, args)
        if fmt is None:
            raise ValueError(
                f"cannot infer manifest format of {path}; pass --manifest-format"
            )
        return load_manifest(path, root, fmt)

    return SuiteSpec(args.name, load_one(args.train), load_one(args.test))


def cmd_classify(args) -> int:
    R = ascii_radius(args.R)
    check_scheme(args.scheme, args.P, R)
    if args.config:
        if args.train or args.test:
            raise ValueError("--config and --train/--test are mutually exclusive")
        spec = load_suite_config(args.config)
    else:
        if not (args.train and args.test):
            raise ValueError("classify needs either --config or both --train and --test")
        spec = _adhoc_suite(args)
    rep = run_suite(spec, args.scheme, args.P, R,
                    cache_dir=args.cache_dir, workers=args.workers)
    if args.format == "json":
        text = rep.to_json()
    elif args.format == "csv":
        text = cells_csv_text([MatrixCell(rep.scheme, rep.P, rep.R, rep.suite,
                                          rep.accuracy, rep.ties)])
    else:
        text = rep.to_text()
    with _output(args.out) as fh:
        fh.write(text.encode("utf-8"))
    return 0


def cmd_bench(args) -> int:
    matrix = load_matrix_config(args.config)
    progress = None
    if not args.quiet:
        def progress(msg):
            print(msg, file=sys.stderr, flush=True)
    report = run_matrix(matrix, cache_dir=args.cache_dir, workers=args.workers,
                        progress=progress)
    if args.out:
        atomic_write_text(args.out, report.to_csv_text())
    with _output(args.table) as fh:
        fh.write(report.to_table_text().encode("utf-8"))
    for cell in report.cells:
        if cell.error is not None:
            print(f"FAILED {cell.scheme} ({cell.P},{cell.R:g}) {cell.suite}: {cell.error}",
                  file=sys.stderr)
    return 2 if report.failed else 0


def cmd_enumerate_codes(args) -> int:
    stats = code_space_stats(args.P)
    if args.format == "json":
        sys.stdout.write(json.dumps(stats, indent=2, sort_keys=True) + "\n")
        return 0
    lines = [
        f"P                 {stats['P']}",
        f"total codes       {stats['total_codes']}",
        f"rotation classes  {stats['rotation_classes']}",
        f"riu2 bins         {stats['riu2_bins']}",
        f"uniform codes     {stats['uniform_codes']}",
        f"non-uniform codes {stats['total_codes'] - stats['uniform_codes']}",
        "",
        "bin  population",
    ]
    for b, n in enumerate(stats["bin_populations"]):
        tag = "  (catch-all)" if b == stats["P"] + 1 else ""
        lines.append(f"{b:>3}  {n}{tag}")
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


def cmd_synth(args) -> int:
    spec = make_synthetic_suite(
        args.out_dir, seed=args.seed, classes=args.classes,
        samples_per_class=args.samples_per_class, size=args.size,
    )
    n_train, n_test = spec.expected
    print(f"suite {spec.name}: {n_train} train + {n_test} test images under {args.out_dir}")
    print(f"config: {os.path.join(args.out_dir, 'suite.cfg')}")
    return 0


def _add_geometry_flags(p) -> None:
    p.add_argument("-P", type=_uint, default=8, metavar="P",
                   help="neighbors on the circle (default 8)")
    p.add_argument("-R", default="3", metavar="R",
                   help="outer sampling radius (default 3)")
    p.add_argument("--scheme", default="S/M/D/C",
                   help="component scheme, '/' joint and '_' concatenated (default S/M/D/C)")


def _uint(text: str) -> int:
    """An integer flag: ASCII digits, as ascii_int reads them, so >= 0."""
    try:
        return ascii_int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {text!r}") from None


def _add_runtime_flags(p) -> None:
    p.add_argument("--cache-dir", default=os.environ.get("CLDP_CACHE_DIR"),
                   help="feature cache directory (default $CLDP_CACHE_DIR)")
    p.add_argument("--workers", type=_uint, default=1,
                   help="worker processes, >= 0; 0 = one per CPU this process may run on"
                        " (default 1)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="cldp", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser("extract", help="write feature histograms for an image or manifest")
    p.add_argument("input", help="image (.pgm/.pnm/.bmp) or manifest (.csv/.txt)")
    p.add_argument("--root", default=None,
                   help="image root for manifest entries (default: manifest directory)")
    p.add_argument("--manifest-format", choices=sorted(_MANIFEST_EXT.values()), default=None,
                   help="treat input as a manifest of this format (default: by extension)")
    _add_geometry_flags(p)
    _add_runtime_flags(p)
    p.add_argument("--format", choices=["csv", "binary"], default="csv",
                   help="csv rows, or the compact binary form (single image only)")
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("classify", help="train on one manifest, classify another")
    p.add_argument("--config", default=None, help="suite config file")
    p.add_argument("--train", default=None, help="training manifest")
    p.add_argument("--test", default=None, help="test manifest")
    p.add_argument("--root", default=None,
                   help="image root for --train/--test (default: manifest directory)")
    p.add_argument("--manifest-format", choices=sorted(_MANIFEST_EXT.values()), default=None)
    p.add_argument("--name", default="adhoc", help="suite name used in the report")
    _add_geometry_flags(p)
    _add_runtime_flags(p)
    p.add_argument("--format", choices=["table", "json", "csv"], default="table")
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("bench", help="run a schemes x geometries x suites matrix")
    p.add_argument("config", help="matrix config listing schemes, geometries, suites")
    _add_runtime_flags(p)
    p.add_argument("--out", default=None, help="write the per-cell CSV here")
    p.add_argument("--table", default=None, help="write the formatted table here (default stdout)")
    p.add_argument("--quiet", action="store_true", help="suppress progress on stderr")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("enumerate-codes", help="print code-space statistics for one P")
    p.add_argument("-P", type=_uint, default=8, metavar="P", help="code width, 4..24 (default 8)")
    p.add_argument("--format", choices=["table", "json"], default="table")
    p.set_defaults(func=cmd_enumerate_codes)

    p = sub.add_parser("synth", help="generate a deterministic synthetic texture suite")
    p.add_argument("out_dir", help="directory to create the suite under")
    p.add_argument("--seed", type=_uint, default=7)
    p.add_argument("--classes", type=_uint, default=3)
    p.add_argument("--samples-per-class", type=_uint, default=10)
    p.add_argument("--size", type=_uint, default=64)
    p.set_defaults(func=cmd_synth)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, SuiteError, CacheError) as err:
        print(f"cldp: error: {err}", file=sys.stderr)
        return 2 if isinstance(err, (SuiteError, CacheError)) else 1


if __name__ == "__main__":
    sys.exit(main())
