"""Completed local derivative pattern texture descriptors.

CLDP extends the completed LBP family (sign S, magnitude M, center C)
with a directional derivative component D, the per-direction XOR of the
sign bits at radii R and R-1. All four pattern maps are riu2-mapped and
combined into joint or concatenated histograms, classified by
chi-square nearest neighbor. The suite module adds the Outex-style
benchmark protocol, an on-disk feature cache, and a synthetic dataset
generator for dataset-free end-to-end checks.
"""

from .classifier import EvalReport, ModelSet, chi_square, classify, evaluate
from .histogram import (
    FeatureHistogram,
    SchemeError,
    SparseHistogram,
    build_histogram,
    component_bins,
    format_histogram_csv_row,
    histogram_from_bytes,
    histogram_to_bytes,
    parse_scheme,
    scheme_dimension,
)
from .image import (
    FormatError,
    GrayImage,
    ManifestError,
    load_image,
    load_manifest,
    normalize_image,
    save_pgm,
)
from .patterns import (
    PatternMaps,
    Riu2Mapper,
    canonical_intensity,
    code_space_stats,
    extract_maps,
    extract_radii,
)
from .sampler import make_geometry, valid_region
from .suite import (
    CacheError,
    ConfigError,
    DatasetError,
    ExperimentMatrix,
    FeatureCache,
    SuiteError,
    SuiteSpec,
    atomic_write_text,
    histogram_for_file,
    load_matrix_config,
    load_suite_config,
    make_synthetic_suite,
    run_matrix,
    run_suite,
)

__version__ = "0.1.0"

__all__ = [
    "CacheError",
    "ConfigError",
    "DatasetError",
    "EvalReport",
    "ExperimentMatrix",
    "FeatureCache",
    "FeatureHistogram",
    "FormatError",
    "GrayImage",
    "ManifestError",
    "ModelSet",
    "PatternMaps",
    "Riu2Mapper",
    "SchemeError",
    "SparseHistogram",
    "SuiteError",
    "SuiteSpec",
    "atomic_write_text",
    "build_histogram",
    "canonical_intensity",
    "chi_square",
    "classify",
    "code_space_stats",
    "component_bins",
    "evaluate",
    "extract_maps",
    "extract_radii",
    "format_histogram_csv_row",
    "histogram_for_file",
    "histogram_from_bytes",
    "histogram_to_bytes",
    "load_image",
    "load_manifest",
    "load_matrix_config",
    "load_suite_config",
    "make_geometry",
    "make_synthetic_suite",
    "normalize_image",
    "parse_scheme",
    "run_matrix",
    "run_suite",
    "save_pgm",
    "scheme_dimension",
    "valid_region",
]
