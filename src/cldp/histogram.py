"""Fusion schemes and feature histograms.

A scheme names which pattern components are used and how they combine:
'_' concatenates independent groups, '/' joins components of one group into
a joint histogram. 'S_D_M/C' therefore means three blocks: the S histogram,
the D histogram, and the joint M-by-C histogram, laid out in written order.

Component bin widths are P+2 for S, M and D (the riu2 range) and 2 for C.
Joint bins are flattened row-major in written order, each group's counts
are divided by its valid-pixel count, so it has unit mass, and groups are
concatenated.
"""

from __future__ import annotations

import functools
import struct
from dataclasses import dataclass

import numpy as np

from .patterns import PatternMaps, derivative_error, has_derivative
from .sampler import make_geometry

COMPONENTS = "SMDC"
_PREFIXES = ("CLDP_", "CLBP_")

_MAGIC = b"CLDPH1"


class SchemeError(ValueError):
    """A scheme string violates the grammar; position is a 0-based index."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


@dataclass(frozen=True)
class SchemeExpr:
    """A parsed fusion scheme: a tuple of groups, each a tuple of components."""

    groups: tuple

    def __str__(self):
        return "_".join("/".join(group) for group in self.groups)

    @property
    def components(self):
        return tuple(c for group in self.groups for c in group)

    def uses(self, component: str) -> bool:
        return component in self.components


def parse_scheme(text: str) -> SchemeExpr:
    """Parse a scheme string such as 'S/M/D/C' or 'CLBP_S_M/C'.

    The optional CLDP_/CLBP_ prefix is stripped; a CLBP_ prefix forbids the
    derivative component. Each component may appear once overall, every
    group needs at least one component, and C cannot form a group on its
    own. Errors carry the offending position in the original string.

    Parsed schemes are frozen and memoized per text, so a scheme that a
    matrix config, its validation and every (geometry, suite) run all name
    is parsed once; bad text raises on every call.
    """
    if not isinstance(text, str) or not text:
        raise SchemeError("empty scheme", 0)
    return _parse_scheme(text)


@functools.lru_cache(maxsize=256)
def _parse_scheme(text: str) -> SchemeExpr:
    # Split into '_' groups of '/' tokens; a valid token is one component
    # letter. The first error in text order wins, then a lone C group.
    prefix = next((p for p in _PREFIXES if text.startswith(p)), "")
    pos = len(prefix)
    if pos == len(text):
        raise SchemeError("scheme has a prefix but no components", pos)
    groups, lone_c, seen = [], [], set()
    for group_text in text[pos:].split("_"):
        start, group = pos, []
        for token in group_text.split("/"):
            if pos == len(text):
                raise SchemeError("scheme ends with a dangling separator", pos - 1)
            ch = token[:1] or text[pos]  # an empty token stands before a separator
            if ch not in COMPONENTS:
                raise SchemeError(f"expected a component letter, got {ch!r}", pos)
            if ch in seen:
                raise SchemeError(f"component {ch!r} used twice", pos)
            if ch == "D" and prefix == "CLBP_":
                raise SchemeError("CLBP_ schemes cannot use the D component", pos)
            if len(token) > 1:
                raise SchemeError(f"expected '/', '_' or end, got {token[1]!r}", pos + 1)
            seen.add(ch)
            group.append(ch)
            pos += 2
        groups.append(tuple(group))
        if group == ["C"]:
            lone_c.append(start)
    if lone_c:
        raise SchemeError("C cannot stand alone as a group", lone_c[0])
    return SchemeExpr(tuple(groups))


def check_scheme(scheme, P: int, R: float) -> SchemeExpr:
    """Parse scheme (a string or a SchemeExpr) and check that make_geometry
    accepts (P, R) and that R can supply the scheme's components: D needs
    R >= 2. Entry points call this before they touch a file."""
    expr = scheme if isinstance(scheme, SchemeExpr) else parse_scheme(scheme)
    make_geometry(P, R)
    if expr.uses("D") and not has_derivative(R):
        raise derivative_error(f"scheme {scheme}", R)
    return expr


def component_bins(component: str, P: int) -> int:
    """Bin width of one component: P+2 for S/M/D, 2 for C."""
    if component == "C":
        return 2
    if component in COMPONENTS:
        return P + 2
    raise ValueError(f"unknown component {component!r}")


def group_dimension(group, P: int) -> int:
    dim = 1
    for comp in group:
        dim *= component_bins(comp, P)
    return dim


def scheme_dimension(scheme: SchemeExpr, P: int) -> int:
    """Total histogram length: the sum over groups of the product of widths."""
    return sum(group_dimension(g, P) for g in scheme.groups)


@dataclass(frozen=True)
class FeatureHistogram:
    """A concatenated per-group histogram for one image.

    dims holds each group's length in order; bins is their concatenation,
    each group of unit mass when made by build_histogram.
    """

    scheme: SchemeExpr
    P: int
    R: float
    bins: np.ndarray
    dims: tuple

    def __post_init__(self):
        if self.bins.shape != (sum(self.dims),):
            raise ValueError("histogram length does not match group dims")

    def sparse(self) -> "SparseHistogram":
        """The nonzero bins of this histogram."""
        indices = np.flatnonzero(self.bins).astype(np.min_scalar_type(self.bins.size))
        return SparseHistogram(scheme=self.scheme, P=self.P, R=self.R, size=self.bins.size,
                               indices=indices, values=self.bins[indices])


@dataclass(frozen=True, slots=True)
class SparseHistogram:
    """A FeatureHistogram of length size kept as its nonzero bins: bin
    indices[j] is values[j], in increasing index order, and every other bin
    is 0."""

    scheme: SchemeExpr
    P: int
    R: float
    size: int
    indices: np.ndarray
    values: np.ndarray


def build_histogram(maps: PatternMaps, scheme: SchemeExpr,
                    counted: dict | None = None) -> FeatureHistogram:
    """Accumulate the scheme's histogram from pattern maps.

    Every valid pixel contributes exactly one count to each group, and each
    group is divided by its total, the valid-pixel count; requesting D from
    maps extracted without the derivative is an error. counted, when given,
    holds the unit-mass bins of each group already counted on these maps,
    and gains the groups counted here: schemes that share a group count it
    once, with the same bits, as its bins are the same integer counts over
    the same total.
    """
    P = maps.P
    counted = {} if counted is None else counted
    for group in scheme.groups:
        if group not in counted:
            first, *rest = group
            idx = maps.component(first)
            if rest:
                idx = idx.astype(np.intp)
                for comp in rest:
                    idx *= component_bins(comp, P)
                    idx += maps.component(comp)
            counts = np.bincount(idx.ravel(), minlength=group_dimension(group, P))
            counted[group] = counts / counts.sum()
    bins = np.concatenate([counted[group] for group in scheme.groups])
    bins.flags.writeable = False
    dims = tuple(group_dimension(g, P) for g in scheme.groups)
    return FeatureHistogram(scheme=scheme, P=P, R=maps.R, bins=bins, dims=dims)


def csv_field(text: str) -> str:
    """text as one CSV field: unchanged, or in double quotes with each quote
    doubled (RFC 4180) when it holds a comma, a quote or a line break."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def format_histogram_csv_row(path: str, label: int, hist: FeatureHistogram) -> str:
    """One CSV line: path,label,scheme,P,R,b_0,...,b_{N-1} at 17 significant
    digits, path quoted by csv_field.

    Most bins of a sparse histogram are +0.0, which formats as "0"; only the
    others (including -0.0 and nan) go through the formatter, once per
    distinct value: pixel counts over one total repeat few values.
    """
    head = f"{csv_field(path)},{label},{hist.scheme},{hist.P},{hist.R:.17g}"
    bins = hist.bins
    cells = ["0"] * bins.size
    nonzero = np.flatnonzero((bins != 0.0) | np.signbit(bins))
    # +0.0 never enters, so the -0.0 key cannot stand for it; nan never
    # equals a key, so each nan is formatted on its own.
    texts = {}
    for i, v in zip(nonzero.tolist(), bins[nonzero].tolist()):
        text = texts.get(v)
        if text is None:
            text = texts[v] = f"{v:.17g}"
        cells[i] = text
    return f"{head},{','.join(cells)}"


def binary_radius(R) -> int:
    """R as the binary header stores it, a u32: a ValueError unless R is
    integral. cldp extract checks this before it reads a sample."""
    if not float(R).is_integer():
        raise ValueError(f"binary histogram header stores R as u32; R={R} is not integral")
    return int(R)


def histogram_to_bytes(hist: FeatureHistogram) -> bytes:
    """Serialize to the compact binary form.

    Layout: magic 'CLDPH1', then little-endian u32 fields P, R, group count
    and the per-group dims, then the bins as little-endian float64. R must be
    integral to fit the fixed-width header.
    """
    header = struct.pack(
        f"<III{len(hist.dims)}I",
        hist.P, binary_radius(hist.R), len(hist.dims), *hist.dims,
    )
    return _MAGIC + header + hist.bins.astype("<f8").tobytes()


def histogram_from_bytes(data: bytes, scheme: SchemeExpr) -> FeatureHistogram:
    """Parse the binary form back into a FeatureHistogram.

    Component identity is not stored in the file (only group widths), so the
    caller supplies the scheme and the stored dims are validated against it.
    """
    if data[: len(_MAGIC)] != _MAGIC:
        raise ValueError(f"bad histogram magic {data[:len(_MAGIC)]!r}")
    off = len(_MAGIC)
    if len(data) < off + 12:
        raise ValueError("truncated histogram header")
    P, R, ngroups = struct.unpack_from("<III", data, off)
    off += 12
    if len(data) < off + 4 * ngroups:
        raise ValueError("truncated histogram group dims")
    dims = struct.unpack_from(f"<{ngroups}I", data, off)
    off += 4 * ngroups
    total = sum(dims)
    if len(data) != off + 8 * total:
        raise ValueError(
            f"histogram payload length {len(data) - off} does not match dims {dims}"
        )
    expect = tuple(group_dimension(g, P) for g in scheme.groups)
    if expect != tuple(dims):
        raise ValueError(f"dims {tuple(dims)} do not match scheme {scheme} at P={P}")
    bins = np.frombuffer(data, dtype="<f8", count=total, offset=off).copy()
    bins.flags.writeable = False
    return FeatureHistogram(scheme=scheme, P=int(P), R=float(R), bins=bins, dims=tuple(dims))

