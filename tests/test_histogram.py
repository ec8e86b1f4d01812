import csv
import math

import numpy as np
import pytest

from cldp import (
    FeatureHistogram,
    PatternMaps,
    SchemeError,
    build_histogram,
    component_bins,
    extract_maps,
    format_histogram_csv_row,
    histogram_from_bytes,
    histogram_to_bytes,
    parse_scheme,
    scheme_dimension,
)
from conftest import gray, random_8bit


def test_parse_single_joint_group():
    scheme = parse_scheme("S/M/D/C")
    assert scheme.groups == (("S", "M", "D", "C"),)
    assert str(scheme) == "S/M/D/C"


def test_parse_mixed_groups():
    scheme = parse_scheme("S_D_M/C")
    assert scheme.groups == (("S",), ("D",), ("M", "C"))
    assert str(scheme) == "S_D_M/C"


def test_parse_strips_prefix():
    assert str(parse_scheme("CLDP_S/M/D/C")) == "S/M/D/C"
    assert parse_scheme("CLBP_S_M/C").groups == (("S",), ("M", "C"))


@pytest.mark.parametrize(
    "text",
    ["", "S/S", "S/X", "S_", "_S", "C", "S_C", "CLBP_S/D", "CLDP_", "S//M", "s"],
)
def test_parse_rejects_malformed(text):
    with pytest.raises(SchemeError):
        parse_scheme(text)


# One string per kind of error: its message and 0-based position. In C_S/x
# the syntax error at 4 comes before the lone-C check of group 0.
_PARSE_ERRORS = [
    ("CLDP_", "scheme has a prefix but no components", 5),
    ("S//M", "expected a component letter, got '/'", 2),
    ("S/", "scheme ends with a dangling separator", 1),
    ("SM", "expected '/', '_' or end, got 'M'", 1),
    ("S/S", "component 'S' used twice", 2),
    ("S/M/M", "component 'M' used twice", 4),
    ("CLBP_S/D", "CLBP_ schemes cannot use the D component", 7),
    ("x", "expected a component letter, got 'x'", 0),
    ("C_S/x", "expected a component letter, got 'x'", 4),
    ("C_S", "C cannot stand alone as a group", 0),
]


def test_parse_error_positions():
    for text, message, position in _PARSE_ERRORS:
        with pytest.raises(SchemeError) as err:
            parse_scheme(text)
        assert str(err.value) == f"{message} (at position {position})", text
        assert err.value.position == position, text


def test_component_bins():
    assert component_bins("S", 8) == 10
    assert component_bins("M", 24) == 26
    assert component_bins("D", 16) == 18
    assert component_bins("C", 8) == 2
    with pytest.raises(ValueError):
        component_bins("Q", 8)


@pytest.mark.parametrize(
    "text,P,dim",
    [
        ("S/M/D/C", 8, 2000),
        ("S", 8, 10),
        ("S/M/C", 24, 1352),
        ("S_D_M/C", 8, 40),
        ("S_M_C", 8, 10 + 10 + 2),
        ("S/M", 16, 18 * 18),
    ],
)
def test_scheme_dimension(text, P, dim):
    if text == "S_M_C":
        # C alone is invalid; build the expectation from pieces instead
        with pytest.raises(SchemeError):
            parse_scheme(text)
        return
    assert scheme_dimension(parse_scheme(text), P) == dim


def _one_pixel_maps(S, M, D, C, P=8):
    def plane(v):
        return np.full((1, 1), v, dtype=np.uint8)

    return PatternMaps(P=P, R=2.0, region=(2, 2, 2, 2), sign=plane(S), magnitude=plane(M),
                       derivative=plane(D), center=plane(C), c_m=0.0, c_I=0.0,
                       intensity_lo=0.0, intensity_hi=0.0)


def test_bin_index_examples():
    """Joint bins flatten row-major in written order."""
    top = build_histogram(_one_pixel_maps(9, 9, 9, 1), parse_scheme("S/M/D/C"))
    assert np.flatnonzero(top.bins).tolist() == [1999]
    mc = build_histogram(_one_pixel_maps(0, 3, 0, 1), parse_scheme("M/C"))
    assert np.flatnonzero(mc.bins).tolist() == [7]
    s = build_histogram(_one_pixel_maps(0, 3, 0, 1), parse_scheme("S"))
    assert np.flatnonzero(s.bins).tolist() == [0]


def test_constant_image_joint_histogram():
    maps = extract_maps(gray(np.full((16, 16), 200.0)), 8, 2.0)
    hist = build_histogram(maps, parse_scheme("S/M/D/C"))
    assert hist.bins.shape == (2000,)
    assert hist.bins[1761] == 1.0
    assert hist.bins.sum() == 1.0


def test_constant_image_concatenated_histogram():
    maps = extract_maps(gray(np.full((16, 16), 200.0)), 8, 2.0)
    hist = build_histogram(maps, parse_scheme("S_D"))
    assert hist.bins.shape == (20,)
    assert hist.dims == (10, 10)
    assert hist.bins[8] == 1.0
    assert hist.bins[10 + 0] == 1.0


def test_joint_marginalizes_to_single_component():
    rng = np.random.default_rng(40)
    maps = extract_maps(gray(random_8bit(rng, 24, 24)), 8, 2.0)
    joint = build_histogram(maps, parse_scheme("S/M")).bins.reshape(10, 10)
    s_alone = build_histogram(maps, parse_scheme("S")).bins
    assert np.allclose(joint.sum(axis=1), s_alone, atol=1e-15)


def test_group_histograms_are_independent():
    rng = np.random.default_rng(41)
    maps = extract_maps(gray(random_8bit(rng, 24, 24)), 8, 2.0)
    combo = build_histogram(maps, parse_scheme("S_M"))
    s_alone = build_histogram(maps, parse_scheme("S"))
    assert np.array_equal(combo.bins[:combo.dims[0]], s_alone.bins)


def test_component_order_within_group_permutes_bins():
    rng = np.random.default_rng(42)
    maps = extract_maps(gray(random_8bit(rng, 24, 24)), 8, 2.0)
    mc = build_histogram(maps, parse_scheme("M/C")).bins
    cm = build_histogram(maps, parse_scheme("C/M")).bins
    assert not np.array_equal(mc, cm)
    assert np.array_equal(np.sort(mc), np.sort(cm))


def test_raw_histogram_counts_valid_pixels():
    rng = np.random.default_rng(43)
    maps = extract_maps(gray(random_8bit(rng, 20, 20)), 8, 3.0)
    hist = build_histogram(maps, parse_scheme("S_M/C"))
    n = maps.sign.size
    for group in np.split(hist.bins, np.cumsum(hist.dims)[:-1]):
        counts = np.rint(group * n)
        assert np.allclose(group * n, counts, rtol=0, atol=1e-9)
        assert counts.sum() == n


def test_normalized_histogram_has_unit_groups():
    rng = np.random.default_rng(44)
    maps = extract_maps(gray(random_8bit(rng, 20, 20)), 16, 2.0)
    hist = build_histogram(maps, parse_scheme("S_D_M/C"))
    for group in np.split(hist.bins, np.cumsum(hist.dims)[:-1]):
        assert abs(group.sum() - 1.0) < 1e-12


def test_csv_row_format():
    maps = extract_maps(gray(np.full((12, 12), 7.0)), 8, 2.0)
    hist = build_histogram(maps, parse_scheme("S"))
    assert format_histogram_csv_row("img/a.pgm", 3, hist).startswith("img/a.pgm,3,S,8,2,")
    # A path with a comma, a quote or a line break is quoted, RFC 4180.
    for path in ("img/a.pgm", "a,b.pgm", 'say "x".pgm', "line\nbreak.pgm"):
        fields, = csv.reader([format_histogram_csv_row(path, 3, hist)])
        assert fields[:5] == [path, "3", "S", "8", "2"]
        assert len(fields) == 5 + 10
        assert [float(v) for v in fields[5:]] == hist.bins.tolist()


def test_csv_row_matches_formatting_every_bin():
    """Skipping the formatter for +0.0 bins and formatting each distinct
    value once change no byte: -0.0, the smallest subnormal, inf and nan are
    still formatted, repeated or not."""
    values = [0.0, -0.0, 5e-324, 1.0 / 3.0, 1.0, 1e300, math.inf, math.nan,
              -1.0 / 3.0, -math.inf, 0.0, 1.0 / 3.0, -0.0, math.nan, 0.0, 1.0,
              -math.nan, -0.0, 1.0 / 3.0]
    hist = FeatureHistogram(scheme=parse_scheme("S"), P=8, R=2.0,
                            bins=np.array(values), dims=(len(values),))
    want = "img/a.pgm,3,S,8,2," + ",".join(f"{v:.17g}" for v in values)
    assert format_histogram_csv_row("img/a.pgm", 3, hist) == want


def test_binary_round_trip_bitwise():
    rng = np.random.default_rng(45)
    maps = extract_maps(gray(random_8bit(rng, 20, 20)), 8, 2.0)
    scheme = parse_scheme("S_D_M/C")
    hist = build_histogram(maps, scheme)
    back = histogram_from_bytes(histogram_to_bytes(hist), scheme)
    assert back.bins.tobytes() == hist.bins.tobytes()
    assert (back.P, back.R, back.dims) == (hist.P, hist.R, hist.dims)


def test_binary_rejects_non_integral_radius():
    maps = extract_maps(gray(np.zeros((14, 14))), 8, 2.5)
    hist = build_histogram(maps, parse_scheme("S"))
    with pytest.raises(ValueError, match="integral"):
        histogram_to_bytes(hist)


def test_binary_rejects_corruption():
    maps = extract_maps(gray(np.zeros((14, 14))), 8, 2.0)
    scheme = parse_scheme("S_M")
    blob = histogram_to_bytes(build_histogram(maps, scheme))
    with pytest.raises(ValueError, match="magic"):
        histogram_from_bytes(b"XXXX" + blob[4:], scheme)
    with pytest.raises(ValueError):
        histogram_from_bytes(blob[:-8], scheme)
    # After the 6-byte magic: P, R and the group count, then one dim per group.
    with pytest.raises(ValueError, match="^truncated histogram header$"):
        histogram_from_bytes(blob[:6 + 11], scheme)
    with pytest.raises(ValueError, match="^truncated histogram group dims$"):
        histogram_from_bytes(blob[:6 + 12 + 3], scheme)
    with pytest.raises(ValueError, match="match scheme"):
        histogram_from_bytes(blob, parse_scheme("S/M"))


def test_feature_histogram_validates_length():
    with pytest.raises(ValueError):
        FeatureHistogram(
            scheme=parse_scheme("S"),
            P=8,
            R=2.0,
            bins=np.zeros(9),
            dims=(10,),
        )


def test_shared_group_counts_equal_fresh_ones_bitwise():
    """Schemes that share a group (S, M/C) through one counted dict count it
    once; each histogram is bitwise the one a fresh count gives, and
    sparse() keeps exactly its nonzero bins."""
    maps = extract_maps(gray(random_8bit(np.random.default_rng(11), 30, 26)), 8, 3.0)
    texts = ("S/M/C", "S/M/D/C", "S_M/C", "S_D_M/C", "S_M/C")
    schemes = [parse_scheme(t) for t in texts]
    counted = {}
    got = [build_histogram(maps, scheme, counted) for scheme in schemes]
    assert set(counted) == {("S", "M", "C"), ("S", "M", "D", "C"), ("S",), ("M", "C"), ("D",)}
    for hist, scheme in zip(got, schemes):
        want = build_histogram(maps, scheme)
        assert hist.scheme == scheme and hist.dims == want.dims
        assert hist.bins.tobytes() == want.bins.tobytes()
        sparse = hist.sparse()
        assert (sparse.scheme, sparse.P, sparse.R, sparse.size) == (scheme, 8, 3.0, hist.bins.size)
        dense = np.zeros(sparse.size)
        dense[sparse.indices] = sparse.values
        assert dense.tobytes() == hist.bins.tobytes()
        assert np.all(sparse.values != 0.0)
