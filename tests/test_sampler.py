import dataclasses
import math

import numpy as np
import pytest

from cldp import make_geometry, valid_region
from cldp.sampler import plane_diffs
from conftest import gray, random_8bit
from naive import naive_diffs_at, naive_offsets, naive_plane_diffs


def test_make_geometry_p4_r1_snaps_to_axes():
    geom = make_geometry(4, 1.0)
    taps = [(o.dx, o.dy) for o in geom.offsets]
    assert taps == [(0.0, 1.0), (-1.0, 0.0), (0.0, -1.0), (1.0, 0.0)]
    for o in geom.offsets:
        # a snapped offset collapses to one tap; the rotated copies carry
        # the unit weight in a different slot of the same tap
        assert (o.x0, o.y0) == (o.x1, o.y1) == (int(o.dx), int(o.dy))
        assert sorted((o.w00, o.w01, o.w10, o.w11)) == [0.0, 0.0, 0.0, 1.0]


def test_make_geometry_p8_r1_diagonal_weights():
    geom = make_geometry(8, 1.0)
    diag = geom.offsets[1]  # (-1/sqrt2, 1/sqrt2)
    assert diag.dx == pytest.approx(-1.0 / math.sqrt(2.0))
    weights = (diag.w00, diag.w01, diag.w10, diag.w11)
    assert sum(weights) == pytest.approx(1.0, abs=1e-12)
    assert min(weights) == pytest.approx((1.0 - 1.0 / math.sqrt(2.0)) ** 2, abs=1e-12)


def test_make_geometry_p8_r2_first_offset_is_integer():
    geom = make_geometry(8, 2.0)
    first = geom.offsets[0]
    assert (first.dx, first.dy) == (0.0, 2.0)
    assert first.w00 == 1.0


@pytest.mark.parametrize("P,R", [(8, 1.0), (8, 2.0), (12, 2.5), (16, 3.0), (10, 2.0), (24, 3.0)])
def test_weights_sum_to_one(P, R):
    geom = make_geometry(P, R)
    assert len(geom.offsets) == P
    for o in geom.offsets:
        for w in (o.w00, o.w01, o.w10, o.w11):
            assert w >= 0.0
        assert o.w00 + o.w01 + o.w10 + o.w11 == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("P,R", [(8, 2.0), (16, 3.0), (24, 2.0)])
def test_quarter_turn_offsets_are_exact_rotations(P, R):
    """When 4 | P, offset p+P/4 is offset p turned by 90 degrees, including
    bitwise-equal interpolation weights."""
    geom = make_geometry(P, R)
    q = P // 4
    for p in range(P):
        a = geom.offsets[p]
        b = geom.offsets[(p + q) % P]
        assert (b.dx, b.dy) == (-a.dy, a.dx)
        assert (b.w00, b.w01, b.w10, b.w11) == (a.w10, a.w00, a.w11, a.w01)


def test_make_geometry_rejects_bad_parameters():
    # twice each: make_geometry is memoized, and a bad call must not be
    for P, R in [(3, 2.0), (25, 2.0), (math.inf, 2.0), (math.nan, 2.0), (8, 0.5), (4.5, 2.0),
                 (8, math.nan), (8, math.inf)] * 2:
        with pytest.raises(ValueError):
            make_geometry(P, R)


def test_make_geometry_is_memoized_and_frozen():
    geom = make_geometry(8, 3.0)
    assert make_geometry(8, 3.0) is geom
    assert make_geometry(8, 3) is geom and geom.R == 3.0
    assert make_geometry(8, 2.0) is not geom
    assert isinstance(geom.offsets, tuple)
    with pytest.raises(dataclasses.FrozenInstanceError):
        geom.R = 2.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        geom.offsets[0].w00 = 0.5


def test_valid_region_arithmetic():
    img = gray(np.zeros((128, 128)))
    x0, y0, x1, y1 = valid_region(img, 3.0)
    assert (x0, y0, x1, y1) == (3, 3, 124, 124)
    assert (x1 - x0 + 1) * (y1 - y0 + 1) == 14884


def test_valid_region_single_center_and_empty():
    assert valid_region(gray(np.zeros((7, 7))), 3.0) == (3, 3, 3, 3)
    with pytest.raises(ValueError):
        valid_region(gray(np.zeros((6, 6))), 3.0)


def test_sample_at_constant_image():
    geom = make_geometry(8, 2.0)
    diffs, centers = plane_diffs(np.full((9, 9), 41.0), geom, geom.margin)
    assert np.array_equal(centers, np.full((5, 5), 41.0))
    assert np.array_equal(diffs, np.zeros((8, 5, 5)))


def test_sample_at_horizontal_ramp():
    arr = np.tile(np.arange(7.0), (7, 1))  # img(x, y) = x
    diffs, _ = plane_diffs(arr, make_geometry(4, 1.0), 1)
    for p, want in enumerate([0.0, -1.0, 0.0, 1.0]):
        assert np.array_equal(diffs[p], np.full((5, 5), want))


def test_sample_at_reproduces_bilinear_functions():
    yy, xx = np.mgrid[0:11, 0:11].astype(np.float64)
    arr = 2.0 * xx + 3.0 * yy + xx * yy
    geom = make_geometry(8, 1.5)
    m = geom.margin
    diffs, centers = plane_diffs(arr, geom, m)
    for y in range(m, 11 - m):
        for x in range(m, 11 - m):
            for p, o in enumerate(geom.offsets):
                sx, sy = x + o.dx, y + o.dy
                got = centers[y - m, x - m] + diffs[p, y - m, x - m]
                assert got == pytest.approx(2.0 * sx + 3.0 * sy + sx * sy, abs=1e-9)


def test_sample_at_rejects_border_centers():
    # A margin that leaves no center inside the image is an error, not an
    # empty or out-of-bounds read.
    geom = make_geometry(8, 2.0)
    with pytest.raises(ValueError, match="no valid centers"):
        plane_diffs(np.zeros((9, 9)), geom, 5)
    with pytest.raises(ValueError, match="no valid centers"):
        plane_diffs(np.zeros((4, 9)), geom, geom.margin)


def test_diffs_are_translation_invariant():
    rng = np.random.default_rng(5)
    arr = random_8bit(rng, 12, 12)
    geom = make_geometry(8, 2.5)
    a_diffs, a_centers = plane_diffs(arr, geom, geom.margin)
    b_diffs, b_centers = plane_diffs(arr + 17.0, geom, geom.margin)
    assert np.array_equal(a_diffs, b_diffs)
    assert np.array_equal(b_centers, a_centers + 17.0)


@pytest.mark.parametrize("P,R", [(8, 2.0), (16, 3.0), (12, 2.0)])
def test_plane_diffs_matches_sample_at(P, R):
    """plane_diffs agrees bitwise with the scalar per-center oracle."""
    rng = np.random.default_rng(17)
    arr = random_8bit(rng, 14, 11)
    geom = make_geometry(P, R)
    m = geom.margin
    diffs, centers = plane_diffs(arr, geom, m)
    assert diffs.shape == (P, 14 - 2 * m, 11 - 2 * m)
    offsets = naive_offsets(P, R)
    for y in range(m, 14 - m):
        for x in range(m, 11 - m):
            assert diffs[:, y - m, x - m].tolist() == naive_diffs_at(arr, offsets, x, y)
            assert centers[y - m, x - m] == arr[y, x]


def _tap_kinds(geom):
    kinds = set()
    for o in geom.offsets:
        snapped = (o.x0 == o.x1) + (o.y0 == o.y1)
        kinds.add(("bilinear", "one axis snapped", "single tap")[snapped])
    return kinds


def _signed_zero_plane(rng, h, w):
    # Small integers with +0.0 and -0.0 mixed in: many differences are
    # zeros, and some of them are -0.0 - +0.0 = -0.0.
    arr = np.floor(rng.uniform(0.0, 3.0, size=(h, w)))
    arr[arr == 0.0] = np.where(rng.random(int((arr == 0.0).sum())) < 0.5, -0.0, 0.0)
    return arr


@pytest.mark.parametrize("P,R,kinds", [
    (8, 3.0, {"single tap", "bilinear"}),
    (12, 2.0, {"single tap", "one axis snapped"}),
    (8, 1.5, {"one axis snapped", "bilinear"}),
    (24, 3.0, {"single tap", "bilinear"}),
])
def test_plane_diffs_bitwise_equals_four_term_oracle(P, R, kinds):
    """Every entry, signed zeros included, equals the four-term formula:
    single taps, taps snapped on one axis and bilinear taps, on plain,
    rot90 and signed-zero inputs, at the geometry's margin and at a wider
    one (the inner circle of D is sampled that way)."""
    geom = make_geometry(P, R)
    assert _tap_kinds(geom) == kinds
    rng = np.random.default_rng(29)
    inputs = [random_8bit(rng, 13, 12), np.floor(rng.uniform(0.0, 3.0, size=(13, 12))),
              _signed_zero_plane(rng, 13, 12)]
    inputs += [np.rot90(a) for a in inputs]
    for arr in inputs:
        for m in (geom.margin, geom.margin + 1):
            diffs, centers = plane_diffs(arr, geom, m)
            assert diffs.tobytes() == naive_plane_diffs(arr, P, R, m).tobytes()
            assert centers.tobytes() == arr[m:arr.shape[0] - m, m:arr.shape[1] - m].tobytes()


@pytest.mark.parametrize("P", [8, 16])
def test_rot90_shifts_neighbors_by_quarter(P):
    """Exact keystone property: rotating the image 90 degrees circularly
    shifts the sampled neighbor list by P/4."""
    rng = np.random.default_rng(23)
    n = 15
    arr = random_8bit(rng, n, n)
    rot = np.rot90(arr).copy()  # rot[y, x] = arr[x, n-1-y]
    geom = make_geometry(P, 2.5)
    m = geom.margin
    q = P // 4
    a_diffs, a_centers = plane_diffs(arr, geom, m)
    b_diffs, b_centers = plane_diffs(rot, geom, m)
    for x, y in [(7, 7), (5, 8), (9, 4)]:
        ax, ay = n - 1 - y, x
        assert b_centers[y - m, x - m] == a_centers[ay - m, ax - m]
        assert np.array_equal(b_diffs[:, y - m, x - m],
                              np.roll(a_diffs[:, ay - m, ax - m], -q))
