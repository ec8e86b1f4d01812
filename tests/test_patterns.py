import numpy as np
import pytest

from cldp import (
    Riu2Mapper,
    canonical_intensity,
    code_space_stats,
    extract_maps,
    extract_radii,
)
from conftest import gray, random_8bit, traced_peak
from naive import naive_riu2, naive_rotation_classes


def test_transitions_examples():
    """A code with at most two circular transitions maps to its popcount,
    any other code to the catch-all bin P+1."""
    codes = np.array([0b00000000, 0b11111111, 0b00000001, 0b01010101, 0b00011100],
                     dtype=np.uint32)  # transitions 0, 0, 2, 8, 2
    assert Riu2Mapper(8).map_array(codes).tolist() == [0, 8, 1, 9, 3]


def test_riu2_bin_examples():
    # 0x8001 is a run of two ones that wraps from bit 15 to bit 0; P=16 maps
    # by its table, P=24 by arithmetic
    got = Riu2Mapper(16).map_array(np.array([0x8001, 0x0101, 0xFFFF, 0x00F0]))
    assert got.tolist() == [2, 17, 16, 4]
    got = Riu2Mapper(24).map_array(np.array([0b111, 0xAAAAAA, 0x800001]))
    assert got.tolist() == [3, 25, 2]


def test_riu2_is_rotation_invariant_p8():
    codes = np.arange(256, dtype=np.uint32)
    mapper = Riu2Mapper(8)
    want = mapper.map_array(codes)
    for k in range(1, 8):
        rolled = ((codes << k) | (codes >> (8 - k))) & 0xFF
        assert np.array_equal(mapper.map_array(rolled), want)


def test_mapper_matches_naive_riu2_p8():
    codes = np.arange(256, dtype=np.uint32)
    assert Riu2Mapper(8).map_array(codes).tolist() == [naive_riu2(c, 8) for c in range(256)]


def test_mapper_uses_a_table_up_to_p16():
    assert Riu2Mapper(16).table.shape == (1 << 16,)
    assert Riu2Mapper(17).table is None


@pytest.mark.parametrize("P", [3, 25, 8.5])
def test_mapper_rejects_p_outside_4_to_24(P):
    with pytest.raises(ValueError, match=r"P must be an integer in \[4, 24\]"):
        Riu2Mapper(P)


def test_mapper_validates_codes():
    for P, codes in ((8, [256]), (8, [0, 300]), (8, [3, -1]), (24, [1 << 24]), (24, [5, -1])):
        with pytest.raises(ValueError, match=f"code out of range for P={P}"):
            Riu2Mapper(P).map_array(np.array(codes))


def test_code_space_stats_p8():
    stats = code_space_stats(8)
    assert stats["total_codes"] == 256
    assert stats["rotation_classes"] == 36
    assert stats["riu2_bins"] == 10
    assert stats["uniform_codes"] == 58
    assert stats["bin_populations"] == [1, 8, 8, 8, 8, 8, 8, 8, 1, 198]
    assert sum(stats["bin_populations"]) == 256


def test_code_space_stats_p4():
    assert code_space_stats(4)["rotation_classes"] == 6


def test_code_space_stats_closed_forms_every_p():
    """The uniform codes are all-zeros, all-ones and the P rotations of each
    run of 1..P-1 ones, so bin k in 1..P-1 holds P codes."""
    for P in range(4, 25):
        stats = code_space_stats(P)
        assert stats["P"] == P
        assert stats["total_codes"] == 1 << P
        assert stats["riu2_bins"] == P + 2
        assert stats["uniform_codes"] == P * (P - 1) + 2
        assert stats["bin_populations"] == [1] + [P] * (P - 1) + [1, (1 << P) - P * (P - 1) - 2]
        if P <= 12:
            assert stats["rotation_classes"] == naive_rotation_classes(P)


def ramp(n=9):
    return gray(np.tile(np.arange(float(n)), (n, 1)))  # img(x, y) = x


def checkerboard(n=9):
    yy, xx = np.mgrid[0:n, 0:n]
    return gray(255.0 * ((xx + yy) % 2))


def test_encode_sign_examples():
    # P=4 on a ramp: diffs (0, -d, 0, +d) in directions down, left, up,
    # right. Zero diffs code as 1, so the code is 0b1101 (riu2 bin 3);
    # coding them as 0 would give 0b1000 (bin 1).
    maps = extract_maps(ramp(), 4, 1.0)
    assert np.all(maps.sign == 3)


def test_encode_sign_all_ones_on_constant():
    for P in (4, 8, 16, 24):
        maps = extract_maps(gray(np.full((9, 9), 3.0)), P, 2.0)
        assert np.all(maps.sign == P)


def test_encode_magnitude_examples():
    # Every |d| on a checkerboard at R=1 is 1, which is also the mean c_m:
    # the threshold is inclusive, so every bit is set (bin P, not bin 0).
    maps = extract_maps(checkerboard(), 4, 1.0)
    assert maps.c_m == 1.0
    assert np.all(maps.magnitude == 4)
    # On a ramp only the left/right diffs reach c_m: code 0b1010 is not
    # uniform and lands in the catch-all bin P+1.
    maps = extract_maps(ramp(), 4, 1.0)
    assert maps.c_m == 1.0 / 16.0
    assert np.all(maps.magnitude == 5)


def test_encode_derivative_is_symmetric_xor():
    # The ramp rises the same way at radii 1 and 2: no sign flips.
    assert np.all(extract_maps(ramp(), 4, 2.0).derivative == 0)
    # On a checkerboard the axis taps at R=2 match the center (sign 1) and
    # those at R=1 do not: a white center flips every sign (0b1111, bin 4),
    # a black center flips none.
    maps = extract_maps(checkerboard(), 4, 2.0)
    x0, y0, x1, y1 = maps.region
    yy, xx = np.mgrid[y0 : y1 + 1, x0 : x1 + 1]
    white = (xx + yy) % 2 == 1
    assert np.array_equal(maps.derivative, np.where(white, 4, 0))


def test_encode_center_inclusive_boundary():
    # The canonical ramp x/8 has mean exactly 0.5, the value at x = 4.
    maps = extract_maps(ramp(), 4, 1.0)
    assert maps.c_I == 0.5
    assert maps.center.tolist() == [[0, 0, 0, 1, 1, 1, 1]] * 7


def test_canonical_intensity_affine_collapse():
    rng = np.random.default_rng(9)
    arr = random_8bit(rng, 10, 10)
    base, lo, hi = canonical_intensity(arr)
    assert (lo, hi) == (arr.min(), arr.max())
    for a, b in [(3.0, 40.0), (0.5, -10.0), (2.0, 5.0)]:
        other, _, _ = canonical_intensity(a * arr + b)
        assert np.array_equal(base, other)


def test_canonical_intensity_constant_is_zero():
    canon, lo, hi = canonical_intensity(np.full((4, 4), 9.0))
    assert lo == hi == 9.0
    assert np.array_equal(canon, np.zeros((4, 4)))


def test_extract_maps_constant_image():
    maps = extract_maps(gray(np.full((12, 12), 55.0)), 8, 2.0)
    assert maps.c_m == 0.0 and maps.c_I == 0.0
    assert np.all(maps.sign == 8)
    assert np.all(maps.magnitude == 8)
    assert np.all(maps.derivative == 0)
    assert np.all(maps.center == 1)
    assert maps.region == (2, 2, 9, 9)
    assert maps.sign.shape == (8, 8)


def test_extract_maps_affine_invariance():
    rng = np.random.default_rng(31)
    arr = random_8bit(rng, 20, 20)
    base = extract_maps(gray(arr), 8, 2.0)
    for a, b in [(0.5, 40.0), (3.0, -10.0)]:
        other = extract_maps(gray(a * arr + b), 8, 2.0)
        for comp in "SMDC":
            assert np.array_equal(base.component(comp), other.component(comp))
        assert other.c_m == base.c_m and other.c_I == base.c_I


def test_extract_maps_translation_invariance():
    rng = np.random.default_rng(32)
    arr = random_8bit(rng, 16, 16)
    base = extract_maps(gray(arr), 8, 2.0)
    shifted = extract_maps(gray(arr + 17.0), 8, 2.0)
    for comp in "SMDC":
        assert np.array_equal(base.component(comp), shifted.component(comp))


def test_extract_maps_holds_one_difference_stack():
    """Per image, float64 memory is one P x Hv x Wv stack plus O(Hv x Wv):
    the inner circle of D never gets a stack of its own."""
    rng = np.random.default_rng(256)
    img = gray(random_8bit(rng, 256, 256))
    extract_maps(img, 24, 3.0)  # warm-up: the geometries and the mapper are memoized
    peak = traced_peak(lambda: extract_maps(img, 24, 3.0))
    stack = 24 * 250 * 250 * 8
    assert peak <= 1.5 * stack, peak / stack


def test_extract_maps_derivative_gating():
    img = gray(np.zeros((10, 10)))
    maps = extract_maps(img, 8, 1.0)
    assert maps.derivative is None
    with pytest.raises(ValueError, match="R >= 2"):
        maps.component("D")
    assert np.all(extract_maps(img, 8, 2.0).component("D") == 0)
    with pytest.raises(ValueError):
        maps.component("Q")


def _assert_maps_equal(got, want):
    for name in ("sign", "magnitude", "derivative", "center"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a is None) == (b is None), name
        if a is not None:
            assert a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    for name in ("P", "R", "region", "c_m", "c_I", "intensity_lo", "intensity_hi"):
        assert getattr(got, name) == getattr(want, name), name


@pytest.mark.parametrize("P", [8, 16, 24])
@pytest.mark.parametrize("radii", [(1.0, 2.0, 3.0), (3.0, 2.0), (1.5, 2.5)])
@pytest.mark.parametrize("shape", [(29, 29), (23, 34)])
def test_extract_radii_equals_extract_maps_per_radius(P, radii, shape):
    """Where R-1 is one of the radii, R's derivative reuses R-1's outer sign
    codes cropped by one pixel; extract_maps samples the inner circle
    itself. Every map and threshold agrees bitwise, in the order asked."""
    rng = np.random.default_rng(P + 7 * shape[1])
    img = gray(random_8bit(rng, *shape))
    got = extract_radii(img, P, radii)
    assert [m.R for m in got] == list(radii)
    for R, maps in zip(radii, got):
        _assert_maps_equal(maps, extract_maps(img, P, R))


def test_extract_radii_names_the_first_radius_without_centers():
    img = gray(np.zeros((6, 6)))
    assert extract_radii(img, 8, (2.0,))[0].sign.shape == (2, 2)
    with pytest.raises(ValueError, match=r"no valid centers at R=3.0"):
        extract_radii(img, 8, (2.0, 3.0))
