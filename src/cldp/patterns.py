"""Binary pattern codes, the riu2 mapping, and whole-image pattern maps.

A pattern code packs P threshold bits with bit p worth 2**p. Four component
codes are extracted per pixel:

  sign        bit p = 1 iff neighbor difference d_p >= 0
  magnitude   bit p = 1 iff |d_p| >= c_m, the image-wide mean |d| at radius R
  derivative  bit p = sign bit at radius R XOR sign bit at radius R-1
  center      1 iff the center intensity >= the whole-image mean

Sign, magnitude and derivative codes are folded to rotation-invariant
uniform bins: a code with at most 2 circular transitions maps to its
popcount, everything else to the shared bin P+1, giving P+2 bins.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .image import GrayImage
from .sampler import OffsetSampler, SamplingGeometry, make_geometry, plane_diffs, valid_region

_M1 = np.uint32(0x55555555)
_M2 = np.uint32(0x33333333)
_M4 = np.uint32(0x0F0F0F0F)


def _popcount_u32(codes: np.ndarray) -> np.ndarray:
    x = codes.astype(np.uint32, copy=True)
    x = x - ((x >> np.uint32(1)) & _M1)
    x = (x & _M2) + ((x >> np.uint32(2)) & _M2)
    x = (x + (x >> np.uint32(4))) & _M4
    x = x + (x >> np.uint32(8))
    x = x + (x >> np.uint32(16))
    return (x & np.uint32(0x3F)).astype(np.uint8)


class Riu2Mapper:
    """Maps P-bit codes to riu2 bins, P an integer in [4, 24] as for
    make_geometry: up to P=16 by a 2**P-entry table, above it by arithmetic
    on every call, the choice following from P alone.
    """

    def __init__(self, P: int):
        if int(P) != P or not 4 <= P <= 24:
            raise ValueError(f"P must be an integer in [4, 24], got {P}")
        self.P = int(P)
        self.table = (self._direct(np.arange(1 << self.P, dtype=np.uint32))
                      if self.P <= 16 else None)

    def _direct(self, codes: np.ndarray) -> np.ndarray:
        P = np.uint32(self.P)
        mask = np.uint32((1 << self.P) - 1)
        c = codes.astype(np.uint32, copy=False)
        rot = ((c << np.uint32(1)) | (c >> (P - np.uint32(1)))) & mask
        trans = _popcount_u32(c ^ rot)
        ones = _popcount_u32(c)
        return np.where(trans <= 2, ones, np.uint8(self.P + 1)).astype(np.uint8)

    def map_array(self, codes: np.ndarray) -> np.ndarray:
        codes = np.asarray(codes)
        if codes.size and (int(codes.min()) < 0 or int(codes.max()) >= (1 << self.P)):
            raise ValueError(f"code out of range for P={self.P}")
        if self.table is not None:
            return self.table[codes]
        return self._direct(codes.astype(np.uint32))


@functools.lru_cache(maxsize=None)
def _default_mapper(P: int) -> Riu2Mapper:
    # Up to P=16 a mapper builds a 2**P-entry lookup table; build each once
    # per process rather than once per image.
    return Riu2Mapper(P)


def has_derivative(R: float) -> bool:
    """Whether maps at outer radius R have a D component.

    D compares the sign bits on the circles of radii R and R-1, so it
    exists exactly when R >= 2.
    """
    return float(R) >= 2.0


def derivative_error(what: str, R: float) -> ValueError:
    """The error for asking for D at a radius that has none."""
    return ValueError(f"{what}: the derivative component D needs R >= 2 (got R={float(R):g})")


def code_space_stats(P: int) -> dict:
    """Exhaustive statistics of the P-bit code space, P as Riu2Mapper takes it.

    Returns total code count, number of rotation equivalence classes
    (counted by Burnside over cyclic shifts), the riu2 bin count, how many
    codes are uniform, and the population of every riu2 bin.
    """
    mapper = _default_mapper(P)
    P = mapper.P
    total = 1 << P
    populations = np.zeros(P + 2, dtype=np.int64)
    chunk = 1 << 20
    for start in range(0, total, chunk):
        codes = np.arange(start, min(start + chunk, total), dtype=np.uint32)
        populations += np.bincount(mapper.map_array(codes), minlength=P + 2)
    # Burnside: a shift by k fixes the 2**g codes whose period divides g = gcd(k, P).
    classes = sum(1 << math.gcd(k, P) for k in range(P)) // P
    uniform = int(total - populations[P + 1])
    return {
        "P": P,
        "total_codes": total,
        "rotation_classes": classes,
        "riu2_bins": P + 2,
        "uniform_codes": uniform,
        "bin_populations": [int(v) for v in populations],
    }


def _push_bit(codes: np.ndarray, bits: np.ndarray) -> None:
    """Shift uint32 codes up one bit, in place, and set bit 0 from a boolean
    plane. Pushing the planes of bits P-1 down to 0 packs bit p = 2**p."""
    np.left_shift(codes, 1, out=codes)
    np.bitwise_or(codes, bits, out=codes)


def canonical_intensity(pixels: np.ndarray):
    """Map pixels affinely onto [0, 1] by their own min and max.

    img' = a*img + b with a > 0 canonicalizes to the same array, and so
    gives the same maps bitwise, when every pixel of a*img + b is exact in
    float64, as for a in {0.5, 3} and integer b on 8-bit images (the cases
    the tests check). Otherwise the rounding of a*img + b reaches the
    canonical pixels: with a = 1.1 and b = 0.3 they change in the last
    bits, and so can c_m, c_I and any threshold decision that sits on a
    tie. A constant image maps to zeros.
    """
    lo = float(pixels.min())
    hi = float(pixels.max())
    if hi == lo:
        return np.zeros_like(pixels), lo, hi
    return (pixels - lo) / (hi - lo), lo, hi


@dataclass(frozen=True)
class PatternMaps:
    """Per-pixel riu2 maps over the valid region plus the thresholds used.

    sign/magnitude/derivative hold riu2 bins in [0, P+1], center holds the
    0/1 center bits. derivative is None when R < 2 (see has_derivative).
    c_m and c_I are in canonical intensity units; intensity_lo/hi record the
    affine canonicalization applied before sampling.
    """

    P: int
    R: float
    region: tuple
    sign: np.ndarray
    magnitude: np.ndarray
    derivative: np.ndarray | None
    center: np.ndarray
    c_m: float
    c_I: float
    intensity_lo: float
    intensity_hi: float

    def component(self, name: str) -> np.ndarray:
        if name == "S":
            return self.sign
        if name == "M":
            return self.magnitude
        if name == "D":
            if self.derivative is None:
                raise derivative_error("pattern maps", self.R)
            return self.derivative
        if name == "C":
            return self.center
        raise ValueError(f"unknown component {name!r}")


def _outer_codes(canon: np.ndarray, geom: SamplingGeometry):
    """(sign codes, magnitude codes, c_m, centers) at the outer radius.

    The differences are one P x Hv x Wv stack, freed on return. c_m is
    reduced from the whole stack in one np.mean call, so its bits do not
    depend on how the rest of the work is split; the codes are packed one
    plane at a time. centers is a view of canon.
    """
    diffs, centers = plane_diffs(canon, geom, geom.margin)
    bits = np.empty(centers.shape, dtype=bool)
    sign_codes = np.zeros(centers.shape, dtype=np.uint32)
    for d in diffs[::-1]:
        _push_bit(sign_codes, np.greater_equal(d, 0.0, out=bits))
        np.abs(d, out=d)  # the signed difference is not read again
    c_m = float(np.mean(diffs))
    magnitude_codes = np.zeros(centers.shape, dtype=np.uint32)
    for d in diffs[::-1]:
        _push_bit(magnitude_codes, np.greater_equal(d, c_m, out=bits))
    return sign_codes, magnitude_codes, c_m, centers


def _inner_sign_codes(canon: np.ndarray, geom: SamplingGeometry, margin: int) -> np.ndarray:
    """Sign codes of the circle geom over the valid region of margin, each
    offset sampled into one reused plane and packed at once."""
    sampler = OffsetSampler(canon, margin)
    plane = np.empty(sampler.shape, dtype=np.float64)
    bits = np.empty(sampler.shape, dtype=bool)
    codes = np.zeros(sampler.shape, dtype=np.uint32)
    for o in geom.offsets[::-1]:
        _push_bit(codes, np.greater_equal(sampler.diff(o, plane), 0.0, out=bits))
    return codes


def _maps_at(canon: np.ndarray, geom: SamplingGeometry, inner_signs, mapper: Riu2Mapper,
             c_I: float, **fields) -> tuple:
    """(PatternMaps at geom, the outer sign codes). inner_signs are the sign
    codes of circle R-1 over geom's valid region, which D's XOR overwrites,
    or None to sample them; fields are the PatternMaps fields shared by
    every radius. The work planes are freed on return."""
    sign_codes, magnitude_codes, c_m, centers = _outer_codes(canon, geom)
    sign = mapper.map_array(sign_codes)
    magnitude = mapper.map_array(magnitude_codes)
    deriv = None
    if has_derivative(geom.R):
        # D's bit p is sign bit p at R XOR sign bit p at R-1, so its code is
        # the XOR of the two circles' sign codes.
        if inner_signs is None:
            inner_signs = _inner_sign_codes(canon, make_geometry(geom.P, geom.R - 1.0),
                                            geom.margin)
        deriv = mapper.map_array(np.bitwise_xor(sign_codes, inner_signs, out=inner_signs))
    center = (centers >= c_I).astype(np.uint8)
    for arr in (sign, magnitude, deriv, center):
        if arr is not None:
            arr.flags.writeable = False
    maps = PatternMaps(P=geom.P, R=geom.R, sign=sign, magnitude=magnitude, derivative=deriv,
                       center=center, c_m=c_m, c_I=c_I, **fields)
    return maps, sign_codes


def extract_maps(img: GrayImage, P: int, R: float) -> PatternMaps:
    """Extract sign/magnitude/derivative/center maps for the whole image:
    the one-radius case of extract_radii."""
    return extract_radii(img, P, (R,))[0]


def extract_radii(img: GrayImage, P: int, radii) -> list:
    """The PatternMaps of img at P and each radius in radii, in order, from
    one canonicalization and one sampling of each circle they need.

    Thresholds come first: c_m is the mean |d| over every valid center and
    direction at the outer radius, c_I the mean canonical intensity over the
    whole image. The derivative compares sign bits at radii R and R-1; it is
    extracted exactly when has_derivative(R), and is None otherwise. Where
    R-1 is one of radii too, its outer sign codes cropped by one pixel on
    each side are the sign codes of circle R-1 over R's valid region, bit
    for bit (the same taps minus the same centers), so that circle is
    sampled once. The riu2 lookup is one Riu2Mapper per P, shared by every
    call. Every radius must leave a valid center, or ValueError names the
    first that does not.

    Radii are done in increasing order. Float64 memory is one P x Hv x Wv
    stack at a time, the outer circle's differences, plus O(Hv x Wv): an
    inner circle that is not one of radii is sampled one offset at a time
    after the stack is freed, and the uint32 sign codes of R-1 wait for R.
    """
    radii = [float(R) for R in radii]
    for R in radii:
        make_geometry(P, R)
    regions = {R: valid_region(img, R) for R in radii}
    mapper = _default_mapper(int(P))

    canon, lo, hi = canonical_intensity(img.pixels)
    c_I = float(np.mean(canon))
    done = {}
    outer_signs = {}  # sign codes of a radius R-1 for the radius R that follows
    for R in sorted(regions):
        inner = outer_signs.pop(R - 1.0, None)
        done[R], sign_codes = _maps_at(
            canon, make_geometry(P, R), None if inner is None else inner[1:-1, 1:-1], mapper,
            region=regions[R], c_I=c_I, intensity_lo=lo, intensity_hi=hi)
        if R + 1.0 in regions:
            outer_signs[R] = sign_codes
    return [done[R] for R in radii]

