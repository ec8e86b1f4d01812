"""Circular neighborhood sampling with bilinear interpolation.

Neighbor p of P sits at displacement (dx, dy) = (-R*sin(2*pi*p/P),
R*cos(2*pi*p/P)) from the center, counter-clockwise, in a coordinate frame
with x growing right and y growing down from the top-left pixel.

Two details matter for the exact invariances promised by the pattern layer:

* When P is a multiple of 4, only the first quadrant of offsets is computed
  with trig; the rest are exact 90-degree rotations whose interpolation
  weights are permuted copies of the originals, bit for bit.
* The four bilinear terms are accumulated in the fixed pair order
  (w00*d00 + w11*d11) + (w01*d01 + w10*d10). The corner pairs {00,11} and
  {01,10} swap as sets under a quarter turn, so float addition being
  commutative makes the interpolated difference of a rotated image equal the
  original exactly, not just approximately.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

SNAP_TOL = 1e-6


@dataclass(frozen=True)
class NeighborOffset:
    """One sampling tap: displacement, the 2x2 tap corners, and weights.

    Weight naming is w<yx>: w01 belongs to tap (x1, y0), w10 to (x0, y1).
    Snapped axes collapse (x0 == x1 or y0 == y1) and park weight 0 on the
    duplicate corner so tap coordinates never leave the ceil(R) margin.
    """

    dx: float
    dy: float
    x0: int
    y0: int
    x1: int
    y1: int
    w00: float
    w01: float
    w10: float
    w11: float


@dataclass(frozen=True)
class SamplingGeometry:
    P: int
    R: float
    offsets: tuple

    @property
    def margin(self) -> int:
        return int(math.ceil(self.R))


def _axis_taps(coord: float):
    nearest = round(coord)
    if abs(coord - nearest) <= SNAP_TOL:
        snapped = int(nearest)
        return snapped, snapped, 0.0
    lo = math.floor(coord)
    return int(lo), int(lo) + 1, coord - lo


def _offset_for(dx: float, dy: float) -> NeighborOffset:
    x0, x1, tx = _axis_taps(dx)
    y0, y1, ty = _axis_taps(dy)
    ux = 1.0 - tx
    uy = 1.0 - ty
    return NeighborOffset(
        dx, dy, x0, y0, x1, y1,
        w00=ux * uy, w01=tx * uy, w10=ux * ty, w11=tx * ty,
    )


def _rotated(o: NeighborOffset) -> NeighborOffset:
    """Quarter turn counter-clockwise in image coordinates: (dx,dy) -> (-dy,dx).

    Tap corners cycle 00 -> 01 -> 11 -> 10, so the new weights are copies of
    the old ones rather than recomputed products; this keeps them bitwise
    identical, which the rotation-invariance guarantee depends on.
    """
    return NeighborOffset(
        dx=-o.dy, dy=o.dx,
        x0=-o.y1, y0=o.x0, x1=-o.y0, y1=o.x1,
        w00=o.w10, w01=o.w00, w10=o.w11, w11=o.w01,
    )


@functools.lru_cache(maxsize=256)
def make_geometry(P: int, R: float) -> SamplingGeometry:
    """Build the P sampling offsets for radius R.

    This is the one statement of which geometries the pipeline accepts: P
    an integer in [4, 24], the widths the riu2 mapping serves, and R a
    finite real >= 1. When 4 | P, offset i >= P/4 is the quarter turn of
    offset i - P/4. Displacements within SNAP_TOL of an integer snap to a
    single tap with weight 1. Geometries are frozen and memoized per (P, R),
    so every image sampled at one geometry shares a single instance; bad
    arguments raise on every call.
    """
    if not 4 <= P <= 24 or int(P) != P:
        raise ValueError(f"P must be an integer in [4, 24], got {P}")
    P = int(P)
    R = float(R)
    if not (math.isfinite(R) and R >= 1.0):
        raise ValueError(f"R must be a finite real >= 1, got {R}")
    count = P // 4 if P % 4 == 0 else P
    offsets = [
        _offset_for(-R * math.sin(2.0 * math.pi * p / P), R * math.cos(2.0 * math.pi * p / P))
        for p in range(count)
    ]
    while len(offsets) < P:
        offsets.append(_rotated(offsets[-count]))
    return SamplingGeometry(P, R, tuple(offsets))


def valid_region(img, R: float):
    """Inclusive (x0, y0, x1, y1) bounds of centers whose taps stay in-bounds.

    The margin is ceil(R) on every side; an image too small to contain a
    single center is an error.
    """
    m = int(math.ceil(float(R)))
    x1 = img.width - 1 - m
    y1 = img.height - 1 - m
    if x1 < m or y1 < m:
        raise ValueError(
            f"image {img.width}x{img.height} has no valid centers at R={R}"
        )
    return (m, m, x1, y1)


class OffsetSampler:
    """Interpolated neighbor-minus-center planes of one image, one offset at
    a time, over the valid region of a fixed margin.

    The margin is given rather than derived from a geometry, so an inner
    circle can be sampled over the valid region of the outer one. centers is
    a view of the center pixels; the sampler also holds a contiguous copy of
    them, which every subtraction reads, and two scratch planes, so sampling
    any number of offsets allocates nothing more.
    """

    def __init__(self, pixels: np.ndarray, margin: int):
        h, w = pixels.shape
        hv = h - 2 * margin
        wv = w - 2 * margin
        if hv < 1 or wv < 1:
            raise ValueError(f"image {w}x{h} has no valid centers at margin {margin}")
        self.pixels = pixels
        self.margin = margin
        self.shape = (hv, wv)
        self.centers = pixels[margin : margin + hv, margin : margin + wv]
        self._c = np.ascontiguousarray(self.centers)
        self._pair = np.empty(self.shape, dtype=np.float64)
        self._term = np.empty(self.shape, dtype=np.float64)

    def _tap(self, x: int, y: int) -> np.ndarray:
        m = self.margin
        hv, wv = self.shape
        return self.pixels[m + y : m + y + hv, m + x : m + x + wv]

    def _weighted(self, x: int, y: int, weight: float, out: np.ndarray) -> np.ndarray:
        np.subtract(self._tap(x, y), self._c, out=out)
        out *= weight
        return out

    def diff(self, o: NeighborOffset, out: np.ndarray) -> np.ndarray:
        """Write the difference plane of offset o into out, an (Hv, Wv)
        float64 array, and return it.

        An offset whose four tap corners are one pixel is that pixel minus
        the center, a single subtraction. For finite pixels this is bitwise
        the four-term sum: the three zero-weight terms are zeros of the same
        sign as d and cannot change it. Every other offset accumulates the
        four terms in place, in the pair order given in the module docstring.
        """
        if o.x0 == o.x1 and o.y0 == o.y1:
            return np.subtract(self._tap(o.x0, o.y0), self._c, out=out)
        self._weighted(o.x0, o.y0, o.w00, out)
        out += self._weighted(o.x1, o.y1, o.w11, self._term)
        pair = self._weighted(o.x1, o.y0, o.w01, self._pair)
        pair += self._weighted(o.x0, o.y1, o.w10, self._term)
        out += pair
        return out


def plane_diffs(pixels: np.ndarray, geom: SamplingGeometry, margin: int):
    """Interpolated neighbor-minus-center differences over the valid region.

    Returns (diffs, centers) where diffs has shape (P, Hv, Wv), offset p
    sampled into diffs[p] by OffsetSampler.diff. The margin is passed in
    (instead of derived from geom) as for OffsetSampler. Differences are
    interpolated directly from tap-minus-center values, so flat patches give
    exact zeros and adding an integer constant to an integer image leaves
    diffs bitwise unchanged.
    """
    sampler = OffsetSampler(pixels, margin)
    diffs = np.empty((geom.P,) + sampler.shape, dtype=np.float64)
    for p, o in enumerate(geom.offsets):
        sampler.diff(o, out=diffs[p])
    return diffs, sampler.centers
