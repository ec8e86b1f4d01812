"""Deliberately naive reference pipeline used to cross-check the library.

Everything is scalar loops and first-principles counting: no lookup
tables, no caching, no vectorized encoding. It shares only the library's
documented arithmetic conventions (sampling geometry with quadrant
rotation, interpolation term order, canonical intensity scaling, mean
reduction over the (p, y, x)-ordered difference stack), because exact
histogram equality is part of the contract under test.
"""

import math
from itertools import product

import numpy as np

SNAP = 1e-6


def naive_transitions(bits: int, P: int) -> int:
    s = [(bits >> p) & 1 for p in range(P)]
    return sum(1 for i in range(P) if s[i] != s[(i + 1) % P])


def naive_riu2(bits: int, P: int) -> int:
    if naive_transitions(bits, P) <= 2:
        return sum((bits >> p) & 1 for p in range(P))
    return P + 1


def counted_riu2(bits: int, P: int) -> int:
    """naive_riu2 by counting the ones of Python ints: the transitions are
    the ones of bits XOR its one-step rotation. Scalar, like naive_riu2,
    and about 7x faster, for checks over millions of codes."""
    rot = ((bits << 1) | (bits >> (P - 1))) & ((1 << P) - 1)
    if bin(bits ^ rot).count("1") <= 2:
        return bin(bits).count("1")
    return P + 1


def naive_rotation_classes(P: int) -> int:
    """Count rotation-equivalence classes by canonical (minimal) rotation."""
    mask = (1 << P) - 1
    seen = set()
    for code in range(1 << P):
        best = code
        for k in range(1, P):
            rot = ((code >> k) | (code << (P - k))) & mask
            if rot < best:
                best = rot
        seen.add(best)
    return len(seen)


def naive_uniform_count(P: int) -> int:
    return sum(1 for code in range(1 << P) if naive_transitions(code, P) <= 2)


def naive_scheme_groups(text: str):
    """Parse an already-valid scheme string; no prefix or error handling."""
    for prefix in ("CLDP_", "CLBP_"):
        if text.startswith(prefix):
            text = text[len(prefix):]
    return [tuple(group.split("/")) for group in text.split("_")]


def naive_scheme_dimension(groups, P: int) -> int:
    """Bin-counting oracle: enumerate every component value combination and
    count the distinct flattened indices it can land in."""
    total = 0
    for group in groups:
        sizes = [2 if comp == "C" else P + 2 for comp in group]
        indices = set()
        for values in product(*(range(s) for s in sizes)):
            idx = 0
            for v, size in zip(values, sizes):
                idx = idx * size + v
            indices.add(idx)
        total += len(indices)
    return total


def _taps_1d(coord: float):
    nearest = round(coord)
    if abs(coord - nearest) <= SNAP:
        return int(nearest), int(nearest), 0.0
    lo = math.floor(coord)
    return int(lo), int(lo) + 1, coord - lo


def naive_offsets(P: int, R: float):
    """Per-direction taps and weights: (x0, y0, x1, y1, w00, w01, w10, w11).

    Direction p points at (-R sin(2 pi p / P), R cos(2 pi p / P)). When
    4 | P only the first quadrant comes from trig; the rest are exact
    quarter turns (dx, dy) -> (-dy, dx) with weights carried over.
    """

    def from_displacement(dx, dy):
        x0, x1, tx = _taps_1d(dx)
        y0, y1, ty = _taps_1d(dy)
        return (x0, y0, x1, y1,
                (1.0 - tx) * (1.0 - ty), tx * (1.0 - ty),
                (1.0 - tx) * ty, tx * ty)

    def turned(o):
        x0, y0, x1, y1, w00, w01, w10, w11 = o
        return (-y1, x0, -y0, x1, w10, w00, w11, w01)

    count = P // 4 if P % 4 == 0 else P
    offsets = [
        from_displacement(-R * math.sin(2.0 * math.pi * p / P),
                          R * math.cos(2.0 * math.pi * p / P))
        for p in range(count)
    ]
    while len(offsets) < P:
        offsets.append(turned(offsets[-count]))
    return offsets


def naive_canonical(pixels: np.ndarray) -> np.ndarray:
    h, w = pixels.shape
    values = [pixels[y, x] for y in range(h) for x in range(w)]
    lo, hi = min(values), max(values)
    out = np.zeros((h, w), dtype=np.float64)
    if hi != lo:
        for y in range(h):
            for x in range(w):
                out[y, x] = (pixels[y, x] - lo) / (hi - lo)
    return out


def naive_diffs_at(canon: np.ndarray, offsets, x: int, y: int):
    c = canon[y, x]
    diffs = []
    for x0, y0, x1, y1, w00, w01, w10, w11 in offsets:
        d00 = canon[y + y0, x + x0] - c
        d01 = canon[y + y0, x + x1] - c
        d10 = canon[y + y1, x + x0] - c
        d11 = canon[y + y1, x + x1] - c
        diffs.append((w00 * d00 + w11 * d11) + (w01 * d01 + w10 * d10))
    return diffs


def naive_plane_diffs(pixels: np.ndarray, P: int, R: float, margin: int) -> np.ndarray:
    """The (P, Hv, Wv) difference stack over the centers at least margin
    pixels from the border, every entry from the four-term formula of
    naive_diffs_at, zero weights included."""
    h, w = pixels.shape
    offsets = naive_offsets(P, R)
    out = np.empty((P, h - 2 * margin, w - 2 * margin), dtype=np.float64)
    for y in range(margin, h - margin):
        for x in range(margin, w - margin):
            out[:, y - margin, x - margin] = naive_diffs_at(pixels, offsets, x, y)
    return out


def naive_histogram(pixels: np.ndarray, P: int, R: float, scheme_text: str) -> np.ndarray:
    """Full pipeline, one pixel at a time, returning the normalized bins."""
    R = float(R)
    has_d = R >= 2.0
    groups = naive_scheme_groups(scheme_text)
    margin = math.ceil(R)
    h, w = pixels.shape
    ys = range(margin, h - margin)
    xs = range(margin, w - margin)

    canon = naive_canonical(pixels)
    outer = naive_offsets(P, R)
    grid = {(x, y): naive_diffs_at(canon, outer, x, y) for y in ys for x in xs}
    abs_stack = np.array(
        [[[abs(grid[(x, y)][p]) for x in xs] for y in ys] for p in range(P)]
    )
    c_m = float(np.mean(abs_stack))
    c_I = float(np.mean(canon))
    inner = naive_offsets(P, R - 1.0) if has_d else None

    codes = {}
    for y in ys:
        for x in xs:
            d = grid[(x, y)]
            s_bits = sum(1 << p for p in range(P) if d[p] >= 0.0)
            m_bits = sum(1 << p for p in range(P) if abs(d[p]) >= c_m)
            value = {
                "S": naive_riu2(s_bits, P),
                "M": naive_riu2(m_bits, P),
                "C": 1 if canon[y, x] >= c_I else 0,
            }
            if has_d:
                di = naive_diffs_at(canon, inner, x, y)
                d_bits = sum(
                    1 << p for p in range(P) if (d[p] >= 0.0) != (di[p] >= 0.0)
                )
                value["D"] = naive_riu2(d_bits, P)
            codes[(x, y)] = value

    parts = []
    for group in groups:
        sizes = [2 if comp == "C" else P + 2 for comp in group]
        total = 1
        for s in sizes:
            total *= s
        counts = [0] * total
        for y in ys:
            for x in xs:
                idx = 0
                for comp, size in zip(group, sizes):
                    idx = idx * size + codes[(x, y)][comp]
                counts[idx] += 1
        n = sum(counts)
        parts.extend(v / n for v in counts)
    return np.array(parts, dtype=np.float64)


def naive_model_distances(bins: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """Chi-square distance from one histogram to every model row, one model
    and one bin at a time: each term (m - t)^2 / (m + t), terms with a zero
    denominator left out, summed exactly rounded with math.fsum."""
    out = []
    for row in matrix:
        terms = []
        for t, m in zip(bins.tolist(), row.tolist()):
            if m + t != 0.0:
                terms.append((m - t) * (m - t) / (m + t))
        out.append(math.fsum(terms))
    return np.array(out)
