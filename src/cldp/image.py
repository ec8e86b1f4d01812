"""Grayscale raster I/O, dataset manifests, and whole-image statistics.

Images are promoted to float64 at load time so that every downstream
interpolation and threshold comparison runs in real arithmetic.
"""

from __future__ import annotations

import csv
import io
import math
import os
import re
import struct

import numpy as np


class FormatError(ValueError):
    """A raster file violates the expected binary layout."""


class ManifestError(ValueError):
    """A sample manifest cannot be parsed or resolved."""


class GrayImage:
    """A 2-D grayscale raster.

    Pixel data is stored row-major as a read-only float64 array; values are
    not required to be integral or bounded, which keeps synthetic and
    intensity-transformed images first-class citizens.
    """

    __slots__ = ("pixels",)

    def __init__(self, pixels):
        arr = np.ascontiguousarray(pixels, dtype=np.float64)
        if arr.ndim != 2 or arr.size == 0:
            raise ValueError("GrayImage needs a non-empty 2-D array")
        if not np.isfinite(arr).all():
            raise ValueError("GrayImage pixels must be finite")
        arr.flags.writeable = False
        self.pixels = arr

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    def __repr__(self):
        return f"GrayImage({self.width}x{self.height})"


def _token(data: bytes, pos: int):
    """Next whitespace-delimited header token, tolerating '#' comments."""
    n = len(data)
    while pos < n:
        c = data[pos]
        if c in b"#":
            while pos < n and data[pos] not in b"\r\n":
                pos += 1
        elif c in b" \t\r\n\x0b\x0c":
            pos += 1
        else:
            break
    if pos >= n:
        raise FormatError(f"unexpected end of header at byte {n}")
    start = pos
    while pos < n and data[pos] not in b" \t\r\n\x0b\x0c":
        pos += 1
    return data[start:pos], pos


def _header_int(data: bytes, pos: int, what: str):
    tok, end = _token(data, pos)
    if not tok.isdigit():  # ASCII digits only, as ascii_int reads text
        raise FormatError(f"bad {what} {tok!r} at byte {end - len(tok)}")
    return int(tok), end


def _raster(data: bytes, pos: int, need: int) -> bytes:
    """The need bytes of pixel data that start at byte pos."""
    if pos + need > len(data):
        raise FormatError(f"truncated raster: expected {need} bytes from byte {pos}, "
                          f"file ends at byte {len(data)}")
    return data[pos : pos + need]


def parse_pgm(data: bytes) -> GrayImage:
    """Decode the bytes of a binary (P5) 8-bit PGM file.

    Header whitespace and '#' comments are tolerated; a malformed or truncated
    file, or a value above maxval, raises FormatError naming its byte offset.
    """
    if data[:2] != b"P5":
        raise FormatError(f"not a P5 PGM (magic {data[:2]!r} at byte 0)")
    width, pos = _header_int(data, 2, "width")
    height, pos = _header_int(data, pos, "height")
    maxval, pos = _header_int(data, pos, "maxval")
    if width < 1 or height < 1:
        raise FormatError(f"bad dimensions {width}x{height}")
    if not 1 <= maxval <= 255:
        raise FormatError(f"unsupported maxval {maxval} (8-bit only)")
    pos += 1  # exactly one whitespace byte separates header and raster
    raster = _raster(data, pos, width * height)
    arr = np.frombuffer(raster, dtype=np.uint8).reshape(height, width)
    if maxval < 255 and arr.max() > maxval:  # no byte exceeds 255
        i = np.flatnonzero(arr > maxval)[0]
        raise FormatError(f"pixel value {arr.flat[i]} at byte {pos + i} exceeds maxval {maxval}")
    return GrayImage(arr)


def save_pgm(img: GrayImage, path) -> None:
    """Write a canonical P5 PGM (header 'P5\\n<w> <h>\\n255\\n').

    Pixels are clipped to [0, 255] and rounded half up, so an image that came
    from an 8-bit PGM round-trips byte-exactly.
    """
    px = np.clip(np.floor(img.pixels + 0.5), 0.0, 255.0).astype(np.uint8)
    header = f"P5\n{img.width} {img.height}\n255\n".encode("ascii")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(px.tobytes())


def parse_bmp8(data: bytes) -> GrayImage:
    """Decode the bytes of an uncompressed 8-bit palettized BMP file.

    The palette is collapsed to gray: entries with equal channels use that
    value directly (this covers identity gray ramps), anything else goes
    through the usual luma weights 0.299/0.587/0.114 rounded half up.
    Bottom-up files are flipped to the top-left origin used everywhere else.
    A pixel index past the palette's last entry raises FormatError.
    """
    if data[:2] != b"BM":
        raise FormatError(f"not a BMP (magic {data[:2]!r} at byte 0)")
    if len(data) < 54:
        raise FormatError(f"truncated BMP header: {len(data)} bytes")
    # Little-endian fields at fixed offsets of the file and DIB headers.
    pix_off, hdr_size, width, height, _, bits, compression = struct.unpack_from(
        "<IIiiHHI", data, 10)
    (clr_used,) = struct.unpack_from("<I", data, 46)
    if hdr_size < 40:
        raise FormatError(f"unsupported DIB header size {hdr_size}")
    if bits != 8:
        raise FormatError(f"unsupported bit depth {bits} (8-bit palette only)")
    if compression != 0:
        raise FormatError(f"unsupported compression mode {compression}")
    if width < 1 or height == 0:
        raise FormatError(f"bad dimensions {width}x{height}")
    flipped = height > 0
    height = abs(height)

    n_entries = clr_used if clr_used else 256
    if n_entries > 256:
        raise FormatError(f"palette of {n_entries} entries; an 8-bit BMP has at most 256")
    pal_off = 14 + hdr_size
    if pal_off + 4 * n_entries > len(data):
        raise FormatError(f"truncated palette at byte {pal_off}")
    gray = np.zeros(256, dtype=np.uint8)
    for i in range(n_entries):
        b, g, r = data[pal_off + 4 * i : pal_off + 4 * i + 3]
        if r == g == b:
            gray[i] = r
        else:
            gray[i] = int(math.floor(0.299 * r + 0.587 * g + 0.114 * b + 0.5))

    stride = (width + 3) & ~3
    raster = _raster(data, pix_off, stride * height)
    rows = np.frombuffer(raster, dtype=np.uint8).reshape(height, stride)
    idx = rows[:, :width]
    if n_entries < 256 and idx.max() >= n_entries:
        r, c = np.argwhere(idx >= n_entries)[0]
        raise FormatError(f"pixel index {idx[r, c]} at byte {pix_off + r * stride + c} "
                          f"is past the {n_entries}-entry palette")
    if flipped:
        idx = idx[::-1]
    return GrayImage(gray[idx])


_DECODERS = {".pgm": parse_pgm, ".pnm": parse_pgm, ".bmp": parse_bmp8}


def load_image(path, data: bytes | None = None) -> GrayImage:
    """Dispatch on extension: .pgm/.pnm go to the PGM parser, .bmp to BMP.

    data, when given, is the file's content, already read by the caller
    (to hash it, say), and is decoded instead of reading the file again.
    """
    ext = os.path.splitext(str(path))[1].lower()
    if ext not in _DECODERS:
        raise FormatError(f"unsupported image extension {ext!r} for {path}")
    if data is None:
        with open(path, "rb") as fh:
            data = fh.read()
    return _DECODERS[ext](data)


def normalize_image(img: GrayImage, mean: float = 128.0, std: float = 20.0) -> GrayImage:
    """Affinely shift the image to a target mean and standard deviation.

    A constant image has no spread to rescale and is returned unchanged.
    Output stays real-valued; nothing is clipped or requantized. The
    descriptor does not need it: patterns are taken on the canonical plane,
    which removes any such map up to rounding.
    """
    mu = float(np.mean(img.pixels))
    sigma = float(np.std(img.pixels))
    if sigma == 0.0:
        return GrayImage(img.pixels)
    return GrayImage((img.pixels - mu) * (std / sigma) + mean)


class Manifest:
    """An ordered list of (relative path, label) pairs under a root directory."""

    __slots__ = ("root", "entries")

    def __init__(self, root, entries):
        self.root = str(root)
        self.entries = tuple((str(p), int(l)) for p, l in entries)

    def __len__(self):
        return len(self.entries)

    def labels(self):
        return sorted({label for _, label in self.entries})

    def abs_path(self, rel: str) -> str:
        return os.path.join(self.root, rel)


def _resolve_entry(root: str, rel: str, lineno: int, path) -> str:
    """Resolve a manifest entry; only a missing .ras falls back, to .pgm/.bmp.

    Outex index files reference the original .ras rasters; a converted copy
    keeps the index untouched and stores .pgm/.bmp next to them.
    """
    if os.path.isfile(os.path.join(root, rel)):
        return rel
    stem, ext = os.path.splitext(rel)
    for alt in (stem + ".pgm", stem + ".bmp"):
        if ext == ".ras" and os.path.isfile(os.path.join(root, alt)):
            return alt
    raise ManifestError(f"{path}:{lineno}: cannot resolve sample {rel!r} under {root}")


# Blanks are ASCII only: U+0085, U+00A0 and such are part of a name.
_BLANKS = " \t\v\f"
_BLANK_RUN = re.compile(f"[{_BLANKS}]+")
_RECORD = {"native-csv": "path,label", "outex-index": "name label"}


def ascii_int(text: str) -> int:
    """text, less surrounding ASCII blanks, as an integer of ASCII digits
    [0-9]+; a sign, a '_' or another script's digits is a ValueError."""
    digits = text.strip(_BLANKS)
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"expected ASCII digits, got {text!r}")
    return int(digits)


def ascii_radius(text: str) -> float:
    """text, less surrounding ASCII blanks, as a radius: ASCII digits with an
    optional '.' fraction, as in -R and a config's geometries; a sign, an
    exponent, a '_' or another script's digits is a ValueError."""
    if not re.fullmatch(r"[0-9]+(?:\.[0-9]+)?", text.strip(_BLANKS)):
        raise ValueError(f"R must be ASCII digits with an optional '.' fraction, got {text!r}")
    return float(text)


def text_lines(path, error):
    """The lines, ending at CRLF, CR or LF only, of UTF-8 text file path, less
    a leading byte-order mark; a byte that is not UTF-8 raises error citing
    its line."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return io.StringIO(data.decode("utf-8-sig"), newline="")
    except UnicodeDecodeError as err:
        # err.object is the data after the mark, and err.start counts from it.
        head = err.object[:err.start].decode("utf-8")
        lineno = 1 + head.count("\r") + head.count("\n") - head.count("\r\n")
        raise error(f"{path}:{lineno}: not UTF-8: {err.reason}") from None


def _csv_records(lines, path):
    """(line it starts on, fields) of each RFC 4180 record in lines."""
    reader = csv.reader(lines, strict=True)
    lineno = 1
    try:
        for fields in reader:
            yield lineno, fields
            lineno = reader.line_num + 1
    except csv.Error as err:
        raise ManifestError(f"{path}:{lineno}: expected 'path,label' ({err})") from None


def load_manifest(path, root, fmt: str = "native-csv") -> Manifest:
    """Parse a sample manifest, UTF-8 text as 'cldp extract' rows are.

    Formats:
      native-csv   one RFC 4180 record per sample, no header: the label is
                   the last field, the path the others joined by ',', kept
                   verbatim, blanks included; a quote must open its field
      outex-index  optional leading count line, then 'name label' per line,
                   split at runs of ASCII blanks (_BLANKS)

    Labels and the count are read by ascii_int. A record of ASCII blanks is
    skipped; each other one yields an entry, in order, whose path resolves
    to a new file under root (see _resolve_entry). Lines end at CRLF, CR or
    LF only; an error cites the line its record, or its non-UTF-8 byte, starts on.
    """
    if fmt not in _RECORD:
        raise ManifestError(f"unknown manifest format {fmt!r}")
    root = str(root)
    listed = {}  # resolved path -> (the line that listed it, label)
    declared = None
    lines = text_lines(path, ManifestError)
    records = _csv_records(lines, path) if fmt == "native-csv" else (
        (n, _BLANK_RUN.split(line.strip(_BLANKS + "\r\n"))) for n, line in enumerate(lines, 1))
    for lineno, fields in records:
        if len(fields) < 2 and not "".join(fields).strip(_BLANKS):
            continue
        if fmt == "outex-index" and len(fields) == 1 and lineno == 1:
            try:
                declared = ascii_int(fields[0])
            except ValueError:
                raise ManifestError(f"{path}:1: bad count line {fields[0]!r}") from None
            continue
        if len(fields) < 2 or (fmt == "outex-index" and len(fields) > 2):
            raise ManifestError(f"{path}:{lineno}: expected {_RECORD[fmt]!r}")
        try:
            label = ascii_int(fields[-1])
        except ValueError:
            raise ManifestError(f"{path}:{lineno}: bad label {fields[-1]!r}") from None
        rel = _resolve_entry(root, ",".join(fields[:-1]), lineno, path)
        if rel in listed:
            raise ManifestError(
                f"{path}:{lineno}: duplicate sample path {rel} (line {listed[rel][0]})")
        listed[rel] = lineno, label
    if declared is not None and declared != len(listed):
        raise ManifestError(
            f"{path}: declared {declared} samples but parsed {len(listed)}"
        )
    if not listed:
        raise ManifestError(f"{path}: empty manifest")
    return Manifest(root, [(rel, label) for rel, (_, label) in listed.items()])
