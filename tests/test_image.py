import re
import struct

import numpy as np
import pytest

from cldp import (
    FormatError,
    GrayImage,
    ManifestError,
    extract_maps,
    load_image,
    load_manifest,
    normalize_image,
    save_pgm,
)
from cldp.image import parse_bmp8, parse_pgm
from conftest import gray


def write_bytes(path, data: bytes):
    path.write_bytes(data)
    return str(path)


def make_bmp8(width, height, rows, palette, top_down=False):
    """Minimal uncompressed 8-bit BMP. rows is a list of index lists in
    image (top-to-bottom) order; stored bottom-up unless top_down."""
    stride = (width + 3) & ~3
    pal = bytearray()
    for r, g, b in palette:
        pal += bytes([b, g, r, 0])
    stored = rows if top_down else rows[::-1]
    raster = bytearray()
    for row in stored:
        raster += bytes(row) + bytes(stride - width)
    pix_off = 14 + 40 + len(pal)
    dib = struct.pack(
        "<IiiHHIIiiII", 40, width, -height if top_down else height,
        1, 8, 0, len(raster), 2835, 2835, len(palette), 0,
    )
    header = struct.pack("<2sIHHI", b"BM", pix_off + len(raster), 0, 0, pix_off)
    return header + dib + bytes(pal) + bytes(raster)


# -- PGM ----------------------------------------------------------------

def test_load_pgm_2x2(tmp_path):
    p = write_bytes(tmp_path / "a.pgm", b"P5\n2 2\n255\n" + bytes([0, 255, 16, 32]))
    img = load_image(p)
    assert (img.width, img.height) == (2, 2)
    assert img.pixels.tolist() == [[0.0, 255.0], [16.0, 32.0]]


def test_load_pgm_rejects_p2(tmp_path):
    p = write_bytes(tmp_path / "a.pgm", b"P2\n2 2\n255\n0 1 2 3\n")
    with pytest.raises(FormatError, match="P5"):
        load_image(p)


def test_load_pgm_comment_is_transparent(tmp_path):
    plain = write_bytes(tmp_path / "plain.pgm", b"P5\n2 2\n255\n" + bytes(range(4)))
    commented = write_bytes(
        tmp_path / "commented.pgm",
        b"P5\n2 2\n# a comment line\n255\n" + bytes(range(4)),
    )
    assert np.array_equal(load_image(plain).pixels, load_image(commented).pixels)


def test_load_pgm_rejects_wide_maxval(tmp_path):
    p = write_bytes(tmp_path / "a.pgm", b"P5\n2 2\n65535\n" + bytes(8))
    with pytest.raises(FormatError, match="maxval"):
        load_image(p)


@pytest.mark.parametrize("width", [b"1_0", b"+8"])
def test_load_pgm_header_numbers_are_ascii_digits(width):
    """int() takes '1_0' as 10 and '+8' as 8; a header field is digits."""
    with pytest.raises(FormatError, match=re.escape(f"bad width {width!r} at byte 3")):
        parse_pgm(b"P5\n" + width + b" 1\n255\n" + bytes(10))


@pytest.mark.parametrize("data, error", [
    (b"P5\n2 2\n", "unexpected end of header at byte 7"),
    (b"P5\n0 4\n255\n", "bad dimensions 0x4"),
], ids=["header-end", "zero-width"])
def test_parse_pgm_rejects_a_bad_header(data, error):
    with pytest.raises(FormatError, match=f"^{error}$"):
        parse_pgm(data)


def test_load_pgm_truncated_names_offset(tmp_path):
    p = write_bytes(tmp_path / "a.pgm", b"P5\n2 2\n255\n" + bytes(3))
    with pytest.raises(FormatError, match="byte"):
        load_image(p)


def test_pgm_round_trip_is_byte_exact(tmp_path):
    rng = np.random.default_rng(3)
    arr = np.floor(rng.uniform(0, 256, size=(9, 13)))
    first = tmp_path / "first.pgm"
    second = tmp_path / "second.pgm"
    save_pgm(gray(arr), first)
    save_pgm(load_image(first), second)
    assert first.read_bytes() == second.read_bytes()
    assert np.array_equal(load_image(first).pixels, arr)


def test_save_pgm_rounds_half_up_and_clips(tmp_path):
    p = tmp_path / "round.pgm"
    save_pgm(gray([[0.49, 0.5, 254.5, 300.0, -4.0]]), p)
    assert load_image(p).pixels.tolist() == [[0.0, 1.0, 255.0, 255.0, 0.0]]


# -- BMP ----------------------------------------------------------------

def test_load_bmp8_gray_ramp_palette(tmp_path):
    palette = [(i, i, i) for i in range(256)]
    p = write_bytes(tmp_path / "a.bmp", make_bmp8(1, 1, [[7]], palette))
    assert load_image(p).pixels.tolist() == [[7.0]]


def test_load_bmp8_bottom_up_rows_flip(tmp_path):
    palette = [(i, i, i) for i in range(256)]
    p = write_bytes(tmp_path / "a.bmp", make_bmp8(1, 2, [[10], [20]], palette))
    assert load_image(p).pixels.tolist() == [[10.0], [20.0]]


def test_load_bmp8_luma_palette(tmp_path):
    # 0.299*255 = 76.245 -> 76 after rounding half up
    p = write_bytes(tmp_path / "a.bmp", make_bmp8(1, 1, [[0]], [(255, 0, 0)]))
    assert load_image(p).pixels.tolist() == [[76.0]]


_ONE_PIXEL_BMP = make_bmp8(1, 1, [[0]], [(0, 0, 0)])  # 62 bytes, one palette entry


def _patched_bmp(offset, fmt, value) -> bytes:
    """_ONE_PIXEL_BMP with the field at offset set to value."""
    data = bytearray(_ONE_PIXEL_BMP)
    struct.pack_into(fmt, data, offset, value)
    return bytes(data)


@pytest.mark.parametrize("data, error", [
    (_patched_bmp(0, "<2s", b"BX"), r"not a BMP \(magic b'BX' at byte 0\)"),
    (_ONE_PIXEL_BMP[:53], "truncated BMP header: 53 bytes"),
    (_patched_bmp(14, "<I", 12), "unsupported DIB header size 12"),
    (_patched_bmp(28, "<H", 24), r"unsupported bit depth 24 \(8-bit palette only\)"),
    (_patched_bmp(30, "<I", 1), "unsupported compression mode 1"),  # BI_RLE8
    (_patched_bmp(18, "<i", 0), "bad dimensions 0x1"),
    (_patched_bmp(46, "<I", 0), "truncated palette at byte 54"),  # 0 entries: 256
], ids=["magic", "short", "dib-header", "bit-depth", "compression", "zero-width", "palette"])
def test_parse_bmp8_rejects_a_bad_header(data, error):
    with pytest.raises(FormatError, match=f"^{error}$"):
        parse_bmp8(data)


def test_parse_bmp8_rejects_palette_over_256_entries():
    palette = [(i % 256,) * 3 for i in range(256)]
    assert parse_bmp8(make_bmp8(1, 1, [[255]], palette)).pixels.tolist() == [[255.0]]
    with pytest.raises(FormatError, match="palette of 300 entries"):
        parse_bmp8(make_bmp8(4, 4, [[0] * 4] * 4, palette + palette[:44]))


def test_parse_pgm_rejects_a_value_above_maxval():
    header = b"P5\n4 1\n100\n"
    assert parse_pgm(header + bytes([0, 100, 7, 100])).pixels.tolist() == [[0.0, 100.0, 7.0, 100.0]]
    with pytest.raises(FormatError, match=f"^pixel value 200 at byte {len(header) + 2} exceeds maxval 100$"):
        parse_pgm(header + bytes([0, 100, 200, 101]))


def test_parse_bmp8_truncated_raster_names_offset():
    data = make_bmp8(2, 2, [[0, 1], [1, 0]], [(0, 0, 0), (255, 255, 255)])
    with pytest.raises(FormatError, match="^truncated raster: expected 8 bytes from byte 62, "
                                          "file ends at byte 66$"):
        parse_bmp8(data[:-4])


def test_parse_bmp8_rejects_an_index_past_the_palette():
    palette = [(0, 0, 0), (255, 255, 255)]
    assert parse_bmp8(make_bmp8(2, 2, [[0, 1], [1, 0]], palette)).pixels.tolist() == [
        [0.0, 255.0], [255.0, 0.0]]
    # Bottom-up: the second image row is the first stored row, at byte 14 + 40 + 8.
    with pytest.raises(FormatError, match="^pixel index 200 at byte 63 is past the 2-entry palette$"):
        parse_bmp8(make_bmp8(2, 2, [[0, 1], [0, 200]], palette))


def test_load_image_dispatch(tmp_path):
    pgm = write_bytes(tmp_path / "a.pgm", b"P5\n1 1\n255\n\x07")
    assert load_image(pgm).pixels.tolist() == [[7.0]]
    with pytest.raises(FormatError, match="extension"):
        load_image(str(tmp_path / "a.png"))


# -- statistics ----------------------------------------------------------

def test_image_mean_examples():
    # The center threshold c_I is the mean canonical intensity over every
    # pixel, margin included: a bright 1-pixel frame around a dark 6x6
    # interior gives 28/64 although no valid center is bright.
    arr = np.full((8, 8), 255.0)
    arr[1:7, 1:7] = 0.0
    maps = extract_maps(gray(arr), 8, 1.0)
    assert maps.c_I == 28.0 / 64.0
    assert np.all(maps.center == 0)
    assert extract_maps(gray([[0, 0, 0], [0, 255, 0], [0, 0, 0]]), 4, 1.0).c_I == 1.0 / 9.0


def test_normalize_image_hits_target_moments():
    rng = np.random.default_rng(12)
    out = normalize_image(gray(rng.uniform(0, 255, size=(16, 16))))
    assert float(np.mean(out.pixels)) == pytest.approx(128.0, abs=1e-9)
    assert float(np.std(out.pixels)) == pytest.approx(20.0, abs=1e-9)


def test_normalize_image_leaves_constant_alone():
    out = normalize_image(gray(np.full((4, 4), 9.0)))
    assert np.array_equal(out.pixels, np.full((4, 4), 9.0))


def test_gray_image_validates():
    with pytest.raises(ValueError):
        GrayImage(np.zeros((0, 3)))
    with pytest.raises(ValueError):
        GrayImage(np.array([[np.nan, 1.0]]))
    img = gray([[1, 2], [3, 4]])
    with pytest.raises(ValueError):
        img.pixels[0, 0] = 5.0


# -- manifests -----------------------------------------------------------

def touch_images(root, names):
    for name in names:
        save_pgm(gray(np.zeros((8, 8))), root / name)


def test_load_manifest_native_csv(tmp_path):
    touch_images(tmp_path, ["a.pgm", "b.pgm"])
    m = tmp_path / "m.csv"
    m.write_text("a.pgm,0\nb.pgm,3\n")
    manifest = load_manifest(m, tmp_path, "native-csv")
    assert manifest.entries == (("a.pgm", 0), ("b.pgm", 3))
    assert manifest.labels() == [0, 3]


def test_load_manifest_native_csv_unquotes_a_quoted_path(tmp_path):
    """A quoted path is an RFC 4180 field, as histogram.csv_field writes
    it; an unquoted line keeps its label after the last comma."""
    touch_images(tmp_path, ["a,b.pgm", 'q"t.pgm', "c,d.pgm"])
    m = tmp_path / "m.csv"
    m.write_text('"a,b.pgm",3\n"q""t.pgm", 1\nc,d.pgm,2\n')
    manifest = load_manifest(m, tmp_path, "native-csv")
    assert manifest.entries == (("a,b.pgm", 3), ('q"t.pgm', 1), ("c,d.pgm", 2))


@pytest.mark.parametrize("line", ['"a.pgm,0', '"a.pgm"0', '"a"b.pgm",0', '"a.pgm" ,0'])
def test_load_manifest_bad_quoted_path_cites_line(tmp_path, line):
    touch_images(tmp_path, ["a.pgm"])
    m = tmp_path / "m.csv"
    m.write_text(f"a.pgm,0\n{line}\n")
    with pytest.raises(ManifestError, match=":2: expected"):
        load_manifest(m, tmp_path, "native-csv")


def test_load_manifest_reads_utf8_and_cites_the_line_of_other_bytes(tmp_path):
    touch_images(tmp_path, ["\u00e9.pgm", "a.pgm"])
    m = tmp_path / "m.csv"
    m.write_bytes("a.pgm,0\n\u00e9.pgm,1\n".encode("utf-8"))
    assert load_manifest(m, tmp_path, "native-csv").entries == (("a.pgm", 0), ("\u00e9.pgm", 1))
    # A leading byte-order mark, as Excel's "CSV UTF-8" writes, is not part
    # of the first sample's name; one further on is.
    m.write_bytes("\ufeffa.pgm,0\n".encode("utf-8"))
    assert load_manifest(m, tmp_path, "native-csv").entries == (("a.pgm", 0),)
    m.write_bytes("a.pgm,0\n\ufeffa.pgm,1\n".encode("utf-8"))
    with pytest.raises(ManifestError,
                       match=re.escape(f"{m}:2: cannot resolve sample '\\ufeffa.pgm'")):
        load_manifest(m, tmp_path, "native-csv")
    for data, line in ((b"a.pgm,0\n\xe9.pgm,1\n", 2), (b"\xff,0\r\na.pgm,1\n", 1),
                       (b"a.pgm,0\r\rb\xc3.pgm,1\n", 3), (b"\xef\xbb\xbfa.pgm,0\n\xe9.pgm,1\n", 2),
                       (b"\xef\xbb\xbf\xff,0\n", 1)):
        m.write_bytes(data)
        with pytest.raises(ManifestError, match=f"^{m}:{line}: not UTF-8"):
            load_manifest(m, tmp_path, "native-csv")


def test_load_manifest_breaks_lines_only_at_cr_and_lf(tmp_path):
    """U+2028, U+0085 and the other Unicode line separators are part of a
    sample name; CRLF, CR and LF end a line, and errors count those lines."""
    touch_images(tmp_path, ["a\u2028b.pgm", "a\u0085b.pgm", "c.pgm"])
    m = tmp_path / "m.csv"
    m.write_bytes('"a\u2028b.pgm",0\r\na\u0085b.pgm,1\rc.pgm,2\n'.encode("utf-8"))
    assert load_manifest(m, tmp_path, "native-csv").entries == (
        ("a\u2028b.pgm", 0), ("a\u0085b.pgm", 1), ("c.pgm", 2))
    m.write_bytes("c.pgm,0\u2028\r\nc.pgm,x\n".encode("utf-8"))
    with pytest.raises(ManifestError, match=re.escape(f"{m}:1: bad label '0\\u2028'")):
        load_manifest(m, tmp_path, "native-csv")


@pytest.mark.parametrize("fmt, text, name", [
    ("outex-index", "a\u0085b.pgm 0\n", "a\u0085b.pgm"),
    ("native-csv", "\u0085c.pgm,0\n", "\u0085c.pgm"),
    ("native-csv", "\u00a0c.pgm\u2003,0\n", "\u00a0c.pgm\u2003"),
], ids=["outex-index-nel", "native-csv-nel", "native-csv-nbsp-emsp"])
def test_load_manifest_splits_and_trims_only_at_ascii_blanks(tmp_path, fmt, text, name):
    """U+0085, U+00A0 and the other Unicode spaces are part of a sample name:
    only ASCII space, tab, VT and FF separate or surround fields."""
    touch_images(tmp_path, [name])
    m = tmp_path / "m.txt"
    m.write_bytes(text.encode("utf-8"))
    assert load_manifest(m, tmp_path, fmt).entries == ((name, 0),)


@pytest.mark.parametrize("text", ["c.pgm,0\nc.pgm,1\n", "c.ras,0\r\nc.pgm,1\r\n"])
def test_load_manifest_duplicate_cites_both_lines(tmp_path, text):
    touch_images(tmp_path, ["c.pgm"])
    m = tmp_path / "list.csv"
    m.write_text(text)
    with pytest.raises(ManifestError, match=f"^{m}:2: duplicate sample path c.pgm \\(line 1\\)$"):
        load_manifest(m, tmp_path, "native-csv")


def test_load_manifest_cites_the_line_a_record_starts_on(tmp_path):
    """A quoted name holding a line break spans two lines; the record and its
    duplicate are cited by the lines they start on."""
    touch_images(tmp_path, ["a\nb.pgm"])
    m = tmp_path / "list.csv"
    m.write_text('"a\nb.pgm",0\n"a\nb.pgm",1\n', encoding="utf-8")
    with pytest.raises(ManifestError, match=re.escape(f"{m}:3: duplicate sample path a\nb.pgm (line 1)")):
        load_manifest(m, tmp_path, "native-csv")


def test_load_manifest_outex_index_with_count(tmp_path):
    touch_images(tmp_path, ["x.pgm", "y.pgm"])
    m = tmp_path / "m.txt"
    m.write_text("2\nx.pgm 0\ny.pgm 1\n")
    manifest = load_manifest(m, tmp_path, "outex-index")
    assert manifest.entries == (("x.pgm", 0), ("y.pgm", 1))


@pytest.mark.parametrize("count", ["two", "\u0662"])
def test_load_manifest_bad_count_line_cites_line(tmp_path, count):
    """The count line is ASCII digits, as a label is: int() would take the
    Arabic-Indic two."""
    touch_images(tmp_path, ["x.pgm", "y.pgm"])
    m = tmp_path / "m.txt"
    m.write_text(f"{count}\nx.pgm 0\ny.pgm 1\n", encoding="utf-8")
    with pytest.raises(ManifestError, match=f"^{m}:1: bad count line "):
        load_manifest(m, tmp_path, "outex-index")


def test_load_manifest_rejects_an_unknown_format_and_a_third_outex_field(tmp_path):
    touch_images(tmp_path, ["x.pgm"])
    m = tmp_path / "m.txt"
    m.write_text("x.pgm 0 1\n")
    with pytest.raises(ManifestError, match="^unknown manifest format 'csv'$"):
        load_manifest(m, tmp_path, "csv")
    with pytest.raises(ManifestError, match=f"^{m}:1: expected 'name label'$"):
        load_manifest(m, tmp_path, "outex-index")


def test_load_manifest_count_mismatch(tmp_path):
    touch_images(tmp_path, ["x.pgm"])
    m = tmp_path / "m.txt"
    m.write_text("3\nx.pgm 0\n")
    with pytest.raises(ManifestError, match="declared 3"):
        load_manifest(m, tmp_path, "outex-index")


def test_load_manifest_bad_label_cites_line(tmp_path):
    """A label is ASCII digits: int() would take the Arabic-Indic three, a
    leading U+0085 and an underscore."""
    touch_images(tmp_path, ["a.pgm", "c.pgm"])
    m = tmp_path / "m.csv"
    for line in ("a.pgm,zero", "c.pgm,\u0663", "c.pgm,\u00853", "c.pgm,1_0"):
        m.write_text(line + "\n", encoding="utf-8")
        with pytest.raises(ManifestError, match=":1: bad label"):
            load_manifest(m, tmp_path, "native-csv")


def test_load_manifest_unresolvable_path_cites_line(tmp_path):
    touch_images(tmp_path, ["a.pgm"])
    m = tmp_path / "m.csv"
    m.write_text("a.pgm,0\nmissing.pgm,1\n")
    with pytest.raises(ManifestError, match=":2:"):
        load_manifest(m, tmp_path, "native-csv")


def test_load_manifest_ras_falls_back_to_converted_sibling(tmp_path):
    touch_images(tmp_path, ["000001.pgm"])
    m = tmp_path / "m.txt"
    m.write_text("000001.ras 5\n")
    manifest = load_manifest(m, tmp_path, "outex-index")
    assert manifest.entries == (("000001.pgm", 5),)


def test_load_manifest_falls_back_only_from_ras(tmp_path):
    """Only a missing .ras falls back to a converted sibling: a listed .bmp
    or .txt, or a name with a NUL after its extension, names no file."""
    touch_images(tmp_path, ["a.pgm", "b.pgm"])
    m = tmp_path / "m"
    for fmt, text, sample in [("native-csv", "a.bmp,0\nb.txt,1\n", "a.bmp"),
                              ("native-csv", "b.txt,1\n", "b.txt"),
                              ("outex-index", "a.pgm\0 0\n", "a.pgm\0")]:
        m.write_text(text)
        with pytest.raises(ManifestError, match=f":1: cannot resolve sample {re.escape(repr(sample))}"):
            load_manifest(m, tmp_path, fmt)


def test_load_manifest_rejects_duplicates_and_empty(tmp_path):
    touch_images(tmp_path, ["a.pgm"])
    m = tmp_path / "m.csv"
    m.write_text("a.pgm,0\na.pgm,1\n")
    with pytest.raises(ManifestError, match="duplicate"):
        load_manifest(m, tmp_path, "native-csv")
    empty = tmp_path / "empty.csv"
    empty.write_text("\n")
    with pytest.raises(ManifestError, match="empty"):
        load_manifest(empty, tmp_path, "native-csv")
