"""Number text: the ``"%.17g"`` writer of every CSV the package prints, and
the reader of one-value-per-line sample CSVs."""

from __future__ import annotations

import itertools
import operator
from functools import lru_cache

import numpy as np

from .specfun import _two_prod

# Values per block of the array writer (its temporaries take ~450 bytes a
# value, so a block holds ~3.5 MiB), and the fewest values it takes on:
# below that, its fixed cost per call exceeds one % formatting call.
_CSV_BLOCK = 1 << 13
_CSV_ARRAY_MIN = 512


@lru_cache(maxsize=None)
def _csv_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The writer's byte tables, built on its first call (not at import).

    groups: each 4-digit group 0000..9999 as one uint32 of its four ASCII
    digits, three ways: as is, with leading zeros blanked to NUL (the
    leading groups of an integer part; from _LEADING on) and with trailing
    zeros blanked (the last groups of a fraction; from _TRAILING on).  NUL
    bytes are dropped when a block is joined.

    head: 8 bytes per (sign, decimal exponent e in -4..16, leading digit d
    of the integer part): "-" for a negative value, "0." and -e-1 zeros
    before the digits of a value below 1, and d where the integer part has
    17 digits.

    point: the word before a fraction's last 16 digits: nothing for an
    empty fraction (index 0), its first digit d below 1 (1 + d; "0." is in
    the head) and ".d" from 1 up (11 + d).
    """
    digits = np.ascontiguousarray(48 + np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1).T)
    zero = digits == 48
    lead = np.logical_and.accumulate(zero, axis=1)
    trail = np.logical_and.accumulate(zero[:, ::-1], axis=1)[:, ::-1]
    groups = np.concatenate((digits, digits * ~lead, digits * ~trail))
    head = np.zeros((2, 21, 10, 8), np.uint8)
    head[1, :, :, 0] = ord("-")
    e = np.arange(-4, 17)
    head[:, e < 0, :, 1:3] = np.frombuffer(b"0.", np.uint8)
    head[:, :, :, 3:6] = np.where(np.arange(3) < -e[:, None] - 1, 48, 0)[:, None, :]
    head[:, :, 1:, 7] = 48 + np.arange(1, 10)
    point = np.zeros((21, 4), np.uint8)
    point[1:, 0] = np.concatenate((48 + np.arange(10), np.full(10, ord("."))))
    point[11:, 1] = 48 + np.arange(10)
    tables = (groups.view(np.uint32).ravel(), head.view(np.uint64).ravel(),
              point.view(np.uint32).ravel())
    for t in tables:
        t.setflags(write=False)  # shared by every call
    return tables


_LEADING, _TRAILING = 10000, 20000
_POW10 = 10.0 ** np.arange(24)  # exact doubles up to 1e22, then 1e23
_POW10_INT = 10 ** np.arange(19, dtype=np.int64)


def _digit_groups(n):
    """The four 4-digit groups of n < 10**16, most significant first."""
    hi = n // 10**8
    lo = n - hi * 10**8
    g0, g2 = hi // 10**4, lo // 10**4
    return g0, hi - g0 * 10**4, g2, lo - g2 * 10**4


def _digits17(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The digits of ``"%.17g" % a`` for each a in [1e-4, 1e16), for the
    writer and the reader: d = round(a * 10**p), ties to even, and p, with
    p = 16 - floor(log10 a) moved so that the exact product a * 10**p
    (Dekker's TwoProduct) lies in [10**16, 10**17)."""
    p = 16 - np.floor(np.log10(a)).astype(np.int64)
    hi, lo = _two_prod(a, _POW10.take(p))
    while True:
        up = (hi < 1e16) | ((hi == 1e16) & (lo < 0))
        down = (hi > 1e17) | ((hi == 1e17) & (lo >= 0))
        off = np.flatnonzero(up | down)
        if not off.size:
            break
        p[off] += np.where(up[off], 1, -1)
        hi[off], lo[off] = _two_prod(a[off], _POW10.take(p[off]))
    # hi >= 2**53 is an even integer, so hi + rint(lo) rounds the exact
    # product to an integer, ties to even.  It never carries to 10**17: no
    # double in [1e-4, 1e16) lies within 0.8 units of the 17th digit below
    # a power of ten.
    return hi.astype(np.int64) + np.rint(lo).astype(np.int64), p


def _csv_block(v: np.ndarray, sep: np.ndarray) -> bytes:
    """The text of values v, each followed by its separator byte in sep.

    Each value gets 12 uint32 words with NUL padding: 2 head words (sign,
    "0.000" or the leading digit), 4 for the integer part below 10**16, 1
    for the point and first fraction digit, 4 for the other 16 fraction
    digits and 1 for the separator.
    """
    groups, heads, points = _csv_tables()
    m = v.size
    a = np.abs(v)
    slow = np.flatnonzero(~((a >= 1e-4) & (a < 1e16)))
    a[slow] = 1.0
    d, p = _digits17(a)
    # |x| = d / 10**p: the integer part (0 below 1) and the fraction's
    # digits as a 17-digit integer, left-aligned.
    scale = _POW10_INT.take(np.minimum(p, 17))
    whole = d // scale
    frac = (d - whole * scale) * _POW10_INT.take(np.maximum(17 - p, 0))
    words = np.empty((12, m), np.uint32)
    top = whole // 10**16
    head = heads.take((21 * (v < 0) + 20 - p) * 10 + top)
    words[0:2] = head.view(np.uint32).reshape(m, 2).T
    blank = top == 0
    for k, g in enumerate(_digit_groups(whole - top * 10**16)):
        groups.take(g + _LEADING * blank, out=words[2 + k])
        blank &= g == 0
    top = frac // 10**16
    points.take(np.where(frac == 0, 0, 1 + top + 10 * (p <= 16)), out=words[6])
    digit_groups = _digit_groups(frac - top * 10**16)
    blank = np.ones(m, bool)
    for k in (3, 2, 1, 0):
        groups.take(digit_groups[k] + _TRAILING * blank, out=words[7 + k])
        blank &= digit_groups[k] == 0
    words[11] = sep
    cells = words.T.copy()
    if slow.size:
        # Zeros, subnormals, exponent forms, inf and nan: % formatting,
        # padded with spaces to 24 bytes (the longest %.17g text).
        text = ("%-24.17g" * slow.size % tuple(v[slow].tolist())).encode()
        rows = np.zeros((slow.size, 12), np.uint32)
        raw = rows.view(np.uint8)
        raw[:, :24] = np.frombuffer(text, np.uint8).reshape(-1, 24)
        raw[raw == 32] = 0
        rows[:, 11] = sep[slow]
        cells[slow] = rows
    return cells.tobytes().translate(None, b"\0")


def _csv_pieces(*cols):
    """The text of CSV rows of equal-length columns, one block at a time,
    byte for byte the text of ``"%.17g"`` (17 significant digits, so each
    double round-trips).

    Below _CSV_ARRAY_MIN values it is one % formatting call.  Otherwise
    ``_csv_block`` forms blocks of about _CSV_BLOCK values by array
    operations: a finite |x| in [1e-4, 1e16), whose text is positional, is
    scaled to D = round(|x| * 10**p) in [10**16, 10**17) with
    p = 16 - floor(log10|x|) in [1, 20], an exact power of ten, by Dekker's
    TwoProduct (``specfun._two_prod``); its digits come from a table of
    4-digit groups.  Zeros, subnormals, values printed in exponent form, inf
    and nan keep % formatting, one call per block.
    """
    k, n = len(cols), len(cols[0])
    if n * k < _CSV_ARRAY_MIN:
        yield (",".join(["%.17g"] * k) + "\n") * n % tuple(np.column_stack(cols).ravel().tolist())
        return
    rows = max(1, _CSV_BLOCK // k)
    sep = np.tile(np.array([44] * (k - 1) + [10], np.uint32), rows)
    for i in range(0, n, rows):
        # This block's rows, interleaved; a single column's slice is no copy.
        block = [c[i : i + rows] for c in cols]
        block = np.asarray(block[0] if k == 1 else np.column_stack(block).ravel(), dtype=float)
        yield _csv_block(block, sep[: block.size]).decode("ascii")


# Characters per block of the array reader; its temporaries take ~10 bytes
# a character.  It reads a line from the 24 bytes before its "\n" as three
# uint64 words, one character a byte: column c is byte c % 8 of word c // 8.
# Bytes k to k + 24 of _TAIL mask the last k columns.
_READ_BLOCK = 1 << 17
_TAIL = bytes(24) + b"\xff" * 24


def _compare17(y, D, p):
    """-1, 0 or 1 as ``"%.17g" % y``, y in [1e-4, 1e16), denotes a decimal
    below, equal to or above D / 10**p, D < 10**17: d / 10**q against it is
    d against D * 10**(q - p), which is below 10**16 <= d for q < p."""
    d, q = _digits17(y)
    s = np.clip(q - p, 0, 17)
    fits = D < _POW10_INT.take(17 - s)
    return np.where(q < p, 1, np.where(fits, np.sign(d - D * _POW10_INT.take(s)), -1))


def _float_lines(lines):
    """float() of each line, or None if one does not read as a finite
    number.  float() strips what str.strip() strips, and refuses a blank or
    a comment line.  Each line break of str.splitlines() is whitespace to
    it, so a line it reads holds them only where the line pass sees blank
    lines."""
    try:
        vals = np.fromiter(map(float, lines), float, len(lines))
    except ValueError:
        return None
    return vals if np.isfinite(vals).all() else None


def _read_block(block: str) -> np.ndarray | None:
    """The values of block, whole lines of text, or None for the line pass.

    A line ``-?digits(.digits)?`` (one run may be empty) of at most 24
    characters after its sign reads as D / 10**p, D < 10**17 the integer of
    its digits.  With D < 2**53 and p <= 22 one division rounds it
    correctly (Clinger, PLDI 1990).  Otherwise, within [1e-4, 1e16),
    float(D) / 10**p (two roundings off) or its neighbour toward D / 10**p
    is taken if the writer's kernel gives it that decimal's 17 digits: as
    17 digits round-trip, that double is the decimal correctly rounded.
    Every other line goes to ``_float_lines``.
    """
    if not block.isascii():
        return None
    buf = np.frombuffer(("\n" * 24 + block + "\n" * (not block.endswith("\n"))).encode(), np.uint8)
    ends = np.flatnonzero(buf[24:] == 10) + 24
    starts = np.concatenate(([24], ends[:-1] + 1))
    neg = buf.take(starts) == 45  # "-"; an empty line starts at its "\n"
    k = ends - starts - neg  # characters after the sign
    # Each line's 24 bytes as one item, then as words; the bytes before the
    # line, its sign too, read as "0".
    x = np.ndarray((buf.size - 23,), "V24", buf, 0, (1,))[ends - 24].view("<u8").reshape(-1, 3)
    x ^= np.uint64(0x3030303030303030)
    x &= np.ndarray((25,), "V24", _TAIL, 0, (1,))[np.minimum(k, 24)].view("<u8").reshape(-1, 3)
    # Per byte of x ^ "0" (< 0x80, so no carry between bytes): + 0x76 sets
    # the high bit unless it is a digit, and ^ 0x1E + 0x7F unless it is a
    # point.  A point counts 1 and any other non-digit 2; a line's sum of
    # counts, the top byte of their sum times 0x0101..., must be at most 1.
    pts = (x + np.uint64(0x7676767676767676)) & np.uint64(0x8080808080808080)
    other = pts & ((x ^ np.uint64(0x1E1E1E1E1E1E1E1E)) + np.uint64(0x7F7F7F7F7F7F7F7F))
    pts = (pts ^ other) >> 7
    other = (other >> 6) | pts
    counts = ((other[:, 0] + other[:, 1] + other[:, 2]) * np.uint64(0x0101010101010101)) >> 56
    ok = (counts <= 1) & (k > counts) & (k <= 24)
    # Each word's eight digits, the point read as 0, as one number: three
    # multiply-shift steps join neighbouring groups (Lemire, Softw. Pract.
    # Exper. 51, 2021).
    x = ((x ^ pts * 0x1E) * 2561) >> 8  # 10 * 2**8 + 1
    x = ((x & 0x00FF00FF00FF00FF) * 6553601) >> 16  # 100 * 2**16 + 1
    x = ((x & 0x0000FFFF0000FFFF) * 42949672960001) >> 32  # 10**4 * 2**32 + 1
    # The point's column + 1: word w with its byte j set to 1, times a word
    # whose byte i is 8w + 8 - i, has 8w + j + 1 in its top byte.
    q = (pts[:, 0] * 0x0102030405060708 + pts[:, 1] * 0x090A0B0C0D0E0F10
         + pts[:, 2] * 0x1112131415161718) >> 56
    q = np.minimum(q, 24)
    p = np.where(q > 0, 24 - q, 0).astype(np.intp)
    # N, the digits and the point's 0, is below 10**18; D drops that 0.
    ok &= x[:, 0] < 100
    N = ((x[:, 0] * 10**8 + x[:, 1]) * 10**8 + x[:, 2]).astype(np.int64)
    right = N % _POW10_INT.take(np.minimum(p, 18))
    D = np.where(q > 0, (N - right) // 10 + right, N)
    del x, pts, other, N, right
    ok &= D < 10**17
    vals = D.astype(float) / _POW10.take(p)
    taken = ok & (D < 2**53) & (p <= 22)
    check = np.flatnonzero(ok & ~taken & (vals >= 1e-4) & (vals < 1e16))
    y, Dc, pc = vals[check], D[check], p[check]
    side = _compare17(y, Dc, pc)
    step = np.flatnonzero(side)
    y2 = np.nextafter(y[step], np.where(side[step] < 0, np.inf, -np.inf))
    inside = (y2 >= 1e-4) & (y2 < 1e16)
    hit = inside & (_compare17(np.where(inside, y2, 1.0), Dc[step], pc[step]) == 0)
    vals[check[step[hit]]] = y2[hit]
    side[step[hit]] = 0
    taken[check[side == 0]] = True
    np.negative(vals, out=vals, where=neg)
    rest = np.flatnonzero(~taken)
    if rest.size:
        more = _float_lines([block[a:b] for a, b in zip((starts[rest] - 24).tolist(),
                                                        (ends[rest] - 24).tolist())])
        if more is None:
            return None
        vals[rest] = more
    return vals


def _value_blocks(blocks):
    """The blocks from the first line that is not a leading comment line,
    which starts with "#" and is one line to str.splitlines()."""
    blocks = iter(blocks)
    for block in blocks:
        at = 0
        while block.startswith("#", at):
            end = block.find("\n", at) + 1 or len(block)
            if len(block[at:end].removesuffix("\n").splitlines()) != 1:
                break
            at = end
        if at < len(block):
            return itertools.chain([block[at:]], blocks)
    return ()


def _text_blocks(text):
    """text in blocks of about _READ_BLOCK characters that each end a line."""
    at = 0
    while at < len(text):
        end = text.find("\n", at + _READ_BLOCK) + 1 or len(text)
        yield text[at:end]
        at = end


def _file_blocks(fh):
    """fh's text from where it stands, in blocks that each end a line."""
    for block in iter(lambda: fh.read(_READ_BLOCK), ""):
        yield block if block.endswith("\n") else block + fh.readline()


def parse_samples_csv(source):
    """Values from one-per-line CSV; # comments ignored.  Raises ValueError
    carrying the 1-based line number on malformed or non-finite content.

    ``source`` is the CSV text or an open text file, read from where it
    stands.  A seekable file is read in blocks of about _READ_BLOCK
    characters that each end a line, so its whole text is never held; any
    other file is read whole first.  Past the leading comment lines,
    ``_read_block`` reads each block into one array.  On any failure, a
    decode error too, the file is read again as one text, so messages and
    line numbers are those of the text.
    """
    if isinstance(source, str) or not source.seekable():
        text = source if isinstance(source, str) else source.read()
        blocks = _text_blocks(text)
    else:
        text, at = None, source.tell()
        blocks = _file_blocks(source)
    out = np.empty(0)
    try:
        for block in _value_blocks(blocks):
            vals = _read_block(block)
            if vals is None:
                break
            # One array, grown in place: no view of it outlives this loop.
            n = out.size
            out.resize(n + vals.size, refcheck=False)
            out[n:] = vals
        else:
            return out
    except UnicodeDecodeError:
        pass
    if text is None:
        source.seek(at)
        text = source.read()
    # Anything else (blank or inner comment lines, other line breaks, a
    # malformed or non-finite value, a decode error) takes one more pass
    # over the value lines.  The pass stops at the first malformed line, so
    # a malformed line anywhere is reported before a non-finite value.
    lines = [s for s in map(str.strip, text.splitlines()) if s and not s.startswith("#")]
    rest = iter(lines)
    try:
        arr = np.fromiter(map(float, rest), dtype=float, count=len(lines))
    except ValueError:
        k = len(lines) - operator.length_hint(rest) - 1
        error = "cannot parse {!r} as a number"
    else:
        finite = np.isfinite(arr)
        if finite.all():
            return arr
        k = int(finite.argmin())
        error = "non-finite value {!r}"
    # The line number of value line k, counted only on failure.
    numbers = (i for i, s in enumerate(map(str.strip, text.splitlines()), start=1)
               if s and not s.startswith("#"))
    i = next(itertools.islice(numbers, k, None))
    raise ValueError(f"line {i}: " + error.format(lines[k]))
