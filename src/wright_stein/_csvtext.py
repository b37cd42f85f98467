"""Number text: the ``"%.17g"`` writer of every CSV the package prints, and
the reader of one-value-per-line sample CSVs."""

from __future__ import annotations

import io
import itertools
import operator
import warnings
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
_POW10 = 10.0 ** np.arange(22)  # exact doubles up to 1e21
_POW10_INT = 10 ** np.arange(18, dtype=np.int64)


def _digit_groups(n):
    """The four 4-digit groups of n < 10**16, most significant first."""
    hi = n // 10**8
    lo = n - hi * 10**8
    g0, g2 = hi // 10**4, lo // 10**4
    return g0, hi - g0 * 10**4, g2, lo - g2 * 10**4


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
    # p = 16 - floor(log10 a), then each a * 10**p is moved into
    # [10**16, 10**17), judged on the exact product.
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
    d = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
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
    out = cells.view(np.uint8).ravel()
    return np.compress(out != 0, out).tobytes()


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


def _column(fh):
    """The values of a file as `sample` writes it, read by numpy from fh's
    position: leading comment lines (that start with "#" and are one line
    to splitlines() too), then a finite number on each line.  Anything else
    gives None or numpy's ValueError."""
    at, head = fh.tell(), 0
    for line in iter(fh.readline, ""):
        if not line.startswith("#") or len(line.removesuffix("\n").splitlines()) != 1:
            break
        head += 1
    fh.seek(at)
    # comments=None: "1.5 # c" is not a number.  A line "1,2" reads as two
    # columns, so it is refused by the shape.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # a file with no values
        arr = np.loadtxt(fh, delimiter=",", comments=None, skiprows=head, ndmin=2)
    return arr.ravel() if arr.shape[1] == 1 and np.isfinite(arr).all() else None


def parse_samples_csv(source):
    """Values from one-per-line CSV; # comments ignored.  Raises ValueError
    carrying the 1-based line number on malformed or non-finite content.

    ``source`` is the CSV text or an open text file, read from where it
    stands.  numpy's reader reads a seekable file line by line, so its
    whole text is never held; any other file is read whole first.  Text
    goes to the reader as a text stream over its UTF-8 bytes, a second copy
    of one byte per ASCII character.  On any failure, a decode error too,
    the file is read again as one text, so messages and line numbers are
    those of the text.
    """
    if isinstance(source, str) or not source.seekable():
        text = source if isinstance(source, str) else source.read()
    else:
        text, at = None, source.tell()
    try:
        arr = _column(source if text is None else io.TextIOWrapper(
            io.BytesIO(text.encode()), encoding="utf-8", newline="\n"))
    except ValueError:  # UnicodeError is one
        arr = None
    if arr is not None:
        return arr
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
