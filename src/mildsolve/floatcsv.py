"""Float tables as CSV bytes, exactly as ``csv.writer`` writes them.

`write_csv` writes a header and a 2-D float table byte for byte as
``csv.writer(fh).writerow(header)`` then ``.writerows(table.tolist())``
would: every value is Python's shortest round-trip ``repr``, values are
separated by ``,`` and each row ends in ``\\r\\n``.

``repr`` costs one bignum conversion per value (David Gay's dtoa, slower the
larger the exponent).  Here the shortest digits of a chunk of values come at
once from Schubfach (R. Giulietti, "The Schubfach way to render doubles",
2020; the variant of the JDK's ``DoubleToDecimal``) in ``uint64``
arithmetic, each 64 x 64-bit high product built from 32-bit limbs.  A layout
table then turns (sign, row end, digit count, exponent) into the positions
of the value's bytes, and one gather lays out the chunk.  Subnormals take
their digits from ``repr``: Schubfach keeps two digits where one would do
there (4.9e-324 for Python's 5e-324).  The tables are built on first use.
"""

from __future__ import annotations

import csv
import functools
import io

import numpy as np

# Values formatted at once: every temporary stays a few hundred kB.
_CHUNK = 1024

_MASK32 = (1 << 32) - 1
_MASK52 = (1 << 52) - 1
_MASK63 = (1 << 63) - 1
_K_MIN, _K_MAX = -324, 292  # decimal scales 10^k of the normal doubles
_E_MIN, _E_MAX = -324, 308  # exponents of the shortest decimals
_SMALLEST_NORMAL = np.finfo(np.float64).smallest_normal

# The source bytes of one value, eight 32-bit words: "000" and the 17 digits,
# the exponent's sign and three digits, "-.0e" and ",\r\n\0".
_DIGIT, _EXP_SIGN, _EXP, _MINUS, _DOT, _ZERO, _E = 3, 20, 21, 24, 25, 26, 27
_COMMA, _CRLF, _NUL = 28, 29, 31
_SOURCE = 32
# Word indices of the exponents and of the two constant words.
_EXP_WORDS = 10_000 - _E_MIN
_CONSTANT_WORDS = (10_000 + _E_MAX - _E_MIN + 1, 10_000 + _E_MAX - _E_MIN + 2)

# Layout key = mode + 22 (nd - 1) + _ROW_END end + _NEGATIVE neg, where mode
# is E + 4 for positional notation (-4 <= E < 16) and 20 or 21 for a two- or
# a three-digit exponent.
_MODES, _ROW_END, _NEGATIVE = 22, 22 * 17, 22 * 17 * 2
_WIDTH = 26  # the longest value: "-d.dddddddddddddddde-XXX\r\n"


# floor(log10(2^e)), floor(log10(3/4 2^e)) and floor(log2(10^e)) in integer
# arithmetic (on ints or int64 arrays), exact over the exponents of doubles.
def _flog10pow2(e):
    return (e * 661_971_961_083) >> 41


def _flog10_three_quarters_pow2(e):
    return (e * 661_971_961_083 - 274_743_187_321) >> 41


def _flog2pow10(e):
    return (e * 913_124_641_741) >> 38


@functools.cache
def _g_table() -> np.ndarray:
    """g(k) = floor(10^-k 2^-r) + 1 with 2^125 <= g < 2^126, for k in
    [-324, 292], from exact integers.  Split as g = g1 2^63 + g0, the rows
    are g1 and the 32-bit limbs of g1 and of g0 (high limb first)."""
    table = np.empty((5, _K_MAX - _K_MIN + 1), dtype=np.uint64)
    for k in range(_K_MIN, _K_MAX + 1):
        r = _flog2pow10(-k) - 125
        g = (10 ** max(-k, 0) << max(-r, 0)) // (10 ** max(k, 0) << max(r, 0)) + 1
        g1, g0 = g >> 63, g & _MASK63
        table[:, k - _K_MIN] = g1, g1 >> 32, g1 & _MASK32, g0 >> 32, g0 & _MASK32
    return table


def _layout(nd: int, mode: int) -> bytes:
    """Source positions of the bytes of an unsigned value with nd digits."""
    digits = [_DIGIT + i for i in range(nd)]
    e = mode - 4
    if mode >= 20:
        out = digits[:1] + ([_DOT] + digits[1:] if nd > 1 else [])
        out += [_E, _EXP_SIGN] + [_EXP + i for i in range(21 - mode, 3)]
    elif e < 0:
        out = [_ZERO, _DOT] + [_ZERO] * (-e - 1) + digits
    elif nd <= e + 1:
        out = digits + [_ZERO] * (e + 1 - nd) + [_DOT, _ZERO]
    else:
        out = digits[:e + 1] + [_DOT] + digits[e + 1:]
    return bytes(out)


@functools.cache
def _text_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(words, modes, positions).  `words` are the source words: the groups
    "0000" to "9999", the exponents "-324" to "+308", "-.0e" and ",\\r\\n\\0".
    `modes[E - _E_MIN]` is the layout key of exponent E less 22 (nd = 0).
    `positions[key]` are the source positions of a value's bytes, padded
    with the NUL byte."""
    groups, i = np.empty((10_000, 4), dtype=np.uint8), np.arange(10_000)
    for j, place in enumerate((1000, 100, 10, 1)):
        groups[:, j] = i // place % 10 + ord("0")
    exps = b"".join(b"%c%03d" % (b"+-"[e < 0], abs(e)) for e in range(_E_MIN, _E_MAX + 1))
    words = np.frombuffer(groups.tobytes() + exps + b"-.0e,\r\n\0", dtype=np.uint32)
    e = np.arange(_E_MIN, _E_MAX + 1)
    modes = np.where((e >= -4) & (e < 16), e + 4, 20 + (np.abs(e) >= 100)) - _MODES
    # row key = mode + 22 (nd - 1) + _ROW_END end + _NEGATIVE neg
    layouts = [_layout(nd, mode) for nd in range(1, 18) for mode in range(_MODES)]
    rows = b"".join((sign + layout + end).ljust(_WIDTH, bytes([_NUL]))
                    for sign in (b"", bytes([_MINUS]))
                    for end in (bytes([_COMMA]), bytes([_CRLF, _CRLF + 1]))
                    for layout in layouts)
    positions = np.frombuffer(rows, dtype=np.uint8).reshape(-1, _WIDTH)
    return words, modes, positions


def _mulhi(a_hi, a_lo, b_hi, b_lo):
    """High 64 bits of the 128-bit product of a and b, given as 32-bit limbs."""
    mid = a_lo * b_lo
    mid >>= 32
    high = a_hi * b_hi
    for cross in (a_hi * b_lo, a_lo * b_hi):
        mid += cross & _MASK32
        cross >>= 32
        high += cross
    mid >>= 32
    high += mid
    return high


# Offsets of 4 c to its lower and upper rounding boundary (mod 2^64), in quarter ulps.
_BOUNDARIES = np.array([[0], [2 ** 64 - 2], [2]], dtype=np.uint64)
# Round s up to t = s + 1, by the low three bits of 4v = 4s + (vb & 3):
# above the midpoint, or on it with s odd (ties to even).
_ROUND_UP = np.array([0, 0, 0, 1, 0, 0, 1, 1], dtype=bool)


def _shortest(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(digits, E), int64, for finite x: the shortest round-trip decimal of
    |x| is d_1.d_2...d_17 10^E, `digits` the integer d_1...d_17 (0 for 0)."""
    magnitude = np.abs(x)
    tiny = magnitude <= _SMALLEST_NORMAL
    has_tiny = tiny.any()
    if has_tiny:  # zeros, subnormals and 2^-1022: digits set below
        magnitude[tiny] = 1.0
    bits = magnitude.view(np.uint64)
    fraction = bits & _MASK52
    q = (bits >> 52).view(np.int64) - 1075  # |x| = c 2^q, c = 2^52 + fraction
    # Irregular spacing (c = 2^52 above 2^-1022): the lower neighbour is half as far.
    irregular = fraction == 0
    k = np.where(irregular, _flog10_three_quarters_pow2(q), _flog10pow2(q))
    h = (q + _flog2pow10(-k) + 2).view(np.uint64)
    g1, g1_hi, g1_lo, g0_hi, g0_lo = _g_table()[:, k - _K_MIN]

    # 4 |x| = cb 2^q and its rounding boundaries, times g(k) 2^(h - 127),
    # rounded to odd: vb, vbl, vbr in quarters of 10^k (Giulietti, 9.9).
    cp = ((fraction | (1 << 52)) << 2) + _BOUNDARIES
    cp[1] += irregular
    cp <<= h
    cp_hi, cp_lo = cp >> 32, cp & _MASK32
    z = g1 * cp
    z >>= 1
    z += _mulhi(g0_hi, g0_lo, cp_hi, cp_lo)
    v = _mulhi(g1_hi, g1_lo, cp_hi, cp_lo)
    v += z >> 63
    z &= _MASK63
    z += _MASK63
    z >>= 63
    v |= z
    vb, vbl, vbr = v.view(np.int64)

    # A candidate y 10^k rounds to x when lower <= 4 y <= upper; an odd c
    # leaves the boundaries out.
    odd = (fraction & 1).view(np.int64)
    lower, upper = vbl + odd, vbr - odd
    s4 = vb & ~3  # 4 s, s = floor(v / 10^k)
    # One digit fewer: the multiple of 10^(k+1) in range, if exactly one is.
    sp40 = s4 // 40 * 40
    upin, wpin = lower <= sp40, sp40 + 40 <= upper
    # Otherwise s or s + 1, whichever is in range or, if both are, nearer.
    uin, win = lower <= s4, s4 + 4 <= upper
    up = win & (~uin | _ROUND_UP[vb & 7])
    d = np.where(upin != wpin, sp40 + 40 * wpin, s4 + 4 * up) >> 2

    # 10^15 < 2^52 <= d < 10^17: left-align to 17 digits.
    short = d < 10 ** 16
    digits = np.where(short, d * 10, d)
    exponent = k + 16 - short
    if has_tiny:
        digits[tiny], exponent[tiny] = 0, 0
        rest = np.flatnonzero(tiny & (x != 0))  # from repr, in one list pass
        parts = [repr(v).split("e") for v in np.abs(x[rest]).tolist()]
        digits[rest] = [int(m.replace(".", "").ljust(17, "0")) for m, _ in parts]
        exponent[rest] = [int(e) for _, e in parts]
    return digits, exponent


def _format(x: np.ndarray, row_end: np.ndarray) -> np.ndarray:
    """The CSV bytes (uint8) of the finite values x, each followed by "," or,
    where row_end is `_ROW_END` (not 0), by "\\r\\n"."""
    words, modes, positions = _text_tables()
    digits, exponent = _shortest(x)
    # source words: digit groups d_1, d_2-5, d_6-9, d_10-13, d_14-17, the
    # exponent, the two constant words
    index = np.empty((x.size, 8), dtype=np.intp)
    high, low = np.divmod(digits, 10 ** 8)
    np.floor_divide(high, 10 ** 8, out=index[:, 0])
    high -= index[:, 0] * 10 ** 8
    np.floor_divide(high, 10 ** 4, out=index[:, 1])
    np.subtract(high, index[:, 1] * 10 ** 4, out=index[:, 2])
    np.floor_divide(low, 10 ** 4, out=index[:, 3])
    np.subtract(low, index[:, 3] * 10 ** 4, out=index[:, 4])
    np.add(exponent, _EXP_WORDS, out=index[:, 5])
    index[:, 6:] = _CONSTANT_WORDS
    source = words[index].view(np.uint8)
    del index

    significant = source[:, _DIGIT:_DIGIT + 17] != ord("0")
    significant[:, 0] = True  # a zero prints one digit
    trailing = np.argmax(significant[:, ::-1], axis=1)
    key = modes[exponent - _E_MIN] + _MODES * (17 - trailing) + row_end
    key += _NEGATIVE * np.signbit(x)
    fixed = source.ravel()[positions[key] + np.arange(0, x.size * _SOURCE, _SOURCE)[:, None]]
    return fixed[fixed != 0]


def write_csv(path, header: list, table) -> int:
    """Write `header` and the rows of the 2-D float `table` to `path` as
    ``csv.writer`` writes them; return the number of bytes written.

    Raises ValueError, before opening the file, if a value is not finite.
    """
    table = np.asarray(table, dtype=np.float64)
    if table.ndim != 2 or table.shape[1] == 0:
        raise ValueError(f"expected a 2-D table with columns, got shape {table.shape}")
    if not np.isfinite(table).all():
        raise ValueError("cannot write a non-finite value")
    text = io.StringIO()
    csv.writer(text).writerow(header)
    rows, cols = table.shape
    step = max(1, _CHUNK // cols)
    row_end = np.zeros((step, cols), dtype=np.intp)
    row_end[:, -1] = _ROW_END
    with open(path, "wb") as fh:
        written = fh.write(text.getvalue().encode())
        for start in range(0, rows, step):
            block = table[start:start + step]
            written += fh.write(_format(block.ravel(), row_end[:len(block)].ravel()))
    return written
