"""Array-shaped ``repr`` of float64 values, byte for byte.

CPython writes a float as the shortest decimal string that reads back as
the same float, and of those the one nearest to it (Gay's dtoa, mode 0).
The string is in fixed notation when its decimal point falls within the
first 16 places, which holds for 1e-4 <= |x| < 1e16, and in exponent
notation otherwise. :func:`repr_rows` yields, per row of a 2-d array, the
string ``",".join(map(repr, row))``, formatting blocks of values with numpy.

The digits follow the certify-or-fall-back design of Grisu3 (Loitsch,
"Printing floating-point numbers quickly and accurately with integers",
PLDI 2010). One product in extended precision scales |x| to 17 significant
digits, ``t = |x| * 10**s`` with ``t`` in [1e16, 1e17). ``10**s`` is exact,
and a 64-bit significand puts ``t`` within 2**-8 of its exact value. The
decimals that read back as ``x`` are those within ``u``, half an ulp, of
``x``: at this scale, the integers in [t - u, t + u], where
0.55 < u < 11.1. The shortest is the one with the most trailing zeros, and
of those the nearest to ``t``. As the interval is narrower than 100, it
holds at most one multiple of 100, which wins if present; otherwise the
nearest multiple of 10 wins if it is inside; otherwise the nearest integer
does. So only ``n % 10`` and ``n % 100`` of ``n = round(t)`` are needed.

A value takes ``repr`` itself when the kernel cannot certify it: a decision
within 2**-7 of its boundary (a tie, or an interval edge), a string in
exponent notation, 0, a power of two (whose interval is lopsided), nan and
inf. Every value does so where ``numpy.longdouble`` has fewer than 63
significand bits, as ``t`` is then not close enough.
"""

from __future__ import annotations

import functools

import numpy as np

# Values per formatted block: enough that numpy's cost per call is small,
# few enough that a block's scratch arrays stay in cache.
BLOCK_VALUES = 8192

# Each value is laid out in four little-endian 64-bit words, 32 bytes, and
# the zero bytes are dropped: the sign and a "0.000" prefix in the first
# word; the digits with the point inserted in the next three; the separator
# in the last byte. A value that takes repr is written from byte 0; none is
# longer than 24 bytes ('-1.7976931348623157e+308').
_ROW_WORDS = 4
_REPR_BYTES = 24
_ZEROS = 0x3030303030303030  # the character '0' in every byte

# Largest distance of a certified decision from its boundary that the error
# of t (at most 2**-8) could cross.
_MARGIN = 2.0 ** -7


def _words(data: bytes, count: int) -> np.ndarray:
    """``data``, zero-padded to ``count`` little-endian 64-bit words."""
    return np.frombuffer(data.ljust(8 * count, b"\0"), dtype="<u8")


def _significand_bits() -> int:
    """Significand bits of ``longdouble``: 63 for x87 extended precision,
    52 where it is float64."""
    return np.finfo(np.longdouble).nmant


@functools.lru_cache(maxsize=None)
def _tables(bits: int):
    """The kernel's lookup tables, or None where ``longdouble`` has too few
    significand ``bits`` for it.

    ``pow10[s]`` is ``10**s``, exact in float64. ``prefix[point + 3]`` is
    the first word for a decimal point at ``point`` <= 0. The others hold
    a three-word field per column: ``keep[:, c]`` masks its first ``c``
    bytes, and ``dot[:, 2 * point + whole]`` holds the point after
    ``point`` digits, then a '0' if the value is whole.
    """
    if bits < 63:
        return None
    pow10 = np.array([float(10 ** s) for s in range(21)])
    keep = np.stack([_words(b"\xff" * c, 3) for c in range(18)], axis=1)
    prefix = np.array([_words(b"\0" + b"0." + b"0" * -point, 1)[0]
                       if point <= 0 else 0 for point in range(-3, 17)],
                      dtype=np.uint64)
    dot = np.stack([_words(b"\0" * point + end, 3) if point else _words(b"", 3)
                    for point in range(17) for end in (b".", b".0")], axis=1)
    tables = pow10, keep, prefix, dot
    for table in tables:  # shared by every caller through the cache
        table.flags.writeable = False
    return tables


def _eight_digits(v: np.ndarray) -> np.ndarray:
    """The 8 decimal digits of each ``v < 10**8`` (uint64), one per byte of
    a little-endian word, first digit first."""
    hi = v // 10000
    v = hi | (v - hi * 10000) << 32           # two 4-digit halves
    hi = (v * 5243 >> 19) & 0x7F0000007F       # each // 100
    v = hi | (v - hi * 100) << 16             # four 2-digit quarters
    hi = (v * 103 >> 10) & 0x000F000F000F000F  # each // 10
    return hi | (v - hi * 10) << 8


def _certify(x: np.ndarray, words: np.ndarray, tables) -> np.ndarray:
    """Fill each row of ``words`` with the fixed-notation text of its value
    of ``x``, and return which values the kernel certifies; the rows of the
    others hold garbage."""
    pow10, keep, prefix, dot = tables
    a = np.abs(x)
    e10 = np.floor(np.log10(a)).astype(np.intp).clip(-4, 15)
    scale = pow10[16 - e10]
    t = a.astype(np.longdouble) * scale
    u = 0.5 * np.spacing(a) * scale  # exact: a power of two times 10**s
    # t is out of range for |x| outside [1e-4, 1e16), 0, nan and inf.
    ok = (t >= 1e16) & (t < 1e17) & (x.view(np.uint64) << 12 != 0)

    # t = n + f exactly in longdouble, with |f| <= 1/2.
    n_ld = np.rint(t)
    f = (t - n_ld).astype(np.float64)
    n = n_ld.astype(np.int64)
    r10 = n % 10
    r100 = n % 100
    o10 = r10 + f    # t's offset above the multiple of 10 at or below n
    o100 = r100 + f
    d10 = np.minimum(np.abs(o10), 10 - o10)
    d100 = np.minimum(np.abs(o100), 100 - o100)
    in100 = d100 < u
    in10 = d10 < u
    unsure = np.where(in10, np.abs(o10 - 5) <= _MARGIN,
                      np.abs(np.abs(f) - 0.5) <= _MARGIN)
    unsure |= np.abs(d10 - u) <= _MARGIN
    unsure &= ~in100
    unsure |= np.abs(d100 - u) <= _MARGIN
    n += np.where(in100, (o100 > 50) * 100 - r100,
                  np.where(in10, (o10 > 5) * 10 - r10, 0))
    ok &= ~unsure & (n < 10 ** 17)

    # The 17 digits in three words, 8, 8 and 1, one row of words each.
    n = n.astype(np.uint64)
    head = n // 10
    first = head // 10 ** 8
    digits = np.stack([_eight_digits(first),
                       _eight_digits(head - first * 10 ** 8),
                       n - head * 10])
    # Bytes up to the last nonzero digit of each word.
    used = (np.frexp(digits[:2].astype(np.float64))[1] + 7) >> 3
    ndigits = np.where(digits[2] != 0, 17,
                       np.where(used[1] > 0, 8 + used[1], used[0]))

    # Digits before the point as they are; those after it, up to the last
    # nonzero one, one byte later, to make room for the point.
    point = e10 + 1
    before = np.maximum(point, 0)
    chars = digits + _ZEROS
    kept = keep.take(before, axis=1)
    after = chars & keep.take(ndigits, axis=1) & ~kept
    field = chars & kept | dot.take(2 * before + (point >= ndigits), axis=1)
    field[0] |= after[0] << 8
    field[1:] |= after[1:] << 8 | after[:-1] >> 56
    words[:, 0] = prefix[point + 3] | (x < 0).astype(np.uint64) * ord("-")
    words[:, 1:] = field.T
    return ok


def _format_block(x: np.ndarray, tables, n_columns: int) -> str:
    """The texts of ``x``, a block of rows of ``n_columns`` values each,
    with ',' after each value and '\\n' after each row."""
    words = np.zeros((x.size, _ROW_WORDS), dtype="<u8")
    if tables is None:
        ok = np.zeros(x.size, dtype=bool)
    else:
        with np.errstate(all="ignore"):
            ok = _certify(x, words, tables)
    text = words.view(np.uint8)
    fallback = np.flatnonzero(~ok)
    if fallback.size:
        reprs = np.array([repr(v) for v in x[fallback].tolist()],
                         dtype=f"S{_REPR_BYTES}")
        text[fallback] = 0
        text[fallback, :_REPR_BYTES] = reprs.view(np.uint8).reshape(
            -1, _REPR_BYTES)
    text[:, -1] = ord(",")
    text[n_columns - 1::n_columns, -1] = ord("\n")
    return text.tobytes().translate(None, b"\0").decode("ascii")


def repr_rows(rows):
    """Yield ``",".join(map(repr, row))`` for each row of the 2-d array
    ``rows``, as float64."""
    rows = np.ascontiguousarray(rows, dtype=np.float64)
    n_rows, n_columns = rows.shape
    if not n_columns:
        yield from [""] * n_rows
        return
    tables = _tables(_significand_bits())
    step = max(1, BLOCK_VALUES // n_columns)
    for start in range(0, n_rows, step):
        block = rows[start:start + step].ravel()
        yield from _format_block(block, tables, n_columns).split("\n")[:-1]
