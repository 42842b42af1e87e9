"""``sep.join(map(float.__repr__, values))`` for a float64 array, in numpy.

CPython's ``repr`` of a float is the shortest decimal that reads back as
the same double, the closest such decimal to it when there are several,
laid out in fixed notation when the decimal point falls between 4 zeros
after it and 16 digits before it, and as ``d.ddde±XX`` otherwise.  The
kernel computes the same text for a whole array in three steps:

1. Digits: Schubfach's shortest-digit selection (R. Giulietti, "The
   Schubfach way to render doubles", 2020; the digits are those of Ryu,
   U. Adams, PLDI 2018) on uint64 lanes.  Its 126-bit powers of ten are
   built from Python integers at import, and its products with the
   61-bit scaled significands run on 31-bit limbs.
2. Layout: each float becomes one fixed-width uint8 row, gathered from its
   digits, sign and exponent by the template of its notation and decimal
   point, with the separator appended; NUL bytes pad the row and blank the
   digits past the last one shown.
3. Compaction: one ``bytes.translate`` deletes the NUL bytes.

Only finite values are formatted; ``TruncatedSignature`` refuses the others.
"""

from __future__ import annotations

import numpy as np

_U = np.uint64

# Powers of ten 10**e, e in [_E_MIN, _E_MAX], as g = floor(10**e / 2**r) + 1
# with r chosen so that 2**125 <= g - 1 < 2**126 (Schubfach's g(e)).
_E_MIN, _E_MAX = -292, 324
_MASK31 = (1 << 31) - 1


def _flog10pow2(q):
    """floor(log10(2**q)), exact for |q| <= 1500."""
    return (q * 1262611) >> 22


def _flog10_three_quarters_pow2(q):
    """floor(log10(3/4 * 2**q)), exact for |q| <= 1500."""
    return (q * 1262611 - 524031) >> 22


def _flog2pow10(e):
    """floor(log2(10**e)), exact for |e| <= 1233."""
    return (e * 1741647) >> 19


def _pow10_limbs() -> list[np.ndarray]:
    """g(e) for every e in [_E_MIN, _E_MAX], as five arrays of base-2**31
    limbs, low first."""
    gs, p = [], 10
    for e in range(-1, _E_MIN - 1, -1):
        gs.append((1 << 125 - _flog2pow10(e)) // p + 1)
        p *= 10
    gs.reverse()
    p = 1
    for e in range(_E_MAX + 1):
        shift = 125 - _flog2pow10(e)
        gs.append((p << shift if shift >= 0 else p >> -shift) + 1)
        p *= 10
    words = np.frombuffer(b"".join(g.to_bytes(16, "little") for g in gs),
                          dtype="<u8").astype(_U)
    lo, hi, m = words[0::2], words[1::2], _U(_MASK31)
    return [lo & m, lo >> _U(31) & m, (lo >> _U(62) | hi << _U(2)) & m,
            hi >> _U(29) & m, hi >> _U(60)]


def _exponent_rows():
    """Per (irregular spacing, biased exponent) row: the decimal exponent k,
    the shift h of Schubfach's products and the row of g(-k) in _G."""
    bq = np.arange(2048)
    q = np.where(bq == 0, -1074, bq - 1075)
    k = _flog10pow2(q)
    k = np.concatenate([k, np.where(bq > 1, _flog10_three_quarters_pow2(q), k)])
    q = np.concatenate([q, q])
    h = q + _flog2pow10(-k) + 2                 # in [2, 5]
    return k.astype(np.int16), h.astype(_U), (-k - _E_MIN).astype(np.int16)


_G = _pow10_limbs()
_K, _H, _G_ROW = _exponent_rows()
_POW10 = 10 ** np.arange(18, dtype=_U)
_M31 = _U(_MASK31)
# Subtracting b_i < 2**37 from column i, borrow 2**37 from column i + 1
# (2**6 there), so that every column below the top stays non-negative.
_BORROW = [_U(1 << 37)] + [_U((1 << 37) - (1 << 6))] * 4 + [_U(-(1 << 6) % (1 << 64))]


def _round_to_odd(cols):
    """Schubfach's round-to-odd value of the product P held in unreduced
    base-2**31 columns, which it overwrites: floor(P / 2**127), with its
    lowest bit set when P mod 2**127 reaches 2**64."""
    c0, c1, c2, c3, c4, c5 = cols
    carry = c0 >> _U(31)
    for col in cols[1:5]:
        col += carry
        np.right_shift(col, _U(31), out=carry)
    c5 += carry
    np.right_shift(c2, _U(2), out=carry)        # bits 64..126 decide the
    carry &= _U(_MASK31 >> 2)                   # lowest bit
    c3 &= _M31
    carry |= c3
    np.bitwise_and(c4, _U(7), out=c0)
    carry |= c0
    np.minimum(carry, _U(1), out=carry)
    c4 &= _M31
    c4 >>= _U(3)
    c5 <<= _U(28)
    c5 |= c4
    c5 |= carry
    return c5


def _shortest(bits: np.ndarray):
    """Shortest round-trip digits of positive finite doubles given as bits:
    returns (D, k) with the closest shortest decimal equal to D * 10**k
    (D may carry trailing zeros).

    Schubfach compares v's decimal candidates with the rounding interval
    [v - ulp/2, v + ulp/2] (the lower half-ulp is ulp/4 at a power of two),
    all three scaled by 4 * 10**-k and rounded to odd: vbl, vb and vbr.
    They are g * cp / 2**127 for cp = 4c * 2**h and its two neighbours, so
    the product g * cp is formed once in base-2**31 columns (products of
    31-bit limbs stay below 2**62) and the neighbours add or subtract the
    limbs of g shifted by log2 of the half-ulp.  Each array holds n lanes:
    larger temporaries cost more in allocation than they save in calls.
    """
    bq = (bits >> _U(52)).astype(np.intp)
    t = bits & _U((1 << 52) - 1)
    irregular = (t == 0) & (bq > 1)
    row = bq + 2048 * irregular
    c = t | (bq != 0).astype(_U) << _U(52)
    h = _H[row]
    cp = c << h + _U(2)
    c0, c1 = cp & _M31, cp >> _U(31)
    g_row = _G_ROW[row]
    g = [limb[g_row] for limb in _G]
    cols = [gi * c0 for gi in g] + [g[4] * c1]
    for col, gi in zip(cols[1:5], g):
        col += gi * c1
    h += _U(1)                                  # the half-ulp is 2**(h + 1) ...
    vbr = _round_to_odd([(gi << h) + col for col, gi in zip(cols, g)]
                        + [cols[5].copy()])
    h -= irregular                              # ... or 2**h at a power of two
    vbl = _round_to_odd([col + borrow - (gi << h) for col, borrow, gi
                         in zip(cols, _BORROW, g)] + [cols[5] + _BORROW[5]])
    vb = _round_to_odd(cols)
    # The shortest candidate is the one multiple of 10**(k + 1) in the
    # interval (sp10 or sp10 + 10 in units of 10**k) when exactly one is;
    # else s or s + 1, the closer one when both are, ties to even.
    odd = c & _U(1)                # an odd significand's interval is open
    s = vb >> _U(2)
    sp10 = s // _U(10) * _U(10)
    upin = vbl + odd <= sp10 << _U(2)
    wpin = (sp10 << _U(2)) + _U(40) + odd <= vbr
    shorter = (s >= _U(10)) & (upin != wpin)
    uin = vbl + odd <= s << _U(2)
    win = (s << _U(2)) + _U(4) + odd <= vbr
    mid = (s << _U(2)) + _U(2)
    up = np.where(uin != win, win, (vb > mid) | ((vb == mid) & (s & _U(1) == 1)))
    d = np.where(shorter, sp10 + _U(10) * wpin, s + up)
    return d, _K[row]


# A float's source row is 32 bytes, eight uint32 words: the digits "0ddd"
# of its decimal exponent, then "000" and its 17 significant digits (the
# leading one in column 7; the three zeros and the digits past the last
# one shown are blanked), then its sign, its decimal point (blank for one
# digit in exponent notation), "e+-0" and two blanks.
_EXP, _LEAD = 0, 7
_SIGN, _DOT, _E, _PLUS, _MINUS, _ZERO, _BLANK = range(24, 31)
_WIDTH = 24     # the sign and the longest repr, "2.2250738585072014e-308"
_FIXED_MIN, _FIXED_MAX = -3, 16   # decimal points of fixed notation
_MODES = 24


def _templates():
    """Source columns of the _WIDTH output bytes of each layout mode, and
    the repr's length without sign for mode m and n digits at m * 17 + n - 1.

    Modes 0..19 are fixed notation with the decimal point after digit
    m + _FIXED_MIN, modes 20..23 exponent notation, +2 for a negative
    exponent and +1 for a three-digit one.  Blanked columns (the digits
    past a repr's last one) are dropped with the padding.
    """
    digits = list(range(_LEAD, _LEAD + 17))
    rows, lengths = [], []
    for mode in range(_MODES):
        decpt = mode + _FIXED_MIN
        if mode >= 20:
            neg_exp, wide = divmod(mode - 20, 2)
            body = (digits[:1] + [_DOT] + digits[1:]
                    + [_E, _MINUS if neg_exp else _PLUS]
                    + list(range(_EXP + 2 - wide, _EXP + 4)))
            lengths += [nd + (nd > 1) + 4 + wide for nd in range(1, 18)]
        elif decpt <= 0:
            body = [_ZERO, _DOT] + [_ZERO] * -decpt + digits
            lengths += [2 - decpt + nd for nd in range(1, 18)]
        else:
            body = digits[:decpt] + [_DOT] + digits[decpt:]
            lengths += [max(nd, decpt + 1) + 1 for nd in range(1, 18)]
        rows.append([_SIGN] + body + [_BLANK] * (_WIDTH - 1 - len(body)))
    return np.array(rows, dtype=np.intp), np.array(lengths, dtype=np.intp)


_LAYOUT, _LAYOUT_LEN = _templates()
# A 20-digit block "000d dddd dddd dddd dddd" is five 4-digit chunks.
# _DIGITS4 holds the four ASCII digits of 0..9999 as one uint32 each;
# _LAST4[j * 10000 + v] is the block column of the last nonzero digit when
# chunk j holds v, and 0 when v is 0; _KEEP4[j * 18 + m] masks the bytes
# of chunk j that hold one of the first m significant digits.
_V = np.arange(10000, dtype=np.int32)
_DIGITS4 = np.empty((10000, 4), dtype=np.uint8)
for _j, _p in enumerate((1000, 100, 10, 1)):
    _DIGITS4[:, _j] = _V // _p % 10 + 48
_DIGITS4 = _DIGITS4.view(np.uint32).ravel()
_last = np.int8(3) - (_V % 10 == 0) - (_V % 100 == 0) - (_V % 1000 == 0)
_LAST4 = np.concatenate([_last + np.int8(4 * _j) for _j in range(5)])
_LAST4[::10000] = 0
_KEEP4 = np.array([[sum(0xFF << 8 * (c - 4 * j) for c in range(max(3, 4 * j), 3 + m)
                        if c < 4 * j + 4) for m in range(18)]
                   for j in range(5)], dtype=np.uint32).ravel()
del _V, _last, _j, _p
# Per decimal point decpt, at decpt + _DECPT_OFF: the layout mode, the
# fewest digits fixed notation shows ("d.0" has decpt + 1), and the
# exponent's four digits.
_DECPT_OFF = 324
_DECPTS = np.arange(-_DECPT_OFF, 310)
_FIXED = (_DECPTS >= _FIXED_MIN) & (_DECPTS <= _FIXED_MAX)
_MODE_OF = np.where(_FIXED, _DECPTS - _FIXED_MIN, 20 + 2 * (_DECPTS < 1)
                    + (np.abs(_DECPTS - 1) >= 100)).astype(np.uint8)
_MIN_DIGITS_OF = np.where(_FIXED & (_DECPTS > 0), _DECPTS + 1, 0).astype(np.int32)
_EXP_DIGITS_OF = _DIGITS4[np.abs(_DECPTS - 1)]
del _DECPTS, _FIXED


def join_reprs(values, sep: str) -> tuple[str, np.ndarray]:
    """``sep.join(map(float.__repr__, values))`` for finite float64 values,
    and the end offset of each value's text in it.  ``sep`` is ASCII."""
    bits = np.ascontiguousarray(values, dtype=np.float64).ravel().view(_U)
    n = bits.size
    if not n:
        return "", np.zeros(0, dtype=np.intp)
    neg = (bits >> _U(63)).astype(np.intp)
    mag = bits & _U((1 << 63) - 1)
    zero = mag == 0
    d, k = _shortest(mag)
    d[zero] = 0
    nd_all = np.searchsorted(_POW10[1:], d, side="right") + 1
    d *= _POW10[17 - nd_all]                    # 17 digits, or 0
    decpt = k + nd_all + _DECPT_OFF
    decpt[zero] = 1 + _DECPT_OFF                # "0.0"
    mode = _MODE_OF[decpt]

    # the 20-digit block as five 4-digit chunks, one per row
    hi = d // _U(10**8)
    lo = (d - hi * _U(10**8)).astype(np.int32)
    hi = hi.astype(np.int32)
    chunks = np.empty((5, n), dtype=np.int32)
    np.divmod(hi, 10**4, out=(chunks[1], chunks[2]))
    np.divmod(chunks[1], 10**4, out=(chunks[0], chunks[1]))
    np.divmod(lo, 10**4, out=(chunks[3], chunks[4]))
    block = _DIGITS4[chunks]
    chunks += 10000 * np.arange(5)[:, None]
    nd = np.maximum(_LAST4[chunks].max(axis=0) - 2, 1)
    keep = np.maximum(nd, _MIN_DIGITS_OF[decpt]) + 18 * np.arange(5)[:, None]
    block &= _KEEP4[keep]

    src = np.empty((n, 8), dtype=np.uint32)
    src[:, 0] = _EXP_DIGITS_OF[decpt]
    src[:, 1:6] = block.T
    src[:, 6] = neg * 0x2D + 0x2B650000 + 0x2E00 * ((mode < 20) | (nd > 1))
    src[:, 7] = 0x302D
    src = src.view(np.uint8)

    # one gather per layout mode, over the floats sorted by mode
    order = np.argsort(mode, kind="stable")
    src = np.take(src, order, axis=0)
    sep_b = sep.encode("ascii")
    rows = np.empty((n, _WIDTH + len(sep_b)), dtype=np.uint8)
    rows[:, _WIDTH:] = np.frombuffer(sep_b, dtype=np.uint8)
    stops = np.cumsum(np.bincount(mode, minlength=_MODES))
    for m in np.flatnonzero(np.diff(stops, prepend=0)):
        lo, hi = stops[m - 1] if m else 0, stops[m]
        rows[lo:hi, :_WIDTH] = src[lo:hi, _LAYOUT[m]]
    row = np.dtype((np.void, rows.shape[1]))
    out = np.empty(n, dtype=row)
    out[order] = rows.view(row).ravel()
    text = out.tobytes().translate(None, b"\0").decode("ascii")
    ends = np.cumsum(_LAYOUT_LEN[17 * mode.astype(np.intp) + nd - 1]
                     + neg + len(sep_b)) - len(sep_b)
    return text[:len(text) - len(sep_b)], ends
