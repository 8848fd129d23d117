"""Table text with each float as Python's repr writes it, from array arithmetic.

slice_text(table, start) writes table's values [start, start + SLICE) in row
order. Joined in order, the slices of a table give the bytes of
``"".join(",".join(map(str, row)) + "\n" for row in table.tolist())``, or with
json=True of ``json.dumps(table.tolist())[1:-1]``, at a fraction of the cost
of calling ``float.__repr__`` once per value.

repr writes the shortest decimal that reads back as the same double, the one
nearest to it when several are that short, in fixed notation for
1e-4 <= |x| < 1e16. For such an x the scale 10**p (p <= 22, an exact double)
puts V = |x| * 10**p in [1e16, 1e17), and Dekker's error-free product
(Numer. Math. 18, 1971) gives V exactly as the integer N17 = floor(V) plus a
residual f in [0, 1). Every decimal strictly within half an ulp h of x,
scaled alike, reads back as x, and h < 11.1 once scaled. So the digits are
those of the nearest rounding of V to a multiple of the largest power of ten
q that still lands inside (V - h, V + h): 17 digits (q = 1) always do; q = 10
may; and as the interval is narrower than 100 it holds at most one multiple
of 100, whose trailing zeros then give q. Whatever this exact path does not
cover gets Python's own text instead: zero, non-finite and out-of-range
values, a power-of-two significand (whose interval is lopsided), and an exact
tie between the two nearest roundings (where Python rounds half to even).

The interval's ends, where the parity of the significand would decide, never
matter here. With x = m * 2**e (2**52 <= m < 2**53), the ends
are (2m +- 1) * 2**(e-1) * 10**p, a multiple of 10 only if e + p >= 2, which
in fixed notation leaves 2**53 <= x < 1e16 (e = 1, p = 1). There V = 20 * m
is itself a multiple of 10, and the ends are odd multiples of 10, so no end
is the nearest multiple of 10 or any multiple of 100.

Each value gets a fixed row of byte slots: a JSON row's '[', the sign, the
17 digits as the integer part, '0.' and up to three zeros for |x| < 1, the
17 digits again as the fraction, and the separator. A template row for the
value's point position, digit count, sign and separator clears the slots its
text does not use, and the zero bytes are dropped. The work on a slice is
numpy array operations, which release the interpreter lock, so slices can be
formatted on threads, and its temporaries are a few hundred KiB.
"""

from __future__ import annotations

import functools
import json as _json

from . import _np as np

#: Values per slice: 2^13 keeps each float temporary at 64 KiB.
SLICE = 1 << 13

#: Row slots. Each run of 16 digits starts on a 4-byte boundary, so that the
#: 4-digit table can write it as four uint32 words; slots 2, 25, 26 and 47
#: are never used.
_SIGN, _INT, _ZERO, _POINT, _ZEROS, _FRAC, _SEP, _WIDTH = 1, 3, 20, 21, 22, 27, 44, 48

#: Point positions (decpt, the digits before the point) of fixed notation.
_DECPT = range(-3, 17)

#: Separators after a value: CSV has two kinds, JSON three, each with or without '['.
_SEPARATORS = {False: [",", "\n"], True: [", ", "], ", "]"]}


@functools.cache
def _tables():
    """Powers of ten with their Veltkamp splits, and for 0..9999 the four digit
    bytes as one uint32 word and the trailing zero count, built on first use."""
    pow10 = np.array([10.0**p for p in range(23)])
    four = np.arange(10_000)
    digits = np.stack([four // 10**i % 10 for i in (3, 2, 1, 0)], axis=1) + ord("0")
    zeros = sum(four % 10**i == 0 for i in range(1, 5)).astype(np.intp)
    return (pow10, *_split(pow10), digits.astype(np.uint8).view(np.uint32)[:, 0], zeros)


@functools.cache
def _templates(json: bool):
    """One row per (decpt, digit count, sign, separator kind): 0xFF on the digit
    slots the text uses, the character on its other slots, 0 on the rest."""
    seps = [(prefix, sep) for prefix in (False, True)[: json + 1] for sep in _SEPARATORS[json]]
    rows = np.zeros((len(_DECPT), 17, 2, len(seps), _WIDTH), np.uint8)
    for d, decpt in enumerate(_DECPT):
        for k in range(1, 18):
            row = rows[d, k - 1]
            row[..., _INT : _INT + max(decpt, 0)] = 0xFF
            lo, hi = (decpt, max(k, decpt + 1)) if decpt > 0 else (0, k)
            row[..., _FRAC + lo : _FRAC + hi] = 0xFF
            row[..., _POINT] = ord(".")
            if decpt <= 0:
                row[..., _ZERO] = ord("0")
                row[..., _ZEROS + 3 + decpt : _ZEROS + 3] = ord("0")
    rows[:, :, 1, :, _SIGN] = ord("-")
    for s, (prefix, sep) in enumerate(seps):
        rows[..., s, 0] = ord("[") if prefix else 0
        rows[..., s, _SEP : _SEP + len(sep)] = np.frombuffer(sep.encode(), np.uint8)
    return rows.reshape(-1, _WIDTH), len(seps)


def _split(a):
    """Veltkamp's split: a = hi + lo exactly, each half of at most 26 significant bits."""
    c = a * 134217729.0  # 2**27 + 1
    hi = c - (c - a)
    return hi, a - hi


def slice_text(table, start: int, json: bool = False) -> str:
    """The values [start, start + SLICE) of a C-ordered 2-D float table, in row order.

    Each value is followed by its separator: ',' or the row's '\n' for CSV;
    for JSON ', ', or after a row's last value ']' and, before another row,
    ', ', with '[' before a row's first value.
    """
    rows, cols = table.shape
    values = np.ascontiguousarray(table.reshape(-1)[start : start + SLICE], dtype=np.float64)
    templates, n_seps = _templates(json)
    ok, lead, groups, digits, decpt = _shortest(values)

    index = np.arange(start, start + values.size)
    col = index % cols
    sep = (col == cols - 1).astype(np.intp)
    if json:
        sep += (sep == 1) & (index >= (rows - 1) * cols)
        sep += 3 * (col == 0)
    row = (((decpt - _DECPT[0]) * 17 + digits - 1) * 2 + (values < 0)) * n_seps + sep
    cells = templates.take(np.where(ok, row, sep), axis=0)
    _fill_digits(cells, lead, groups)

    text = _json.dumps if json else repr
    for i in np.flatnonzero(~ok).tolist():
        raw = text(float(values[i])).encode("ascii")
        cells[i, _SIGN:_SEP] = 0
        cells[i, _SIGN : _SIGN + len(raw)] = np.frombuffer(raw, np.uint8)
    return cells.tobytes().translate(None, b"\0").decode("ascii")


def _shortest(values):
    """For each value: whether the exact path covers it, and its shortest
    digits as the first digit, the other 16 (zero padded) in four 4-digit
    groups, the count of digits and decpt."""
    pow10, pow10_hi, pow10_lo, _, zeros_of = _tables()
    bits = values.view(np.uint64)
    ax = np.abs(values)
    ok = (ax >= 1e-4) & (ax < 1e16) & (bits & np.uint64((1 << 52) - 1) != 0)
    x = np.where(ok, ax, 1.5)
    e10 = np.floor(np.log10(x)).astype(np.intp)
    p = 16 - e10
    # V = x * 10**p = hi + lo exactly (Dekker), then V = whole + f, f in [0, 1)
    scale = pow10[p]
    hi = x * scale
    x_hi, x_lo = _split(x)
    s_hi, s_lo = pow10_hi[p], pow10_lo[p]
    lo = ((x_hi * s_hi - hi) + x_hi * s_lo + x_lo * s_hi) + x_lo * s_lo
    floor_lo = np.floor(lo)
    whole = hi.astype(np.int64) + floor_lo.astype(np.int64)
    f = lo - floor_lo
    # half an ulp of x, scaled alike: the power of two at or below x times
    # 2**-53 * 10**p, so exact. V is a multiple of 2**-46, so the sums and
    # differences below that are small enough to matter are exact too.
    h = (bits & np.uint64(0x7FF << 52)).view(np.float64) * (scale * 2.0**-53)
    ok &= (whole >= 10**16) & (whole < 10**17)

    r10, r100 = whole % 10, whole % 100
    below, above = r10 + f, (10 - r10) - f
    gap10 = np.minimum(below, above)
    in10 = gap10 < h
    below100, above100 = r100 + f, (100 - r100) - f
    gap100 = np.minimum(below100, above100)
    in100 = gap100 < h
    # Python's own text for an exact tie between the two nearest roundings:
    # to 17 digits when no multiple of 10 is inside, to 16 when two are
    ok &= np.where(in10, below != above, f != 0.5)
    rounded = np.where(
        in100,
        whole - r100 + 100 * (above100 < below100),
        np.where(in10, whole - r10 + 10 * (above < below), whole + (f > 0.5)),
    )
    carry = rounded == 10**17
    decpt = e10 + 1 + carry
    ok &= decpt <= _DECPT[-1]
    lead, groups = _digit_groups(np.where(ok & ~carry, rounded, 10**16))

    # the rounding has as many digits as are left of its trailing zeros: the
    # interval holds no multiple of 10 * q, so a rounding to 17 digits ends
    # in no zero, one to 16 in one, and the one multiple of 100 inside in as
    # many as q has
    count = zeros_of.take(groups[0])
    for group in groups[1:]:
        zeros = zeros_of.take(group)
        count = zeros + (zeros == 4) * count
    return ok, lead, groups, 17 - count, decpt


def _digit_groups(rounded):
    """The first of the 17 digits of each rounded, and the other 16 as four 4-digit groups."""
    top = rounded // 10**8
    low = rounded - top * 10**8
    lead = top // 10**8
    top -= lead * 10**8
    groups = []
    for half in (top, low):
        high = half // 10**4
        groups += [high, half - high * 10**4]
    return lead, groups


def _fill_digits(cells, lead, groups) -> None:
    """Turn the 0xFF digit slots of template rows into the 17 digit bytes."""
    four = _tables()[3]
    words = cells.view(np.uint32)
    for i, group in enumerate(groups, start=1):
        word = four.take(group)
        words[:, _INT // 4 + i] &= word
        words[:, _FRAC // 4 + i] &= word
    lead = (lead + ord("0")).astype(np.uint8)
    cells[:, _INT] &= lead
    cells[:, _FRAC] &= lead
