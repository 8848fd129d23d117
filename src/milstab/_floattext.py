"""Table text with each float as Python's repr writes it, from array arithmetic.

slice_bytes(table, start, size, seps) writes the values [start, start + size)
of a C-ordered 2-D float table in row order, each followed by one of the
three separators seps names: within a row, at a row's end and at the table's
end. Joined in order, the slices of a table give the bytes of repr of every
value and its separator, at a fraction of the cost of calling
``float.__repr__`` once per value, as ASCII in a uint8 array. The caller
(milstab.cli) owns the document: its separators, head and brackets. repr is
json.dumps' text for every finite float, so a table known to be finite
formats as JSON too.

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
values, a power-of-two significand (whose interval is lopsided), an exact
tie between the two nearest roundings (where Python rounds half to even),
and a rounding up to 10**17, which would need an 18th digit.

The interval's ends, where the parity of the significand would decide, never
matter here. With x = m * 2**e (2**52 <= m < 2**53), the ends
are (2m +- 1) * 2**(e-1) * 10**p, a multiple of 10 only if e + p >= 2, which
in fixed notation leaves 2**53 <= x < 1e16 (e = 1, p = 1). There V = 20 * m
is itself a multiple of 10, and the ends are odd multiples of 10, so no end
is the nearest multiple of 10 or any multiple of 100.

Each value gets a fixed row of byte slots: the sign, the 17 digits as the
integer part, the 17 digits again as the fraction, with '0.' and up to
three zeros before it for |x| < 1, and the separator. A template row for
the value's point position, digit count, sign and separator clears the
slots its text does not use, the point goes in after the digits, and the
zero bytes are dropped.

A call's work is numpy array operations, which release the interpreter
lock, so slices can be formatted on threads. Each thread owns one
workspace, kept in a threading.local and built on the thread's first call:
every step of a call writes into it, so a call allocates nothing but the
text it returns. It holds 9 float, 10 integer and 4 boolean rows, about
160 bytes per value of the largest call the thread has made (2.6 MB for
the 2^14 values simulate formats in one call); the template rows and their
mask reuse that memory.
"""

from __future__ import annotations

import functools
import threading

from . import _np as np

#: Row slots: the sign, the 17 digits twice, for the integer part and for
#: the fraction, and a separator of up to 4 bytes. Each run of 16 digits
#: starts on a 4-byte boundary, so that the 4-digit table can write it as
#: four uint32 words; slots 0 and 1 stay empty. A value's text is at most
#: three runs of the row, the fewer the faster to compact: sign and integer
#: part; point and fraction; separator.
_SIGN, _INT, _FRAC, _SEP, _WIDTH = 2, 3, 27, 44, 48

#: Point positions (decpt, the digits before the point) of fixed notation.
_DECPT = range(-3, 17)


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
def _templates(seps: tuple[str, str, str]):
    """One row per (decpt, digit count, sign, separator): 0xFF on the digit
    slots the text uses, the character on its other slots, 0 on the rest.

    Below 1 the text is '0', then '.', -decpt zeros and the digits from _FRAC.
    Otherwise the point goes on _FRAC + decpt - 1, a slot of the fraction's
    digits, so slice_bytes writes it after the digits.
    """
    rows = np.zeros((len(_DECPT), 17, 2, len(seps), _WIDTH), np.uint8)
    for d, decpt in enumerate(_DECPT):
        for k in range(1, 18):
            row = rows[d, k - 1]
            if decpt > 0:
                row[..., _INT : _INT + decpt] = 0xFF
                row[..., _FRAC + decpt : _FRAC + max(k, decpt + 1)] = 0xFF
            else:  # '0' survives the AND with the first digit
                row[..., _INT] = ord("0")
                row[..., _FRAC + decpt - 1] = ord(".")
                row[..., _FRAC + decpt : _FRAC] = ord("0")
                row[..., _FRAC : _FRAC + k] = 0xFF
    rows[:, :, 1, :, _SIGN] = ord("-")
    for s, sep in enumerate(seps):
        rows[..., s, _SEP : _SEP + len(sep)] = np.frombuffer(sep.encode("ascii"), np.uint8)
    return rows.reshape(-1, _WIDTH)


def _split(a, hi=None, lo=None):
    """Veltkamp's split: a = hi + lo exactly, each half of at most 26 significant bits."""
    hi = np.multiply(a, 134217729.0, out=hi)  # 2**27 + 1
    lo = np.subtract(hi, a, out=lo)
    np.subtract(hi, lo, out=hi)
    return hi, np.subtract(a, hi, out=lo)


#: Each thread's workspace, built on its first slice there.
_local = threading.local()


def _workspace(n: int):
    """This thread's arrays for a call on n values: floats, ints, bools, the
    template rows and their mask.

    The rows reuse the memory of the 9 float rows, and the mask the end of
    the 10 int rows, each once its own work is done. The first int row holds
    each row's slot _FRAC - 1 in the flat rows.
    """
    space = getattr(_local, "space", None)
    if space is None or space[0].shape[1] < n:
        space = (np.empty((9, n)), np.empty((10, n), np.int64), np.empty((4, n), bool))
        _local.space = space
        space[1][0] = np.arange(_FRAC - 1, n * _WIDTH, _WIDTH)
    floats, ints, bools = space
    cells = floats.reshape(-1).view(np.uint8)[: n * _WIDTH].reshape(n, _WIDTH)
    raw = ints.reshape(-1).view(bool)
    return floats[:, :n], ints[:, :n], bools[:, :n], cells, raw[raw.size - n * _WIDTH :]


def slice_bytes(table, start: int, size: int, seps: tuple[str, str, str]):
    """The text of values [start, start + size) of a C-ordered 2-D float
    table, in row order, as ASCII in a new uint8 array: the one array a call
    allocates.

    Each value is followed by seps[0], or by seps[1] after a row's last
    value, or by seps[2] after the table's last value: a tuple of three
    ASCII strings of at most 4 bytes each.
    """
    cols = table.shape[1]
    values = np.ascontiguousarray(table.reshape(-1)[start : start + size], dtype=np.float64)
    floats, ints, bools, cells, keep = _workspace(values.size)
    lead, groups, index, decpt = _shortest(values, floats, ints[1:], bools)

    # the separator of each value, then its template row
    sep = ints[1]  # free once _shortest is done
    sep.fill(0)
    sep[(cols - 1 - start) % cols :: cols] = 1
    last = table.size - 1 - start
    if last < values.size:
        sep[last] = 2
    index *= 3
    index += sep
    np.take(_templates(seps), index, axis=0, out=cells, mode="clip")
    _fill_digits(cells, lead, groups, index)
    flat = cells.reshape(-1)
    flat[np.add(decpt, ints[0], out=decpt)] = ord(".")  # on slot _FRAC + decpt - 1

    for i in np.flatnonzero(np.logical_not(bools[0], out=bools[1])).tolist():
        raw = repr(float(values[i])).encode("ascii")
        cells[i, _SIGN:_SEP] = 0
        cells[i, _SIGN : _SIGN + len(raw)] = np.frombuffer(raw, np.uint8)
    return flat[np.not_equal(flat, 0, out=keep)]


def _shortest(values, floats, ints, bools):
    """For each value: whether the exact path covers it (bools[0]), the first
    of its shortest digits and the other 16 (zero padded) in four 4-digit
    groups, its template row for the first separator, and decpt."""
    pow10, pow10_hi, pow10_lo, _, zeros_of = _tables()
    t, x, scale, s_lo, hi, lo, x_hi, x_lo, h = floats
    p, whole, q, lead, *groups, count = ints
    ok, b, in10, in100 = bools
    bits = values.view(np.uint64)
    # x = |value| in range, else the nearer end of the range, so that nothing
    # below warns
    np.abs(values, out=t)
    np.fmin(np.fmax(t, 1e-4, out=x), 9999999999999998.0, out=x)
    np.equal(x, t, out=ok)
    np.floor(np.log10(x, out=t), out=t)
    np.copyto(p, np.subtract(16, t, out=t), casting="unsafe")
    # every index here is in range; take's default mode="raise" would copy out
    np.take(pow10, p, out=scale, mode="clip")
    # half an ulp of x, scaled alike: the power of two at or below x times
    # 2**-53 * 10**p, so exact. V is a multiple of 2**-46, so the sums and
    # differences below that are small enough to matter are exact too. A
    # power of two itself is left to Python: its interval is lopsided.
    np.bitwise_and(bits, 0x7FF << 52, out=h.view(np.uint64))
    ok &= np.not_equal(h, x, out=b)
    h *= scale
    h *= 2.0**-53
    # V = x * 10**p = hi + lo exactly (Dekker), then V = whole + f, f in [0, 1)
    np.multiply(x, scale, out=hi)
    s_hi = np.take(pow10_hi, p, out=scale, mode="clip")
    np.take(pow10_lo, p, out=s_lo, mode="clip")
    _split(x, x_hi, x_lo)
    np.multiply(x_hi, s_hi, out=lo)
    lo -= hi
    for a, c in ((x_hi, s_lo), (x_lo, s_hi), (x_lo, s_lo)):
        lo += np.multiply(a, c, out=t)
    np.floor(lo, out=t)
    f = np.subtract(lo, t, out=x)
    np.copyto(whole, hi, casting="unsafe")
    np.copyto(q, t, casting="unsafe")
    whole += q
    # log10 may misjudge x near a power of ten: V outside [1e16, 1e17) is Python's
    ok &= np.less(np.subtract(whole, 10**16, out=q).view(np.uint64), 9 * 10**16, out=b)

    # r = whole % 100, then V % 10 and V % 100 (exact) and whether the
    # interval holds a multiple of 10, and of 100
    r, u, v, step, rem = hi, x_hi, x_lo, scale, s_lo
    np.floor_divide(whole, 100, out=q)
    np.subtract(whole, np.multiply(q, 100, out=q), out=q)
    np.copyto(r, q)
    np.floor(np.divide(r, 10, out=t), out=t)
    np.subtract(r, np.multiply(t, 10, out=t), out=t)
    for m, whole_mod, inside in ((10, t, in10), (100, r, in100)):
        np.add(whole_mod, f, out=u)
        np.minimum(u, np.subtract(m, u, out=v), out=u)  # to the nearest multiple of m
        np.less(u, h, out=inside)
    # round V to the nearest multiple of step: of 100 when the interval holds
    # one (it holds at most one), else of 10 when it holds one, else of 1
    np.add(in10.view(np.uint8), in100.view(np.uint8), out=b.view(np.uint8))
    np.copyto(q, b.view(np.uint8))
    np.take(pow10, q, out=step, mode="clip")
    np.floor(np.divide(r, step, out=t), out=t)
    np.subtract(r, np.multiply(t, step, out=t), out=rem)  # whole % step
    np.add(rem, f, out=u)  # V % step
    half = np.multiply(step, 0.5, out=v)
    # Python's own text for an exact tie between the two nearest roundings
    ok &= np.not_equal(u, half, out=b)
    np.copyto(t, np.greater(u, half, out=b))
    np.subtract(np.multiply(t, step, out=t), rem, out=t)
    np.copyto(q, t, casting="unsafe")
    whole += q
    ok &= np.not_equal(whole, 10**17, out=b)  # 18 digits: Python's text
    # decpt, the digits before the point; a value left to Python may have
    # any, and gets one in range, so that its template row exists
    np.clip(np.subtract(17, p, out=q), _DECPT[0], _DECPT[-1], out=q)
    _digit_groups(whole, lead, groups)

    # the rounding has as many digits as are left of its trailing zeros: the
    # interval holds no multiple of 10 * step, so a rounding to 17 digits
    # ends in no zero, one to 16 in one, and one to the multiple of 100 in
    # as many as it has
    np.take(zeros_of, groups[0], out=count, mode="clip")
    for group in groups[1:]:
        zeros = np.take(zeros_of, group, out=p, mode="clip")
        count *= np.right_shift(zeros, 2, out=whole)  # 1 if all four are zeros
        count += zeros
    # the template row (decpt, digit count, sign) of the first separator
    index = count
    index *= -2
    index += np.multiply(q, 2 * 17, out=whole)
    index += 2 * (17 * -_DECPT[0] + 16)
    index -= np.right_shift(values.view(np.int64), 63, out=whole)
    return lead, groups, index, q


def _digit_groups(rounded, lead, groups) -> None:
    """The first of the 17 digits of each rounded, and the other 16 as four
    4-digit groups; rounded is overwritten."""
    np.floor_divide(rounded, 10**8, out=groups[1])
    np.subtract(rounded, np.multiply(groups[1], 10**8, out=groups[3]), out=groups[3])
    np.floor_divide(groups[1], 10**8, out=lead)
    groups[1] -= np.multiply(lead, 10**8, out=groups[0])
    for high, low in (groups[:2], groups[2:]):
        np.floor_divide(low, 10**4, out=high)
        low -= np.multiply(high, 10**4, out=rounded)


def _fill_digits(cells, lead, groups, scratch) -> None:
    """Turn the 0xFF digit slots of template rows into the 17 digit bytes; lead is overwritten."""
    four = _tables()[3]
    words = cells.view(np.uint32)
    word = scratch.view(np.uint32)[: len(cells)]
    for i, group in enumerate(groups, start=1):
        np.take(four, group, out=word, mode="clip")
        words[:, _INT // 4 + i] &= word
        words[:, _FRAC // 4 + i] &= word
    lead += ord("0")
    digit = scratch.view(np.uint8)[: len(cells)]
    np.copyto(digit, lead, casting="unsafe")
    cells[:, _INT] &= digit
    cells[:, _FRAC] &= digit
