"""The table formatter writes the bytes of Python's own float text.

Each case joins a table's slices from _floattext.slice_text and compares the
text with the loops they replace: repr per value joined into CSV lines, and
json.dumps of the rows.
"""

import json
import random
import sys
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from milstab import _floattext
from milstab._floattext import slice_text


def table_text(block, as_json=False):
    starts = range(0, block.size, _floattext.SLICE)
    return "".join(slice_text(block, start, as_json) for start in starts)


def csv_reference(block):
    return "".join(",".join(map(str, row)) + "\n" for row in block.tolist())


def json_reference(block):
    return json.dumps(block.tolist())[1:-1]


def assert_same_text(block):
    block = np.asarray(block, dtype=np.float64)
    with np.errstate(all="raise"), warnings.catch_warnings():
        warnings.simplefilter("error")
        csv, js = table_text(block), table_text(block, as_json=True)
    assert csv == csv_reference(block)
    assert js == json_reference(block)


@settings(max_examples=300, deadline=None)
@given(
    hnp.arrays(
        np.float64,
        hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=9),
        elements=st.floats(),
    )
)
def test_any_floats(block):
    # st.floats() draws nan, both infinities, both zeros and subnormals too
    assert_same_text(block)


def _neighbours(values):
    values = np.asarray(values, dtype=np.float64)
    return np.concatenate([np.nextafter(values, -np.inf), values, np.nextafter(values, np.inf)])


POWERS_OF_TWO = [2.0**e for e in range(-20, 60)]
RANGE_ENDS = _neighbours([1e-4, 1e16, 1e-5, 1e15, 1e17, 0.001, 1.0, 10.0])
# the last three are eighths near 5.6e14: a 17-digit tie that 16 digits
# avoid, and two ties between 16-digit roundings
TIES = [
    2.5, 0.125, 1e15 + 0.5, 0.5, 1.5, 12.5, 0.375, 9007199254740993.0, 4503599627370497.5,
    (2**52 + 1) / 8, (2**52 + 2) / 8, (2**52 + 6) / 8,
]
SEVENTEEN_DIGITS = [
    0.30000000000000004, 1.0000000000000002, 9.999999999999998, 123456.78901234568,
    2.2250738585072014e-3, 1234567890123456.8, 0.00012345678901234567, -5.551115123125783e-05,
]
SPECIAL = [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -2.2250738585072014e-308, 1.7976931348623157e308]


@pytest.mark.parametrize(
    "values",
    [POWERS_OF_TWO, RANGE_ENDS, TIES, SEVENTEEN_DIGITS, SPECIAL],
    ids=["powers-of-two", "range-ends", "ties", "seventeen-digits", "special"],
)
def test_explicit_cases(values):
    values = np.asarray(values, dtype=np.float64)
    values = np.concatenate([values, -values])
    assert_same_text(values.reshape(1, -1))
    assert_same_text(values.reshape(-1, 1))


def test_random_bits_and_short_decimals():
    rng = np.random.default_rng(19)
    bits = rng.integers(0, 2**64, size=60_000, dtype=np.uint64).view(np.float64)
    # decimals of 1 to 17 significant digits across the fixed range, with the
    # doubles next to them, where the shortest digits are hardest to find
    digits = rng.integers(1, 18, size=20_000)
    mantissa = np.floor(rng.random(20_000) * 10.0**digits) + 1
    decimals = mantissa * 10.0 ** rng.integers(-20, 5, size=20_000)
    assert_same_text(bits.reshape(-1, 6))
    assert_same_text(_neighbours(decimals).reshape(-1, 4))


@pytest.mark.parametrize("shape", [(1, 1), (1, 37), (37, 1), (5, 3)])
def test_block_shapes(shape):
    rng = np.random.default_rng(3)
    assert_same_text(rng.standard_normal(shape) * 10.0 ** rng.integers(-5, 17, size=shape))


def test_slice_edges_inside_rows(monkeypatch):
    rng = np.random.default_rng(4)
    # 1200 rows of 7: the first slice ends inside row 1170
    block = rng.standard_normal((1200, 7)) * 50
    assert block.size > _floattext.SLICE and _floattext.SLICE % 7
    assert_same_text(block)
    monkeypatch.setattr(_floattext, "SLICE", 5)
    assert_same_text(block[:40])


@pytest.mark.parametrize("as_json", [False, True], ids=["csv", "json"])
def test_a_slice_allocates_only_its_text(as_json):
    # a portable stand-in for page faults: the slice's arrays live in this
    # thread's workspace, so a call allocates little beyond the text it returns
    rng = np.random.default_rng(5)
    block = rng.standard_normal((2 * _floattext.SLICE // 7 + 1, 7)) * 30
    slice_text(block, 0, as_json)  # builds the tables and the workspace
    tracemalloc.start()
    try:
        text = slice_text(block, _floattext.SLICE, as_json)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert text.count("\n" if not as_json else "]") >= _floattext.SLICE // 7
    assert peak <= 3 * len(text) + 64 * 1024


def test_threads_format_side_by_side():
    # each thread formats in its own workspace: a shared one passes every
    # serial test and mixes the texts of tables formatted at the same time
    rng = np.random.default_rng(6)
    tables = [
        rng.standard_normal(shape) * 10.0 ** rng.integers(-5, 17, size=shape)
        for shape in ((900, 9), (2000, 5), (40, 3))
    ]
    cases = [(i, as_json) for i in range(len(tables)) for as_json in (False, True)]
    expected = {case: table_text(tables[case[0]], case[1]) for case in cases}

    def work(seed):
        order = random.Random(seed)
        for _ in range(15):
            for i, as_json in order.sample(cases, len(cases)):
                assert table_text(tables[i], as_json) == expected[i, as_json]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=3) as pool:
            for done in [pool.submit(work, seed) for seed in range(3)]:
                done.result(timeout=120)
    finally:
        sys.setswitchinterval(interval)
