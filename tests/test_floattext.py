"""The table formatter writes the bytes of Python's own float text.

Each case joins a table's slices from _floattext.slice_bytes, with each of
simulate's separator sets (cli._SIMULATE_SEPARATORS), and compares the text
with repr of each value followed by its separator; a finite table's JSON is
also compared with json.dumps of its rows.
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

from milstab import cli
from milstab._floattext import slice_bytes

SEPARATORS = cli._SIMULATE_SEPARATORS
TASK = cli.TASK_VALUES


def table_text(block, fmt, size=TASK):
    starts = range(0, block.size, size)
    text = b"".join(slice_bytes(block, start, size, SEPARATORS[fmt]) for start in starts)
    return text.decode("ascii")


def reference(block, fmt):
    """repr of each value, each followed by its separator."""
    within, row_end, table_end = SEPARATORS[fmt]
    return row_end.join(within.join(map(repr, row)) for row in block.tolist()) + table_end


def assert_same_text(block, size=TASK):
    block = np.asarray(block, dtype=np.float64)
    with np.errstate(all="raise"), warnings.catch_warnings():
        warnings.simplefilter("error")
        texts = {fmt: table_text(block, fmt, size) for fmt in SEPARATORS}
    for fmt, text in texts.items():
        assert text == reference(block, fmt)
    if np.isfinite(block).all():  # after simulate's head '[[', the rows close the document
        assert "[[" + texts["json"] == json.dumps(block.tolist()) + "}\n"


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


def test_slice_edges_inside_rows():
    rng = np.random.default_rng(4)
    # 2400 rows of 7: the first task ends inside row 2340
    block = rng.standard_normal((2400, 7)) * 50
    assert block.size > TASK and TASK % 7
    assert_same_text(block)
    assert_same_text(block[:40], size=5)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_a_slice_allocates_only_its_text(fmt):
    # a portable stand-in for page faults: the slice's arrays live in this
    # thread's workspace, so a call allocates little beyond the text it returns
    rng = np.random.default_rng(5)
    block = rng.standard_normal((2 * TASK // 7 + 1, 7)) * 30
    slice_bytes(block, 0, TASK, SEPARATORS[fmt])  # builds the tables and the workspace
    tracemalloc.start()
    try:
        text = slice_bytes(block, TASK, TASK, SEPARATORS[fmt])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert text.tobytes().count(SEPARATORS[fmt][1].encode()) >= TASK // 7
    assert peak <= 3 * text.nbytes + 64 * 1024


def test_threads_format_side_by_side():
    # each thread formats in its own workspace: a shared one passes every
    # serial test and mixes the texts of tables formatted at the same time
    rng = np.random.default_rng(6)
    tables = [
        rng.standard_normal(shape) * 10.0 ** rng.integers(-5, 17, size=shape)
        for shape in ((900, 9), (4000, 5), (40, 3))
    ]
    cases = [(i, fmt) for i in range(len(tables)) for fmt in SEPARATORS]
    expected = {case: table_text(tables[case[0]], case[1]) for case in cases}

    def work(seed):
        order = random.Random(seed)
        for _ in range(15):
            for i, fmt in order.sample(cases, len(cases)):
                assert table_text(tables[i], fmt) == expected[i, fmt]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=3) as pool:
            for done in [pool.submit(work, seed) for seed in range(3)]:
                done.result(timeout=120)
    finally:
        sys.setswitchinterval(interval)
