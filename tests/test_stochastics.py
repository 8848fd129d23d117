import fnmatch
import math
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from conftest import src_env
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh_tridiagonal

from milstab import stochastics
from milstab.exponents import QUAD_NODES
from milstab.stochastics import (
    REPLAY_CHUNK,
    QuadratureRule,
    RngStream,
    _golub_welsch,
    _hermite_table,
    _shipped_path,
    gauss_hermite_rule,
)

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path(_shipped_path(QUAD_NODES)).parent
#: The node counts of the quadrature route, whose rules the package ships.
SHIPPED = (QUAD_NODES, 2 * QUAD_NODES)


class TestRngStream:
    def test_same_key_same_draws(self):
        a = RngStream(root_seed=42, stream_id=3).normals(1000)
        b = RngStream(root_seed=42, stream_id=3).normals(1000)
        assert np.array_equal(a, b)

    def test_distinct_ids_differ(self):
        a = RngStream(root_seed=42, stream_id=0).normals(1000)
        b = RngStream(root_seed=42, stream_id=1).normals(1000)
        assert not np.array_equal(a, b)

    def test_position_tracks_draws(self):
        s = RngStream(root_seed=1, stream_id=2)
        assert s.position == 0
        s.normals(7)
        assert s.position == 7
        s.normals(1)
        assert s.position == 8

    def test_position_replay(self):
        # constructing at position k must continue exactly where a fresh
        # stream stands after k draws
        s = RngStream(root_seed=5, stream_id=3)
        s.normals(7)
        rest = s.normals(4)
        replayed = RngStream(root_seed=5, stream_id=3, position=7).normals(4)
        assert np.array_equal(rest, replayed)

    def test_chunked_replay_matches_one_shot(self):
        # a position of three chunks and a few draws: the chunked discard must
        # leave the same Philox state, and the same next draws, as one call
        position = 3 * REPLAY_CHUNK + 5
        gen = np.random.Generator(np.random.Philox(key=np.array([11, 4], dtype=np.uint64)))
        gen.standard_normal(position)
        stream = RngStream(root_seed=11, stream_id=4, position=position)
        assert str(stream._gen.bit_generator.state) == str(gen.bit_generator.state)
        assert np.array_equal(stream.normals(9), gen.standard_normal(9))
        assert stream.position == position + 9

    def test_replay_memory_is_one_chunk(self):
        # a one-shot discard of this position would hold 4 chunks of doubles
        tracemalloc.start()
        try:
            RngStream(root_seed=11, stream_id=4, position=4 * REPLAY_CHUNK)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 8 * REPLAY_CHUNK

    def test_split_draws_match_bulk(self):
        bulk = RngStream(root_seed=9, stream_id=0).normals(10)
        s = RngStream(root_seed=9, stream_id=0)
        parts = np.concatenate([s.normals(3), s.normals(7)])
        assert np.array_equal(bulk, parts)

    @settings(max_examples=50, deadline=None)
    @given(
        st.integers(min_value=0, max_value=2**64 - 1),
        st.integers(min_value=0, max_value=300_000),
        st.integers(min_value=0, max_value=300_000),
    )
    def test_split_draws_match_bulk_property(self, seed, a, b):
        # the verify suites draw one stream in pieces and rely on these bits
        bulk = RngStream(root_seed=seed, stream_id=1).normals(a + b)
        s = RngStream(root_seed=seed, stream_id=1)
        first, second = s.normals(a), s.normals(b)
        assert np.array_equal(bulk, np.concatenate([first, second]))
        assert s.position == a + b

    @pytest.mark.parametrize("bad", [-1, 2**64, 1.5, "7"])
    def test_bad_seed_rejected(self, bad):
        with pytest.raises(ValueError):
            RngStream(root_seed=bad, stream_id=0)
        with pytest.raises(ValueError):
            RngStream(root_seed=0, stream_id=bad)

    def test_bad_position_rejected(self):
        with pytest.raises(ValueError):
            RngStream(root_seed=0, stream_id=0, position=-1)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            RngStream(root_seed=0, stream_id=0).normals(-1)

    def test_stream_statistics(self):
        # frozen spot check of substream quality: the (42,0) and (42,1)
        # streams are effectively uncorrelated and close to standard normal
        a = RngStream(root_seed=42, stream_id=0).normals(10**5)
        b = RngStream(root_seed=42, stream_id=1).normals(10**5)
        corr = float(np.corrcoef(a, b)[0, 1])
        assert abs(corr) < 0.013
        assert abs(float(a.mean())) < 0.013
        assert abs(float(np.mean(a**4)) - 3.0) < 0.1


class TestQuadratureRule:
    def test_integrate_is_weighted_sum(self):
        rule = QuadratureRule(
            nodes=np.array([-1.0, 0.0, 1.0]), weights=np.array([0.25, 0.5, 0.25])
        )
        assert rule.integrate(np.array([2.0, 4.0, 6.0])) == pytest.approx(4.0)

    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            QuadratureRule(nodes=np.array([-1.0, 1.0]), weights=np.array([0.5, 0.6]))

    def test_nan_weight_is_refused(self):
        # a NaN sum is no defect above 1e-14, so only "<= 1e-14" refuses it
        with pytest.raises(ValueError, match="weights must sum to 1"):
            QuadratureRule(nodes=np.array([-1.0, 1.0]), weights=np.array([0.5, math.nan]))

    def test_nodes_must_be_symmetric(self):
        with pytest.raises(ValueError):
            QuadratureRule(nodes=np.array([-1.0, 2.0]), weights=np.array([0.5, 0.5]))


class TestGaussHermite:
    def test_three_node_rule(self):
        # closed form for n = 3: nodes 0, +-sqrt(3), weights 2/3, 1/6
        rule = gauss_hermite_rule(3)
        np.testing.assert_allclose(rule.nodes, [-math.sqrt(3.0), 0.0, math.sqrt(3.0)], atol=1e-14)
        np.testing.assert_allclose(rule.weights, [1.0 / 6.0, 2.0 / 3.0, 1.0 / 6.0], atol=1e-14)

    def test_weight_sum_and_symmetry(self):
        rule = gauss_hermite_rule(201)
        assert abs(math.fsum(rule.weights) - 1.0) <= 1e-14
        assert rule.nodes == tuple(-x for x in reversed(rule.nodes))
        assert rule.weights == rule.weights[::-1]

    def test_gaussian_moments_exact(self):
        # an n-node rule integrates polynomials up to degree 2n-1
        rule = gauss_hermite_rule(11)
        expected = 1.0
        for order in range(2, 21, 2):
            expected *= order - 1  # double factorial (order-1)!!
            got = rule.integrate(x ** float(order) for x in rule.nodes)
            assert got == pytest.approx(expected, rel=1e-12)

    def test_odd_moments_vanish(self):
        rule = gauss_hermite_rule(11)
        for order in (1, 3, 5, 7):
            assert abs(rule.integrate(x ** float(order) for x in rule.nodes)) < 1e-13

    def test_node_count_bounds(self):
        with pytest.raises(ValueError):
            gauss_hermite_rule(2)
        with pytest.raises(ValueError):
            gauss_hermite_rule(1025)
        assert len(gauss_hermite_rule(3).nodes) == 3

    def test_tables_are_cached_and_frozen(self):
        r1 = gauss_hermite_rule(51)
        r2 = gauss_hermite_rule(51)
        assert r1.nodes is r2.nodes
        assert all(type(x) is float for x in (*r1.nodes, *r1.weights))
        with pytest.raises(TypeError):
            r1.nodes[0] = 0.0

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=3, max_value=64))
    def test_rule_invariants(self, n):
        # Extreme tail weights underflow to exactly zero in the eigenvector
        # solve once n is large enough (seen from n=54), so only
        # nonnegativity can be required in double precision.
        rule = gauss_hermite_rule(n)
        assert len(rule.nodes) == n
        assert abs(math.fsum(rule.weights) - 1.0) <= 1e-14
        assert min(rule.weights) >= 0.0
        assert max(rule.weights) > 0.1
        assert rule.nodes == tuple(-x for x in reversed(rule.nodes))

    @pytest.mark.parametrize("n", [3, 4, 201, 402, 513, 1024])
    def test_tables_match_tridiagonal_solver(self, n):
        # scipy's tridiagonal eigensolver is the reference the dense numpy
        # build must reproduce exactly: every quadrature byte depends on it
        nodes, vecs = eigh_tridiagonal(np.zeros(n), np.sqrt(np.arange(1.0, n)))
        weights = vecs[0] ** 2
        nodes = 0.5 * (nodes - nodes[::-1])
        weights = 0.5 * (weights + weights[::-1])
        weights = weights / weights.sum()
        got_nodes, got_weights = _hermite_table(n)
        assert np.array_equal(got_nodes, nodes)
        assert np.array_equal(got_weights, weights)


class TestShippedRules:
    """The route's two rules ship as .npy files, checked against Golub-Welsch."""

    def test_exactly_the_quadrature_route_s_rules_ship(self):
        shipped = {path.name for path in PACKAGE.iterdir() if path.suffix == ".npy"}
        assert shipped == {Path(_shipped_path(n)).name for n in SHIPPED}

    @pytest.mark.parametrize("n", SHIPPED)
    def test_a_shipped_rule_is_golub_welsch_here(self, n):
        table = np.load(_shipped_path(n))
        assert (table.dtype, table.shape) == (np.dtype("<f8"), (2, n))
        nodes, weights = _golub_welsch(n)
        assert np.array_equal(table[0], nodes) and np.array_equal(table[1], weights)
        QuadratureRule(nodes=table[0], weights=table[1])  # symmetric, weights sum to 1
        got = _hermite_table(n)
        assert np.array_equal(got[0], nodes) and np.array_equal(got[1], weights)
        assert all(type(v) is tuple for v in got)

    @pytest.mark.parametrize("n", SHIPPED)
    def test_the_reader_gives_np_load_s_bits(self, n):
        nodes, weights = _hermite_table(n)
        assert np.array([nodes, weights], dtype="<f8").tobytes() == np.load(
            _shipped_path(n)).tobytes()

    @pytest.mark.parametrize(
        "edit",
        [
            lambda table: table.astype(">f8"),
            np.asfortranarray,
            lambda table: np.concatenate([table, table[:, :1]], axis=1),  # shape (2, n + 1)
            None,  # the last float cut off
        ],
        ids=["big-endian", "fortran-order", "wider", "truncated"],
    )
    def test_any_other_file_is_refused(self, monkeypatch, tmp_path, edit):
        n = QUAD_NODES
        copy = tmp_path / Path(_shipped_path(n)).name
        table = np.load(_shipped_path(n))
        if edit is None:
            copy.write_bytes(Path(_shipped_path(n)).read_bytes()[:-8])
        else:
            np.save(copy, edit(table))
            assert np.array_equal(np.load(copy)[:, :n], table)  # numpy reads the same values
        monkeypatch.setattr(stochastics, "_shipped_path", lambda m: str(tmp_path / copy.name))
        with pytest.raises(ValueError, match=f"is not the shipped {n}-node rule"):
            _hermite_table.__wrapped__(n)  # past the cache, which holds the shipped rule

    def test_installs_carry_the_shipped_rules(self):
        tomllib = pytest.importorskip("tomllib")
        with open(ROOT / "pyproject.toml", "rb") as fh:
            patterns = tomllib.load(fh)["tool"]["setuptools"]["package-data"]["milstab"]
        for n in SHIPPED:
            name = Path(_shipped_path(n)).name
            assert any(fnmatch.fnmatch(name, pattern) for pattern in patterns), name

    def test_the_tool_rewrites_the_files(self, tmp_path):
        # a copy of the tree, so that the tool's writes stay there; the shipped
        # bytes themselves are checked by test_a_shipped_rule_is_golub_welsch_here
        shutil.copytree(ROOT / "tools", tmp_path / "tools")
        shutil.copytree(PACKAGE, tmp_path / "src" / "milstab",
                        ignore=shutil.ignore_patterns("__pycache__"))
        tool = [sys.executable, str(tmp_path / "tools" / "hermite_tables.py")]

        def run(*args):
            proc = subprocess.run([*tool, *args], capture_output=True, text=True, timeout=120)
            return proc.returncode, proc.stdout, proc.stderr

        target = tmp_path / "src" / "milstab" / Path(_shipped_path(2 * QUAD_NODES)).name
        data = bytearray(target.read_bytes())
        data[-1] ^= 1  # the last weight's lowest byte
        target.write_bytes(bytes(data))
        assert run("--check") == (2, "", "usage: python3 tools/hermite_tables.py\n")
        assert target.read_bytes() == bytes(data)  # a refused call writes nothing
        assert run() == (0, "", "")
        assert target.read_bytes() == Path(_shipped_path(2 * QUAD_NODES)).read_bytes()


def test_cli_import_loads_no_scipy():
    code = (
        "import sys, milstab.cli\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=src_env(), timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
