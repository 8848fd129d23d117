"""Tests of the benchmark's own checks and span arithmetic.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

import milstab  # noqa: E402
import milstab.cli  # noqa: E402
from perfbench import checks, oracles, run, workloads  # noqa: E402
from perfbench.spans import Span, Tracer, covered_length, self_times  # noqa: E402
from perfbench.workloads import Invocation, Result  # noqa: E402

def _simulate(tmp_path: Path, threads: int) -> Path:
    out = tmp_path / f"sim-{threads}.csv"
    argv = ["simulate", "--steps", "200", "--paths", "4", "--seed", "3", "--threads",
            str(threads), "--out", str(out)]
    assert milstab.cli.main(argv) == 0
    return out


def _result(inv: Invocation, path: Path) -> Result:
    r = Result(inv, 0, "", "", 0.1)
    r.digest, r.out_bytes, r.info = workloads.describe_output(path)
    return r


def test_flipped_csv_byte_is_rejected(tmp_path):
    t1, t2 = _simulate(tmp_path, 1), _simulate(tmp_path, 2)
    inv = Invocation("simulate", ("simulate",), key="sim",
                     expect=workloads._expect_simulate(4, 200))
    wl = workloads.CliWorkload(lambda seed: [inv], 1.0)
    good = [[_result(inv, t1), _result(inv, t2)]]
    assert all(c.passed for c in wl.check(good, 3, {}))
    golden = {"3": {"sim": good[0][0].digest}}
    assert all(c.passed for c in wl.check(good, 3, golden))

    data = bytearray(t2.read_bytes())
    k = data.rindex(b"5")  # a digit inside the last data row
    data[k:k + 1] = b"6"
    t2.write_bytes(bytes(data))
    found = wl.check([[_result(inv, t1), _result(inv, t2)]], 3, golden)
    failed = [c for c in found if not c.passed]
    assert failed and all(c.known_defect is None for c in failed)
    assert any("identical bytes" in c.name for c in failed)


def test_as_mc_checks():
    n = 1 << 19
    p = milstab.ModelParams(8.0, 2.0, 4.0)
    est = milstab.as_exponent_mc(p, 1e-3, n, seed=7)
    expect = workloads._expect_z(*oracles.plain_factor(8.0, 2.0, 4.0, 1e-3), 1e-3, n)
    inv = Invocation("as-mc", ("exponent", "as-mc"), expect=expect)

    def passed(value, std_error):
        stdout = json.dumps({"method": "as-mc", "value": value, "std_error": std_error})
        return [c.passed for c in expect(Result(inv, 0, stdout, "", 1.0))]

    # [value within 5 standard errors, std_error > 0 and honest]
    assert passed(est.value, est.std_error) == [True, True]
    assert passed(est.value + 10.0 * est.std_error, est.std_error) == [False, True]
    assert passed(est.value, 0.0) == [True, False]
    assert passed(est.value, 5.0 * est.std_error) == [True, False]


def test_small_sigma_probe_tags_only_its_std_error():
    probe = next(i for i in workloads._mc_heavy("7") if "probe" in i.label)
    expected_se = oracles.as_sample_std(*oracles.plain_factor(*workloads.PROBE, 1e-3),
                                        1e-3) / workloads.PROBE_SAMPLES ** 0.5

    def outcome(value):
        r = Result(probe, 0, json.dumps({"value": value, "std_error": 0.0}), "", 1.0)
        return [(c.passed, c.known_defect) for c in probe.expect(r)]

    # The value measured at seed 1 at this commit, then one 10 standard errors off.
    assert outcome(7.968169649179607) == [(True, None), (False, checks.SMALL_SIGMA_DEFECT)]
    assert outcome(7.968169649179607 + 10 * expected_se) == [
        (False, None), (False, checks.SMALL_SIGMA_DEFECT)]


def test_closed_form_check_rejects_a_wrong_value():
    factor = oracles.plain_factor(8.0, 2.0, 4.0, 1e-3)
    exact = milstab.ms_exponent_exact(milstab.ModelParams(8.0, 2.0, 4.0), 1e-3).value
    assert checks.ms_value("ms", exact, *factor, 1e-3).passed
    assert not checks.ms_value("ms", exact * (1 + 1e-10), *factor, 1e-3).passed


def test_quadrature_oracle_matches_milstab():
    p = milstab.ModelParams(6.0, 0.5, 4.0)
    for dt in (1e-2, 1e-3, 1e-5):
        got = milstab.as_exponent_quadrature(p, dt).value
        assert checks.quad_value("q", got, *oracles.plain_factor(6.0, 0.5, 4.0, dt), dt).passed
        assert not checks.quad_value("q", got + 1e-6, *oracles.plain_factor(6.0, 0.5, 4.0, dt),
                                     dt).passed


def test_verify_lines():
    ok = "lemmas.sandwich: PASS - fine\nlemmas.xi_continuity: PASS - fine\n"
    assert all(c.passed for c in checks.verify_lines("v", ok))
    bad = checks.verify_lines("v", "moments.weight_sum: FAIL - off\n")
    assert [(c.passed, c.known_defect) for c in bad] == [(False, None)]
    gate = checks.verify_lines(
        "v", "closedform.second_moment: FAIL - within 3 standard errors, z = 3.101 over 100\n")
    assert [(c.passed, c.known_defect) for c in gate] == [(False, checks.VERIFY_GATE_DEFECT)]


def test_verify_exit_1_from_a_known_defect_leaves_the_run_correct():
    inv = next(i for i in workloads._cli_short("7") if i.label == "verify closedform")
    wl = workloads.CliWorkload(lambda seed: [inv], 1.0)

    def failed(stdout, returncode=1):
        found = wl.check([[Result(inv, returncode, stdout, "", 1.0)]], 7, {})
        return [(c.name, c.known_defect) for c in found if not c.passed]

    gate = "closedform.second_moment: FAIL - within 3 standard errors, z = {} over 100\n"
    found = failed("closedform.ms_exact: PASS - fine\n" + gate.format("3.101"))
    assert len(found) == 2 and all(d == checks.VERIFY_GATE_DEFECT for _, d in found)
    found = failed(gate.format("4.5"))
    assert len(found) == 2 and all(d is None for _, d in found)
    assert failed("closedform.ms_exact: PASS - fine\n") == [("verify closedform: exit 0", None)]
    assert [d for _, d in failed("", returncode=2)] == [None]


def _span(i, parent, start, end):
    return Span(i, parent, 1, "x", f"s{i}", start, end)


def test_self_time_nested_and_overlapping_threads():
    spans = [
        _span(1, None, 0.0, 10.0),
        _span(2, 1, 1.0, 3.0),  # thread A
        _span(3, 1, 2.0, 5.0),  # thread B, overlapping span 2
        _span(4, 2, 1.5, 2.0),  # nested under span 2
        _span(5, 1, 8.0, 12.0),  # runs past its parent's end
    ]
    got = self_times(spans)
    assert got[1] == pytest.approx(10.0 - 4.0 - 2.0)
    assert got[2] == pytest.approx(1.5)
    assert got[3] == pytest.approx(3.0)
    assert got[4] == pytest.approx(0.5)
    assert got[5] == pytest.approx(4.0)
    assert covered_length([(1, 2), (1.5, 3), (4, 5)], 0, 10) == pytest.approx(3.0)


def test_tracer_parents_across_two_threads():
    tracer = Tracer()
    tracer.install()
    try:
        est = milstab.exponents.as_exponent_mc(
            milstab.ModelParams(8.0, 2.0, 4.0), 1e-3, 4 * workloads.BLOCK, seed=1, threads=2)
    finally:
        tracer.uninstall()
    assert not hasattr(milstab.exponents.as_exponent_mc, "__wrapped__")
    assert not hasattr(milstab.stochastics.RngStream.normals, "__wrapped__")
    (mc,) = [s for s in tracer.spans if s.name == "as_exponent_mc"]
    normals = [s for s in tracer.spans if s.name == "normals"]
    assert len(normals) == 4 and all(s.parent == mc.id for s in normals)
    assert mc.note == {"samples": 4 * workloads.BLOCK, "threads": 2}
    assert est.value == milstab.exponents.as_exponent_mc(
        milstab.ModelParams(8.0, 2.0, 4.0), 1e-3, 4 * workloads.BLOCK, seed=1).value
    assert len({s.id for s in tracer.spans}) == len(tracer.spans)
    assert tracer.missing == []


def test_refuses_more_threads_than_cpus(monkeypatch, capsys):
    monkeypatch.setattr(run.os, "sched_getaffinity", lambda pid: {0})
    assert run.main(["--workload", "mc-heavy", "--seed", "1", "--seconds", "1"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "more than the 1 available" in err
