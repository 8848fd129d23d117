"""The three workloads: their inputs, drawn from the workload seed, and checks.

All are closed loops with one client: each command starts after the previous
one has finished. The seed sets every --seed the program receives; sizes
never depend on it.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

from perfbench import checks, oracles
from perfbench.checks import Check

MC_SAMPLES = 1 << 24
PROBE_SAMPLES = 1 << 23
SWEEP_MC_SAMPLES = 1 << 22
BLOCK = 1 << 18


@dataclass(frozen=True)
class Invocation:
    label: str
    argv: tuple[str, ...]
    threads: int = 1
    out: str | None = None
    # Outputs that must be byte-identical (across threads and repeats) share
    # a key; the golden file records its digest per seed.
    key: str | None = None
    work: int = 1
    expect: object = None
    # The command reports failed checks of its own with exit 1 (verify), so
    # its output is checked on exit 1 too.
    reports_failure: bool = False


@dataclass
class Result:
    inv: Invocation
    returncode: int
    stdout: str
    stderr: str
    wall: float
    maxrss_mb: float = 0.0
    out_bytes: int = 0
    digest: str | None = None
    info: dict = field(default_factory=dict)


def _flag(x: float) -> str:
    return repr(float(x))


def _expect_ms(c0m1, a1, a2, dt):
    def expect(r: Result) -> list[Check]:
        value = json.loads(r.stdout)["value"]
        return [checks.ms_value(r.inv.label, value, c0m1, a1, a2, dt)]

    return expect


def _expect_quad(c0m1, a1, a2, dt):
    def expect(r: Result) -> list[Check]:
        value = json.loads(r.stdout)["value"]
        return [checks.quad_value(r.inv.label, value, c0m1, a1, a2, dt)]

    return expect


def _expect_z(c0m1, a1, a2, dt, samples=None, known_defect=None):
    """Value within Z_MAX standard errors of the oracle.

    With samples (Monte Carlo), the standard error is the oracle's, and the
    reported std_error is checked against it separately; known_defect tags
    only that second check. Without, the reported std_error sets the scale.
    """
    ref = float(oracles.as_exponent(c0m1, a1, a2, dt)[0])
    expected_se = None
    if samples is not None:
        expected_se = oracles.as_sample_std(c0m1, a1, a2, dt) / math.sqrt(samples)

    def expect(r: Result) -> list[Check]:
        obj = json.loads(r.stdout)
        label, std_error = r.inv.label, obj.get("std_error")
        if expected_se is None:
            return [checks.within_z(label, obj["value"], std_error, ref)]
        return [checks.within_z(label, obj["value"], expected_se, ref),
                checks.std_error_ok(label, std_error, expected_se, known_defect)]

    return expect


def _expect_sweep(value_at, factor_at=None):
    return lambda r: checks.sweep_rows(r.inv.label, r.stdout, value_at, factor_at)


def _expect_region(lam):
    return lambda r: checks.region_rows(r.inv.label, r.stdout, lam)


def _expect_verify(r: Result) -> list[Check]:
    return checks.verify_lines(r.inv.label, r.stdout)


def _expect_simulate(paths, steps):
    return lambda r: [checks.simulate_shape(r.inv.label, r.info, paths, steps)]


class CliWorkload:
    """A fixed script of CLI invocations, each a fresh interpreter when timed."""

    def __init__(self, builder, nominal_repeat_s: float, extra=None):
        # Wall time of one repeat of the script on a 2-vCPU host; sets how
        # many repeats fit in a run.
        self.nominal_repeat_s = nominal_repeat_s
        self._builder = builder
        self._extra = extra

    def script(self, seed: int, workdir: Path) -> list[Invocation]:
        invs = self._builder(str(seed))
        return [
            inv if inv.out is None else _with_out(inv, workdir / inv.out) for inv in invs
        ]

    def thread_counts(self) -> list[int]:
        return sorted({inv.threads for inv in self._builder("0")})

    def check(self, passes: list[list[Result]], seed: int, golden: dict) -> list[Check]:
        found = []
        for results in passes:
            for r in results:
                output = []
                checked = r.returncode == 0 or (r.returncode == 1 and r.inv.reports_failure)
                if checked and r.inv.expect is not None:
                    try:
                        output = r.inv.expect(r)
                    except (ValueError, KeyError, IndexError, StopIteration) as exc:
                        output = [Check(f"{r.inv.label}: output parses", False, repr(exc))]
                found.append(checks.exit_ok(r.inv.label, r.returncode, r.stderr, output))
                found.extend(output)
        groups: dict[str, list[str]] = {}
        for results in passes:
            for r in results:
                if r.inv.key is not None and r.returncode == 0:
                    groups.setdefault(r.inv.key, []).append(r.digest)
        recorded = golden.get(str(seed), {})
        for key, digests in groups.items():
            found.append(checks.same_bytes(f"{key} across threads and repeats", digests))
            if key in recorded:
                found.append(checks.same_bytes(f"{key} against the recorded digest",
                                               [digests[0], recorded[key]]))
        return found

    def extra_metrics(self, typical: list[Result]) -> dict:
        """Workload-specific metrics from one result per command, at its median wall."""
        return self._extra(typical) if self._extra else {}


def _with_out(inv: Invocation, path: Path) -> Invocation:
    return replace(inv, argv=inv.argv + ("--out", str(path)), out=str(path))


# cli-short ------------------------------------------------------------------
# Start-up dominates: importing milstab (mostly scipy.linalg) is ~80% of each
# call, cold Gauss-Hermite tables come next, and the kernels do almost
# nothing. Removing or deferring scipy shows here, and so would a slower
# first table build.

_DEF = (8.0, 2.0, 4.0)
_DT = 1e-3
_THETA = ("--theta", "0.5", "--epsilon", "0")


def _cli_short(seed: str) -> list[Invocation]:
    lam, eps, sig = _DEF
    plain = oracles.plain_factor(lam, eps, sig, _DT)
    theta = oracles.theta_factor(lam, sig, 0.5, _DT)
    s = ("--seed", seed)

    def sweep_plain_quad(label, dt, v):
        return checks.quad_value(label, v, *oracles.plain_factor(lam, eps, sig, dt), dt)

    def sweep_plain_ms(label, dt, v):
        return checks.ms_value(label, v, *oracles.plain_factor(lam, eps, sig, dt), dt)

    def sweep_theta_quad(label, dt, v):
        return checks.quad_value(label, v, *oracles.theta_factor(lam, sig, 0.5, dt), dt)

    return [
        Invocation("exponent ms-exact", ("exponent", "ms-exact") + s,
                   expect=_expect_ms(*plain, _DT)),
        Invocation("exponent as-quad", ("exponent", "as-quad") + s,
                   expect=_expect_quad(*plain, _DT)),
        Invocation("exponent theta-ms", ("exponent", "theta-ms") + _THETA + s,
                   expect=_expect_ms(*theta, _DT)),
        Invocation("exponent theta-as", ("exponent", "theta-as") + _THETA + s,
                   expect=_expect_quad(*theta, _DT)),
        Invocation("exponent as-slope", ("exponent", "as-slope") + s,
                   expect=_expect_z(*plain, _DT)),
        Invocation("sweep-dt as-quad", ("sweep-dt", "as-quad") + s,
                   expect=_expect_sweep(sweep_plain_quad,
                                        lambda dt: oracles.plain_factor(lam, eps, sig, dt))),
        Invocation("sweep-dt ms-exact", ("sweep-dt", "ms-exact") + s,
                   expect=_expect_sweep(sweep_plain_ms)),
        Invocation("sweep-dt theta-as", ("sweep-dt", "theta-as") + _THETA + s,
                   expect=_expect_sweep(sweep_theta_quad,
                                        lambda dt: oracles.theta_factor(lam, sig, 0.5, dt))),
        Invocation("region", ("region",), expect=_expect_region(lam)),
    ] + [
        Invocation(f"verify {suite}", ("verify", "--suite", suite) + s, expect=_expect_verify,
                   reports_failure=True)
        for suite in ("lemmas", "moments", "closedform")
    ]


# mc-heavy -------------------------------------------------------------------
# Import is under a quarter of the wall: Philox normals and the factor+log
# kernel and reduction of each 2^18 block carry it. A fused kernel, a stable
# reduction and thread scaling show here.

#: The README point, the CLI defaults and the stable scalar point.
MC_POINTS = ((6.0, 0.5, 4.0), (8.0, 2.0, 4.0), (-1.0, 0.0, 1.0))
#: Known-defect probe: std_error collapses to 0, or to rounding noise, at this
#: point (ROADMAP item 3).
PROBE = (8.0, 0.0, 1e-9)
SWEEP_DTS = (1e-2, 1e-3, 1e-4)


def _mc_heavy(seed: str) -> list[Invocation]:
    invs = []
    for lam, eps, sig in MC_POINTS:
        for threads in (1, 2):
            invs.append(Invocation(
                f"exponent as-mc ({lam:g},{eps:g},{sig:g}) t{threads}",
                ("exponent", "as-mc", "--lambda", _flag(lam), "--epsilon", _flag(eps),
                 "--sigma", _flag(sig), "--samples", str(MC_SAMPLES), "--threads", str(threads),
                 "--seed", seed),
                threads=threads,
                key=f"as-mc ({lam:g},{eps:g},{sig:g})",
                work=MC_SAMPLES,
                expect=_expect_z(*oracles.plain_factor(lam, eps, sig, _DT), _DT, MC_SAMPLES),
            ))

    def sweep_row(label, dt, v):
        factor = oracles.plain_factor(*_DEF, dt)
        ref = float(oracles.as_exponent(*factor, dt)[0])
        se = oracles.as_sample_std(*factor, dt) / math.sqrt(SWEEP_MC_SAMPLES)
        return checks.within_z(label, v, se, ref)

    invs.append(Invocation(
        "sweep-dt as-mc t2",
        ("sweep-dt", "as-mc", "--dts", ",".join(repr(d) for d in SWEEP_DTS),
         "--samples", str(SWEEP_MC_SAMPLES), "--threads", "2", "--seed", seed),
        threads=2,
        work=SWEEP_MC_SAMPLES * len(SWEEP_DTS),
        expect=_expect_sweep(sweep_row),
    ))
    lam, eps, sig = PROBE
    invs.append(Invocation(
        "exponent as-mc small-sigma probe t1",
        ("exponent", "as-mc", "--lambda", _flag(lam), "--epsilon", _flag(eps), "--sigma",
         _flag(sig), "--dt", _flag(_DT), "--samples", str(PROBE_SAMPLES), "--threads", "1",
         "--seed", seed),
        work=PROBE_SAMPLES,
        expect=_expect_z(*oracles.plain_factor(lam, eps, sig, _DT), _DT, PROBE_SAMPLES,
                         known_defect=checks.SMALL_SIGMA_DEFECT),
    ))
    return invs


def _mc_extra(typical: list[Result]) -> dict:
    """mc_samples_per_s per thread count and the work-normalised variance."""
    out = {}
    for threads in (1, 2):
        runs = [r for r in typical
                if r.inv.argv[:2] == ("exponent", "as-mc") and r.inv.threads == threads]
        out[f"mc_samples_per_s.t{threads}"] = (
            sum(r.inv.work for r in runs) / sum(r.wall for r in runs), "1/s")
    (r,) = [r for r in typical if r.inv.label == "exponent as-mc (8,2,4) t1"]
    se = json.loads(r.stdout)["std_error"] if r.returncode == 0 else float("nan")
    out["mc_wnv"] = (se * se * r.wall, "s")
    return out


# simulate-out ----------------------------------------------------------------
# CSV/JSON formatting and the write dominate, and peak RSS grows with
# paths x steps. The stochastics layer serves long per-path streams here,
# not the fixed MC blocks of mc-heavy.

_STEPS = 10000


def _simulate_out(seed: str) -> list[Invocation]:
    s = ("--seed", seed)
    invs = []
    for threads in (1, 2):
        invs.append(Invocation(
            f"simulate csv 50x1e4 t{threads}", ("simulate",) + s + ("--threads", str(threads)),
            threads=threads, out=f"plain-{threads}.csv", key="simulate-csv-50",
            work=50 * _STEPS, expect=_expect_simulate(50, _STEPS)))
    for threads in (1, 2):
        invs.append(Invocation(
            f"simulate theta json 50x1e4 t{threads}",
            ("simulate",) + _THETA + ("--format", "json") + s + ("--threads", str(threads)),
            threads=threads, out=f"theta-{threads}.json", key="simulate-theta-json-50",
            work=50 * _STEPS, expect=_expect_simulate(50, _STEPS)))
    invs.append(Invocation(
        "simulate csv 200x1e4 t2", ("simulate", "--paths", "200") + s + ("--threads", "2"),
        threads=2, out="plain-200.csv", key="simulate-csv-200",
        work=200 * _STEPS, expect=_expect_simulate(200, _STEPS)))
    return invs


def _sim_extra(typical: list[Result]) -> dict:
    return {"sim_cells_per_s": (sum(r.inv.work for r in typical) / sum(r.wall for r in typical),
                                "1/s")}


def describe_output(path: Path) -> tuple[str, int, dict]:
    """sha256, size, and the shape facts simulate_shape checks ({} if unreadable)."""
    data = path.read_bytes()
    try:
        return hashlib.sha256(data).hexdigest(), len(data), _shape(path.suffix, data)
    except (ValueError, KeyError, IndexError, StopIteration):
        return hashlib.sha256(data).hexdigest(), len(data), {}


def _shape(suffix: str, data: bytes) -> dict:
    text = data.decode("utf-8")
    if suffix == ".json":
        obj = json.loads(text)
        rows, columns, dt = obj["rows"], len(obj["columns"]), obj["params"]["dt"]
        last = rows[-1]
        n_rows = len(rows)
    else:
        lines = text.splitlines()
        dt = next(float(ln[5:]) for ln in lines if ln.startswith("# dt="))
        body = [ln for ln in lines if not ln.startswith("#")]
        columns = len(body[0].split(","))
        n_rows = len(body) - 1
        last = [float(x) for x in body[-1].split(",")]
    return {
        "rows": n_rows,
        "columns": columns,
        "dt": dt,
        "last_t": last[0],
        "last_mean": last[-1],
        "last_path_mean": math.fsum(last[1:-1]) / (len(last) - 2),
    }


WORKLOADS = {
    "cli-short": CliWorkload(_cli_short, 6.0),
    "mc-heavy": CliWorkload(_mc_heavy, 8.5, _mc_extra),
    "simulate-out": CliWorkload(_simulate_out, 8.0, _sim_extra),
}
