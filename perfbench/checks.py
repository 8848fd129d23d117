"""Output checks. Each returns Check records; failed ones feed failed_frac.

A check may carry known_defect: the failure is a defect already on record
(a ROADMAP item or a finding of this benchmark). It still counts as failed,
but it does not make the run incorrect, so a fix shows up as a drop in the
failed count and a new fault shows up as an incorrect run.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
from dataclasses import dataclass

from perfbench import oracles

#: Relative tolerance of closed-form mean-square exponents.
MS_RTOL = 1e-12
#: Relative tolerance (floor 1) of quadrature exponents against the oracle.
QUAD_RTOL = 1e-8
#: Monte Carlo and path-slope results must lie this many standard errors from
#: the quadrature value at the same point.
Z_MAX = 5.0
#: Relative tolerance of a Monte Carlo std_error against its quadrature value.
#: At 2^22+ samples the sample deviation itself is good to ~1e-3.
SE_RTOL = 0.1

SMALL_SIGMA_DEFECT = (
    "ROADMAP item 3: as-mc forms its variance as total_sq - n*mean^2, which "
    "cancels when sigma*sqrt(dt) << |log gamma|, leaving 0 or rounding noise"
)
VERIFY_GATE_DEFECT = (
    "verify closedform gates a heavy-tailed mean at 3 standard errors and fails for "
    "about 1 seed in 130 (seeds 93, 190, 280 of 0..399)"
)


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    detail: str = ""
    known_defect: str | None = None


def exit_ok(label: str, returncode: int, stderr: str, output: list[Check] = ()) -> Check:
    """Exit code 0.

    output holds the checks of a command that reports its own failures with
    exit 1 (verify). If every one of them that failed is a known defect, the
    exit 1 they cause carries the same tag.
    """
    ok = returncode == 0
    failed = [c for c in output if not c.passed]
    known = None
    if not ok and returncode == 1 and failed and all(c.known_defect for c in failed):
        known = failed[0].known_defect
    return Check(f"{label}: exit 0", ok, f"exit {returncode} {stderr.strip()[:200]}", known)


def ms_value(label, got, c0m1, a1, a2, dt) -> Check:
    want = float(oracles.ms_exponent(c0m1, a1, a2, dt))
    return Check(f"{label}: closed form", oracles.close(got, want, MS_RTOL), f"{got!r} vs {want!r}")


def quad_value(label, got, c0m1, a1, a2, dt) -> Check:
    want = float(oracles.as_exponent(c0m1, a1, a2, dt)[0])
    ok = oracles.close(got, want, QUAD_RTOL, floor=1.0)
    return Check(f"{label}: quadrature oracle", ok, f"{got!r} vs {want!r}")


def within_z(label, value, scale, reference) -> Check:
    """|value - reference| <= Z_MAX * scale, with scale > 0.

    scale is the standard error: the oracle's where it is known, otherwise
    the one the program reports.
    """
    ok = scale is not None and scale > 0.0 and abs(value - reference) <= Z_MAX * scale
    return Check(f"{label}: within {Z_MAX:g} standard errors of as-quad", ok,
                 f"value {value!r} standard error {scale!r} as-quad {reference!r}")


def std_error_ok(label, std_error, expected_se, known_defect=None) -> Check:
    """std_error > 0 and within SE_RTOL of expected_se, its quadrature value.

    An error bar can be nonzero and still wrong. known_defect tags only this
    check, so a wrong value at the same point still makes the run incorrect.
    """
    ok = std_error is not None and std_error > 0.0 and abs(std_error / expected_se - 1.0) <= SE_RTOL
    return Check(f"{label}: std_error > 0 and within {SE_RTOL:.0%} of quadrature", ok,
                 f"std_error {std_error!r} expected {expected_se!r}", None if ok else known_defect)


def parse_csv(stdout: str) -> tuple[dict, list[dict], dict | None]:
    """Provenance pairs, data rows, and the trailing '# fit=' object if any."""
    pairs, fit, body = {}, None, []
    for line in stdout.splitlines():
        if line.startswith("# fit="):
            fit = json.loads(line[len("# fit="):])
        elif line.startswith("# "):
            key, _, value = line[2:].partition("=")
            pairs[key] = value
        else:
            body.append(line)
    return pairs, list(csv.DictReader(io.StringIO("\n".join(body)))), fit


def sweep_rows(label, stdout, value_at, factor_at=None) -> list[Check]:
    """Check each sweep row with value_at(label, dt, value) and require a fit.

    A row the CLI refused ('error') passes only where factor_at(dt) gives a
    step factor whose quadrature the oracle cannot resolve either.
    """
    _, rows, fit = parse_csv(stdout)
    present = fit is not None and len(rows) >= 3
    checks = [Check(f"{label}: fit present", present, f"{len(rows)} rows")]
    for row in rows:
        dt = float(row["dt"])
        if row["discrete_value"] == "error":
            warranted = factor_at is not None and not oracles.quad_resolved(*factor_at(dt), dt)
            checks.append(Check(f"{label} dt={dt!r}: refusal warranted", warranted))
        else:
            checks.append(value_at(f"{label} dt={dt!r}", dt, float(row["discrete_value"])))
    return checks


def region_rows(label, stdout, lam) -> list[Check]:
    """Boundary epsilon = +-sqrt(sigma^2 - 2*lam) and the class at epsilon 0."""
    _, rows, _ = parse_csv(stdout)
    bad = []
    for row in rows:
        sigma = float(row["sigma"])
        disc = sigma * sigma - 2.0 * lam
        want = () if disc < 0.0 else (math.sqrt(disc),)
        got = () if row["epsilon_boundary_plus"] == "" else (float(row["epsilon_boundary_plus"]),)
        a = lam - 0.5 * sigma * sigma
        cls = "stable" if a < -1e-12 else "blow-up" if a > 1e-12 else "boundary"
        if len(got) != len(want) or any(not oracles.close(g, w, 1e-12) for g, w in zip(got, want)):
            bad.append(f"sigma {sigma!r}: boundary {got} vs {want}")
        if row["class_at_epsilon_0"] != cls:
            bad.append(f"sigma {sigma!r}: class {row['class_at_epsilon_0']} vs {cls}")
    return [Check(f"{label}: boundary and class", bool(rows) and not bad, "; ".join(bad[:3]))]


_Z_RE = re.compile(r"z = ([0-9.]+)")


def verify_lines(label, stdout) -> list[Check]:
    """Every verify line reads PASS.

    A closedform line that fails with 3 < z <= 4 is the suite's own
    statistical false alarm and carries VERIFY_GATE_DEFECT.
    """
    checks = []
    for line in stdout.splitlines():
        name, _, rest = line.partition(": ")
        passed = rest.startswith("PASS")
        defect = None
        if not passed and name == "closedform.second_moment":
            z = _Z_RE.search(rest)
            if z and float(z.group(1)) <= 4.0:
                defect = VERIFY_GATE_DEFECT
        checks.append(Check(f"{label}: {name} PASS", passed, rest[:200], defect))
    if not checks:
        checks.append(Check(f"{label}: output", False, "no verify lines"))
    return checks


def same_bytes(label, digests: list[str]) -> Check:
    detail = ", ".join(d[:12] for d in digests)
    return Check(f"{label}: identical bytes", len(set(digests)) == 1, detail)


def simulate_shape(label, info: dict, paths: int, steps: int) -> Check:
    """Row and column counts, the time column and the mean column of the last row."""
    ok = (
        info["rows"] == steps + 1
        and info["columns"] == paths + 2
        and oracles.close(info["last_t"], steps * info["dt"], 1e-12)
        and oracles.close(info["last_mean"], info["last_path_mean"], 1e-12, floor=1.0)
    )
    return Check(f"{label}: shape and mean column", ok, json.dumps(info))
