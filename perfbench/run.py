"""milstab benchmark: one workload per call, end-to-end or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the program is the checkout's src/milstab, used from
source. Workloads (see workloads.py for why each exists): cli-short,
mc-heavy, simulate-out.

--trace 0 measures the end-to-end metrics. The workload's script runs with
each command in a fresh interpreter. It repeats S // (its nominal duration)
times, at least once, so that a run takes about S seconds on a 2-vCPU host.
The metrics: setup_s (fresh interpreters importing milstab and
milstab.cli), wall_s, call_p50_s and peak_rss_mb. Report lines add
call_tail_s (the slowest kind of call), failed_frac and each workload's own
figures: mc_samples_per_s.t1/.t2 and mc_wnv (std_error**2 * seconds),
sim_cells_per_s. The last JSON line carries only the first group, which
BENCHMARK.json gates; the report lines are either not measured on every
workload or vary too much from run to run on a shared 2-vCPU host to gate.

--trace 1 is a separate run for the per-layer metrics. Fresh subprocesses
give the cold numbers (import, scipy.linalg import, first Gauss-Hermite
table, stream replay). The script then runs in this process, alternating
untraced and traced repeats; traced repeats record spans around calls into
milstab's public functions (spans.py), and the ratio of the two walls is the
tracing overhead.

Every output is checked (checks.py). The report goes to standard output,
ending with one JSON line: {"correct", "attempted", "failed", "metrics"}.
Spans and the full report are written under .bench_out/ in the checkout.
The benchmark's own tests: python3 -m pytest perfbench
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.spans import Tracer, self_times, write_spans  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    BLOCK,
    WORKLOADS,
    Result,
    describe_output,
)

SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
GOLDEN = Path(__file__).resolve().parent / "golden_sha256.json"
SETUP_REPS = 8
CHILD_TIMEOUT_S = 150.0
HERMITE_SIZES = (201, 402, 1024)
REPLAY_POSITION = 1 << 22
REPORT_FAILURES = 20

SETUP_CODE = "import milstab, milstab.cli"
IMPORT_PROBE = """
import json, sys, time
t0 = time.perf_counter()
import milstab
t1 = time.perf_counter()
milstab.gauss_hermite_rule(int(sys.argv[1]))
t2 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "hermite_s": t2 - t1}))
"""
SCIPY_PROBE = """
import json, time
t0 = time.perf_counter()
import scipy.linalg
print(json.dumps({"import_s": time.perf_counter() - t0}))
"""
REPLAY_PROBE = """
import json, resource, sys, time
import milstab
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
t0 = time.perf_counter()
milstab.RngStream(root_seed=int(sys.argv[1]), stream_id=0, position=int(sys.argv[2]))
t1 = time.perf_counter()
after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(json.dumps({"replay_s": t1 - t0, "rss_mb": (after - before) / 1024}))
"""

# Units of the per-layer metrics, in report order.
LAYER_UNITS = {
    "milstab.import_s": "s",
    "milstab.scipy_linalg_import_s": "s",
    "stochastics.normals_s": "s",
    "stochastics.normals_count": "count",
    "stochastics.replay_s": "s",
    "stochastics.replay_rss_mb": "MB",
    "stochastics.hermite_cold_s.n201": "s",
    "stochastics.hermite_cold_s.n402": "s",
    "stochastics.hermite_cold_s.n1024": "s",
    "stochastics.hermite_calls": "count",
    "stochastics.self_s": "s",
    "scheme.simulate_path_s": "s",
    "scheme.simulate_theta_path_s": "s",
    "scheme.steps": "count",
    "scheme.clamped_steps": "count",
    "scheme.self_s": "s",
    "exponents.as_exponent_mc_s.t1": "s",
    "exponents.as_exponent_mc_s.t2": "s",
    "exponents.mc_kernel_s": "s",
    "exponents.as_exponent_quadrature_s": "s",
    "exponents.theta_as_exponent_quadrature_s": "s",
    "exponents.ms_exponent_exact_s": "s",
    "exponents.theta_ms_exponent_s": "s",
    "exponents.path_slope_s": "s",
    "exponents.self_s": "s",
    "lemmas.verify_log_sandwich_s": "s",
    "lemmas.xi_gamma_calls": "count",
    "lemmas.self_s": "s",
    "model.classify_s": "s",
    "model.classify_calls": "count",
    "model.as_boundary_epsilon_s": "s",
    "model.as_boundary_epsilon_calls": "count",
    "model.self_s": "s",
    "cli.main_s.simulate": "s",
    "cli.main_s.exponent": "s",
    "cli.main_s.sweep-dt": "s",
    "cli.main_s.region": "s",
    "cli.main_s.verify": "s",
    "cli.self_s": "s",
    "cli.out_bytes": "count",
    "trace.overhead": "ratio",
    "trace.spans": "count",
}

# -- running the program -------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(argv: list[str], workdir: Path, tag: str):
    """Run argv to completion; return (returncode, stdout, stderr, wall, maxrss MB).

    The child is reaped with os.wait4 for its own ru_maxrss; a pidfd bounds
    the wait, and a child past CHILD_TIMEOUT_S is killed and reaped.
    """
    out_path, err_path = workdir / f"{tag}.stdout", workdir / f"{tag}.stderr"
    with open(out_path, "wb") as fo, open(err_path, "wb") as fe:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=fo, stderr=fe, cwd=workdir, env=child_env())
        pidfd = os.pidfd_open(proc.pid)
        try:
            if not select.select([pidfd], [], [], CHILD_TIMEOUT_S)[0]:
                proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            os.close(pidfd)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    stdout = out_path.read_text(encoding="utf-8", errors="replace")
    stderr = err_path.read_text(encoding="utf-8", errors="replace")
    out_path.unlink()
    err_path.unlink()
    return proc.returncode, stdout, stderr, wall, usage.ru_maxrss / 1024.0


def python_child(code: str, args, workdir: Path, tag: str) -> dict:
    rc, stdout, stderr, wall, _ = run_child(
        [sys.executable, "-c", code, *map(str, args)], workdir, tag)
    if rc != 0:
        raise RuntimeError(f"probe {tag} exited {rc}: {stderr.strip()[-400:]}")
    return {"wall": wall, **(json.loads(stdout) if stdout.strip() else {})}


def measure_setup(workdir: Path, reps: int) -> list[float]:
    return [python_child(SETUP_CODE, (), workdir, f"setup{i}")["wall"] for i in range(reps)]


def finish_result(r: Result) -> Result:
    """Digest and size the output, then delete any --out file."""
    if r.inv.out is not None and r.returncode == 0:
        path = Path(r.inv.out)
        r.digest, r.out_bytes, r.info = describe_output(path)
    else:
        data = r.stdout.encode("utf-8")
        r.out_bytes = len(data)
        r.digest = hashlib.sha256(data).hexdigest()
    if r.inv.out is not None:
        Path(r.inv.out).unlink(missing_ok=True)
    return r


def cli_pass_subprocess(script, workdir: Path) -> list[Result]:
    results = []
    for i, inv in enumerate(script):
        argv = [sys.executable, "-m", "milstab", *inv.argv]
        rc, stdout, stderr, wall, rss = run_child(argv, workdir, f"inv{i}")
        results.append(Result(inv, rc, stdout, stderr, wall, rss))
    return [finish_result(r) for r in results]


def cli_pass_inprocess(script, milstab_cli, tracer=None) -> tuple[list[Result], float]:
    results = []
    start = time.perf_counter()
    for inv in script:
        out, err = io.StringIO(), io.StringIO()
        argv = list(inv.argv)
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if tracer is None:
                rc = milstab_cli.main(argv)
            else:
                tracer.invocation += 1
                rc = tracer.record("cli", f"main.{argv[0]}", milstab_cli.main, (argv,))
        results.append(Result(inv, rc, out.getvalue(), err.getvalue(), time.perf_counter() - t0))
    wall = time.perf_counter() - start
    return [finish_result(r) for r in results], wall


def import_milstab():
    sys.path.insert(0, str(SRC))
    import milstab
    import milstab.cli

    return milstab


# -- the two kinds of run --------------------------------------------------------


def _repeats(seconds: float, nominal_repeat_s: float):
    """Yield floor(seconds / nominal_repeat_s) times, at least once.

    A fixed count keeps every median over the same number of values from
    run to run. On a host much slower than the
    nominal one the count is cut short at twice the run length, so that a
    run still ends in time.
    """
    start = time.perf_counter()
    for i in range(max(1, int(seconds // nominal_repeat_s))):
        if i and time.perf_counter() - start > 2.0 * seconds:
            return
        yield i


def _timed_cli(workload, seed: int, seconds: float, workdir: Path) -> dict:
    script = workload.script(seed, workdir)
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.is_file() else {}
    passes = [cli_pass_subprocess(script, workdir)
              for _ in _repeats(seconds, workload.nominal_repeat_s)]
    # Each command's wall is its median over repeats; the script's wall is
    # their sum, steadier than the median of a few whole-script repeats.
    typical = [replace(rs[0], wall=statistics.median(r.wall for r in rs)) for rs in zip(*passes)]
    wall = sum(r.wall for r in typical)
    calls = [r.wall for results in passes for r in results]
    # A run has 10 to 48 commands of a few kinds, so the highest percentile
    # with ten beyond it would sit at p33 to p79, on the edge between two
    # kinds, and jump between runs. The tail is the slowest command instead.
    slowest = max(typical, key=lambda r: r.wall)
    return {
        "metrics": {
            "wall_s": (wall, "s"),
            "call_p50_s": (statistics.median(calls), "s"),
            "peak_rss_mb": (max(r.maxrss_mb for results in passes for r in results), "MB"),
        },
        "extra": {"call_tail_s": (slowest.wall, "s"), **workload.extra_metrics(typical)},
        "notes": {
            "wall_s": f"sum over {len(script)} commands of each one's median of "
                      f"{len(passes)} repeats",
            "call_p50_s": f"median of {len(calls)} commands",
            "call_tail_s": f"median of {len(passes)} repeats of the slowest command, "
                           f"{slowest.inv.label}",
            "peak_rss_mb": "largest ru_maxrss of the commands, from os.wait4",
        },
        "checks": workload.check(passes, seed, golden),
        "commands": {r.inv.label: r.wall for r in typical},
    }


def timed_run(workload, seed: int, seconds: float, workdir: Path) -> dict:
    python_child(SETUP_CODE, (), workdir, "warm")  # byte-compile and warm the page cache
    # Half the set-up samples before the script and half after, so that they
    # see the machine at both ends of the run.
    setup = measure_setup(workdir, SETUP_REPS // 2)
    run = _timed_cli(workload, seed, seconds, workdir)
    setup += measure_setup(workdir, SETUP_REPS - SETUP_REPS // 2)
    run["metrics"] = {"setup_s": (statistics.median(setup), "s"), **run["metrics"]}
    run["notes"]["setup_s"] = f"median of {len(setup)} fresh interpreters importing milstab.cli"
    return run


def cold_probes(seed: int, workdir: Path) -> dict:
    imports, hermite = [], {n: [] for n in HERMITE_SIZES}
    for rep in range(2):
        for n in HERMITE_SIZES:
            r = python_child(IMPORT_PROBE, (n,), workdir, f"cold{n}-{rep}")
            imports.append(r["import_s"])
            hermite[n].append(r["hermite_s"])
    scipy = [python_child(SCIPY_PROBE, (), workdir, f"scipy{i}")["import_s"] for i in range(3)]
    replay = [python_child(REPLAY_PROBE, (seed, REPLAY_POSITION), workdir, f"replay{i}")
              for i in range(2)]
    out = {
        "milstab.import_s": statistics.median(imports),
        "milstab.scipy_linalg_import_s": statistics.median(scipy),
        "stochastics.replay_s": statistics.median(r["replay_s"] for r in replay),
        "stochastics.replay_rss_mb": statistics.median(r["rss_mb"] for r in replay),
    }
    for n in HERMITE_SIZES:
        out[f"stochastics.hermite_cold_s.n{n}"] = statistics.median(hermite[n])
    return out


def layer_metrics(spans, traced_passes: int, out_bytes: float) -> dict:
    selfs = self_times(spans)
    by_name: dict[str, list] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def per_call(name):
        group = by_name.get(name, [])
        return sum(s.duration for s in group) / len(group) if group else 0.0

    def per_pass(value):
        return value / traced_passes

    normals = by_name.get("normals", [])
    draws = sum(s.note["draws"] for s in normals if s.note)
    paths = [s for s in by_name.get("simulate_path", []) + by_name.get("simulate_theta_path", [])
             if s.note]
    out = {
        "stochastics.normals_s": (
            sum(s.duration for s in normals) / (draws / BLOCK) if draws else 0.0),
        "stochastics.normals_count": per_pass(draws),
        "stochastics.hermite_calls": per_pass(len(by_name.get("gauss_hermite_rule", []))),
        "scheme.simulate_path_s": per_call("simulate_path"),
        "scheme.simulate_theta_path_s": per_call("simulate_theta_path"),
        "scheme.steps": per_pass(sum(s.note["steps"] for s in paths)),
        "scheme.clamped_steps": per_pass(sum(s.note["clamped"] for s in paths)),
        "lemmas.xi_gamma_calls": per_pass(len(by_name.get("xi_gamma", []))),
        "model.classify_calls": per_pass(len(by_name.get("classify", []))),
        "model.as_boundary_epsilon_calls": per_pass(len(by_name.get("as_boundary_epsilon", []))),
        "cli.out_bytes": out_bytes,
        "trace.spans": per_pass(len(spans)),
    }
    mc = by_name.get("as_exponent_mc", [])
    for threads in (1, 2):
        group = [s for s in mc if s.note and s.note["threads"] == threads]
        blocks = sum(s.note["samples"] for s in group) / BLOCK
        out[f"exponents.as_exponent_mc_s.t{threads}"] = (
            sum(s.duration for s in group) / blocks if blocks else 0.0)
        if threads == 1:
            out["exponents.mc_kernel_s"] = (
                sum(selfs[s.id] for s in group) / blocks if blocks else 0.0)
    for name in ("as_exponent_quadrature", "theta_as_exponent_quadrature", "ms_exponent_exact",
                 "theta_ms_exponent", "path_slope"):
        out[f"exponents.{name}_s"] = per_call(name)
    out["lemmas.verify_log_sandwich_s"] = per_call("verify_log_sandwich")
    for name in ("classify", "as_boundary_epsilon"):
        out[f"model.{name}_s"] = per_call(name)
    for sub in ("simulate", "exponent", "sweep-dt", "region", "verify"):
        group = by_name.get(f"main.{sub}", [])
        out[f"cli.main_s.{sub}"] = statistics.median(s.duration for s in group) if group else 0.0
    for layer in ("stochastics", "scheme", "exponents", "lemmas", "model", "cli"):
        out[f"{layer}.self_s"] = per_pass(sum(selfs[s.id] for s in spans if s.layer == layer))
    return out


def traced_run(workload, seed: int, seconds: float, workdir: Path, spans_path: Path) -> dict:
    start = time.perf_counter()
    metrics = cold_probes(seed, workdir)
    milstab = import_milstab()
    tracer = Tracer()
    plain_walls, traced_walls, outputs = [], [], []
    out_bytes = []
    script = workload.script(seed, workdir)
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.is_file() else {}
    while True:
        for traced in (False, True):
            if traced:
                tracer.install()
            try:
                out, wall = cli_pass_inprocess(script, milstab.cli, tracer if traced else None)
            finally:
                tracer.uninstall()
            if traced:
                out_bytes.append(sum(r.out_bytes for r in out))
            outputs.append(out)
            (traced_walls if traced else plain_walls).append(wall)
        if time.perf_counter() - start + plain_walls[-1] + traced_walls[-1] > seconds:
            break
    found = workload.check(outputs, seed, golden)
    metrics.update(layer_metrics(tracer.spans, len(traced_walls), statistics.median(out_bytes)))
    plain, traced = statistics.median(plain_walls), statistics.median(traced_walls)
    metrics["trace.overhead"] = traced / plain - 1.0
    write_spans(tracer.spans, spans_path)
    notes = {
        "trace.overhead": f"median traced {traced!r} s against untraced {plain!r} s "
                          f"over {len(traced_walls)} repeats each, in one process",
        "trace.spans": "per repeat; functions not found to trace: "
                       + (", ".join(tracer.missing) or "none"),
    }
    return {
        "metrics": {name: (metrics[name], unit) for name, unit in LAYER_UNITS.items()},
        "extra": {},
        "notes": notes,
        "checks": found,
    }


# -- reporting ---------------------------------------------------------------------


def _git_commit(root: Path) -> str | None:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def environment_stamp(workload, seed: int) -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    source = hashlib.sha256()
    for path in sorted((SRC / "milstab").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(ROOT),
        "source_sha256": source.hexdigest(),
        "threads_used": workload.thread_counts(),
        "seed": seed,
    }


def report(args, stamp: dict, run: dict) -> dict:
    found = run["checks"]
    failed = [c for c in found if not c.passed]
    unexpected = [c for c in failed if c.known_defect is None]
    print(f"# milstab benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds} s, trace {args.trace}")
    print("# environment " + json.dumps(stamp))
    for name, (value, unit) in list(run["metrics"].items()) + list(run["extra"].items()):
        note = run["notes"].get(name)
        print(f"{name} = {value!r} {unit}" + (f"  ({note})" if note else ""))
    for label, wall in run.get("commands", {}).items():
        print(f"  command {label}: median wall {wall!r} s")
    frac = len(failed) / len(found)
    print(f"failed_frac = {frac!r} ratio  ({len(failed)} of {len(found)} checks failed, "
          f"{len(unexpected)} unexpected)")
    for c in failed[:REPORT_FAILURES]:
        tag = "KNOWN DEFECT" if c.known_defect else "FAIL"
        print(f"{tag}: {c.name}: {c.detail}" + (f" [{c.known_defect}]" if c.known_defect else ""))
    if len(failed) > REPORT_FAILURES:
        print(f"... {len(failed) - REPORT_FAILURES} more failed checks in the saved report")
    return {
        "correct": not unexpected,
        "attempted": len(found),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in run["metrics"].items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "milstab" / "__init__.py").is_file():
        print(f"error: no milstab source under {SRC}", file=sys.stderr)
        return 2
    if not 0 <= args.seed < 2**64:
        print("error: --seed must be a 64-bit unsigned integer", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    nproc = len(os.sched_getaffinity(0))
    if max(workload.thread_counts()) > nproc:
        print(f"error: {args.workload} uses {max(workload.thread_counts())} threads, "
              f"more than the {nproc} available", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        stamp = environment_stamp(workload, args.seed)
        if args.trace:
            run = traced_run(workload, args.seed, args.seconds, workdir,
                             OUT / f"spans-{tag}.jsonl.gz")
        else:
            run = timed_run(workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = report(args, stamp, run)
    (OUT / f"report-{tag}.json").write_text(json.dumps(
        {"environment": stamp, "result": result,
         "extra": {k: {"value": v, "unit": u} for k, (v, u) in run["extra"].items()},
         "notes": run["notes"],
         "commands": run.get("commands", {}),
         "failed_checks": [asdict(c) for c in run["checks"] if not c.passed]}, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
