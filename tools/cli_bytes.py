"""Compare the CLI's bytes between two source trees.

    python3 tools/cli_bytes.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are directories that hold a milstab package (a
checkout's src/). Each run of one fixed matrix of `python -m milstab` calls
goes once against each tree, in a fresh empty working directory, and the two
results are compared: exit code, stdout, stderr and every file the run
wrote. A run is its arguments, or a pair (arguments, config) whose JSON
object is written into the working directory as c.json before the call, so
that keys only a config file sets (the initial datum x0, y0) are covered
too. Each run that differs is printed with what differs; the exit code is
1 if any run differs, else 0. Standard library only.
"""

from __future__ import annotations

import concurrent.futures
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

#: Small sizes, so that the whole matrix stays quick.
_SLOPE = "--paths 3 --steps 40 --seed 5"
_MC = "--samples 5000 --seed 3"
_THETA = "--epsilon 0 --theta 0.5"
_METHODS = {
    "ms-exact": "",
    "as-quad": "",
    "as-mc": _MC,
    "as-slope": _SLOPE,
    "theta-ms": _THETA,
    "theta-as": _THETA,
}
_PLAIN = ("ms-exact", "as-quad", "as-mc", "as-slope")
_SIM = "simulate --steps 30 --paths 3 --seed 9"
_SWEEP = "--dts 1e-2,1e-3,1e-4"
#: Initial data whose log-modulus is exact, underflows and overflows when squared.
_DATUMS = ({"x0": 3, "y0": 4}, {"x0": 1e-200}, {"x0": 1e200, "y0": 1e200})

#: Every subcommand, each method, csv and json, stdout and --out, and refusals.
MATRIX = [
    "--help",
    *(f"{name} --help" for name in ("simulate", "exponent", "sweep-dt", "region", "verify")),
    # simulate
    *(f"{_SIM} --format {fmt}{out}" for fmt in ("csv", "json") for out in ("", " --out t.txt")),
    *(f"{_SIM} {_THETA} --format {fmt}" for fmt in ("csv", "json")),
    f"{_SIM} {_THETA} --threads 2 --out t.csv",
    f"{_SIM} {_THETA} --format json --out t.json",
    f"{_SIM} --threads 2 --format json",
    f"{_SIM} --paths 0",
    f"{_SIM} --epsilon 0.5 --theta 0.5",
    f"{_SIM} --epsilon 0 --theta 1.5",
    f"{_SIM} --epsilon 0 --theta 1.5 --dt 2",
    f"{_SIM} --epsilon 0 --theta 0",
    f"{_SIM} --lambda 20 --epsilon 0 --theta 1 --dt 0.1",
    f"{_SIM} --out no/such/dir.csv",
    *(f"{_SIM} --sigma 1e200 --format {fmt} --out t.txt" for fmt in ("csv", "json")),
    # exponent
    *(
        f"exponent {method} {flags} --format {fmt}"
        for method, flags in _METHODS.items()
        for fmt in ("csv", "json")
    ),
    *(f"exponent {method} {flags} --out e.txt" for method, flags in _METHODS.items()),
    "exponent as-quad --format csv --out e.txt",
    f"exponent as-mc {_MC} --threads 2",
    f"exponent as-slope {_SLOPE} --threads 2 --format csv",
    "exponent as-quad --lambda -300 --sigma 1 --epsilon 0 --format json",
    "exponent as-quad --lambda -300 --sigma 1 --epsilon 0 --format csv",
    "exponent as-quad --lambda -300 --sigma 1 --epsilon 0 --out e.json",
    "exponent theta-as --theta 0 --lambda -300 --sigma 1 --epsilon 0",
    f"exponent as-mc --lambda -300 --sigma 1 --epsilon 0 {_MC}",
    "exponent as-quad --lambda -600 --sigma 1 --epsilon 0",
    "exponent theta-ms --epsilon 0.5 --theta 0.5 --format csv",
    "exponent ms-exact --dt 2 --format csv",
    "exponent ms-exact --config no-such-config.json",
    "exponent as-quad --lambda 17.7 --epsilon 0 --sigma 6 --dt 0.8",
    "exponent as-quad --nodes 402",
    "exponent as-quad --lambda 1 --epsilon 0 --sigma 2 --dt 0.2244",
    # answered by Gauss-Hermite, and as-mc without noise
    "exponent as-quad --dt 0.1",
    f"exponent theta-as {_THETA} --dt 0.05",
    "exponent as-quad --lambda -2 --epsilon 0 --sigma 0.5 --dt 0.15",
    "exponent as-mc --sigma 0 --dt 1e-10 --samples 1000",
    "exponent as-quad --dt 0.01",
    *(f"exponent theta-as --theta 0.5 --epsilon 0 --dt {dt}" for dt in ("0.01", "0.1")),
    "exponent as-quad --lambda 6 --epsilon 0.5 --dt 0.05 --format csv",
    # gamma_dt one ulp above 1/2: F rounds to 0 at a node, a non-finite value
    "exponent as-quad --lambda -1.9583577306549547 --epsilon 0 --sigma 0.28859060741834547 "
    "--dt 0.25",
    # sweep-dt
    *(
        f"sweep-dt {method} {flags} {_SWEEP} --format {fmt}"
        for method, flags in _METHODS.items()
        for fmt in ("csv", "json")
    ),
    *(f"sweep-dt {method} {flags} {_SWEEP} --out s.csv" for method, flags in _METHODS.items()),
    f"sweep-dt ms-exact {_SWEEP} --format json --out s.json",
    "sweep-dt as-quad --dts 0.5,1e-3,1e-4,1e-5",
    "sweep-dt as-quad --dts 0.5,1e-3,1e-4",
    "sweep-dt as-quad --dts 0.5,1e-3,1e-4 --out s.csv",
    "sweep-dt as-quad --lambda -300 --sigma 1 --epsilon 0 --dts 1e-3,1e-4,1e-5,1e-6 --format json",
    *(
        f"sweep-dt ms-exact --lambda 0 --epsilon 0 --sigma 0 --format {fmt}"
        for fmt in ("csv", "json")
    ),
    "sweep-dt ms-exact --dts ,",
    # two threads through every row: each row's blocks or paths on one pool
    f"sweep-dt as-mc --samples 300000 --seed 3 {_SWEEP} --threads 2",
    f"sweep-dt as-slope {_SLOPE} {_SWEEP} --threads 2",
    # refused once, before any row, as exponent refuses them
    "sweep-dt theta-as",
    "sweep-dt theta-as --epsilon 0 --theta 2",
    "sweep-dt as-mc --samples 5",
    "sweep-dt as-slope --paths 1",
    "sweep-dt as-slope --steps 0",
    f"sweep-dt ms-exact {_SWEEP} --dt 0.1",
    # every method reads --theta: the plain methods run the theta scheme, at
    # theta 0 they give the plain bits, and at epsilon != 0 they refuse it
    *(
        f"exponent {method} {_METHODS[method]} {_THETA} --format {fmt}"
        for method in _PLAIN
        for fmt in ("csv", "json")
    ),
    *(f"sweep-dt {method} {_METHODS[method]} {_THETA} {_SWEEP}" for method in _PLAIN),
    *(f"exponent as-slope {_SLOPE} --epsilon 0{t} --format csv" for t in ("", " --theta 0")),
    "exponent ms-exact --theta 0.5",
    f"sweep-dt as-mc {_MC} --theta 0.5",
    # the plain scheme is the theta step at theta = 0, down to a signed zero
    *(f"exponent theta-as --theta {t} --lambda -0 --epsilon 0 --sigma 0" for t in ("0", "0.5")),
    "exponent as-mc --theta 0 --lambda -0 --epsilon 0 --sigma 0",
    # each method's region_class is that of its own sense: blow-up in mean
    # square and stable almost surely at one point, and a boundary point
    *(f"exponent {method} --lambda -0.5 --epsilon 0 --sigma 1.2 --format csv"
      for method in ("ms-exact", "as-quad")),
    "exponent theta-ms --theta 0.5 --lambda -0.5 --epsilon 0 --sigma 1.2",
    "exponent ms-exact --lambda 0 --epsilon 0 --sigma 0",
    # region
    *(f"region --lambda 2 --sigma-range 0:4:2 --format {fmt}" for fmt in ("csv", "json")),
    "region --lambda 0.72 --sigma-range 1.2:1.2:1 --format json",
    "region --format json --out r.json",
    "region --out r.csv",
    "region --sigma-range 1:0:1",
    "region --sigma-range 0:1:1 --threads 2",
    *(f"region --lambda -1e308 --sigma-range 0:1:1 --format {fmt}" for fmt in ("csv", "json")),
    # verify
    "verify --suite lemmas",
    "verify --suite closedform --out v.json",
    "verify --suite moments --samples 1000",
    "verify --suite moments --samples 10",
    "verify --suite moments --dt 1e-300 --samples 1000",
    "verify --suite lemmas --threads 2",
    # the noise rounds away against the step factors, so z cannot decide
    "verify --suite closedform --sigma 1e-15",
    "verify --suite nope",
    # argparse's own refusals: no subcommand, an unknown one, an option before
    # the subcommand, an unknown option after it
    "",
    "nope",
    "--lambda 1 exponent",
    "exponent ms-exact --bogus 1",
    # the quadrature rules of the route at every default step size, and a
    # sweep whose dt = 0.1 row is refused
    "sweep-dt as-quad",
    "sweep-dt theta-as --theta 0.5 --epsilon 0",
    # a config's suite is checked whatever the subcommand
    ("exponent ms-exact --config c.json", {"suite": "nope"}),
    # the initial datum, a config-file key that simulate alone reads
    *(
        (f"{_SIM}{theta} --config c.json --format {fmt}", datum)
        for datum in _DATUMS
        for theta in ("", f" {_THETA}")
        for fmt in ("csv", "json")
    ),
    *(
        (f"{call} --config c.json", {"x0": 0, "y0": 0})
        for call in (_SIM, "exponent ms-exact", "sweep-dt ms-exact")
    ),
    ("exponent as-slope --paths 5 --steps 1000 --config c.json", {"x0": 1e300}),
    # several errors at once, refused in one order: the theta scheme, dt, the
    # pole, the sample, step and path counts, then the almost-sure domain
    *(
        f"{command} {flags} --epsilon 0 --theta 1.5"
        for command in ("exponent", "sweep-dt")
        for flags in ("as-mc --samples 5", "as-slope --steps 0", "as-slope --paths 1")
    ),
    "exponent as-slope --epsilon 0 --theta 1.5 --dt 2",
    "exponent as-mc --samples 5 --dt 2",
    "exponent as-mc --samples 5 --lambda -600 --sigma 1 --epsilon 0",
    "simulate --steps 0 --dt 2",
    "simulate --paths 0 --epsilon 0 --theta 1.5",
    # sigma^2*dt underflows, and the suite's references with it
    "verify --suite moments --dt 1e-300 --sigma 1e-12 --samples 1000",
    # |sigma|*sqrt(dt) is subnormal: refused before any suite runs
    *(f"verify --suite {suite} --sigma 1e-320 --samples 1000" for suite in ("moments", "all")),
    # the sweep's edges: a refusal that reads no step size comes before the
    # continuum overflow, a refused row, one step size thrice (exit 2, no
    # rows), zero errors (rows, exit 1), and a fit constant that underflows
    # or overflows
    "sweep-dt as-mc --epsilon 1e200 --samples 5",
    "sweep-dt ms-exact --epsilon 1e200",
    "sweep-dt ms-exact --dts 1e-2,2,1e-3,1e-4 --format json",
    "sweep-dt ms-exact --dts 1e-2,1e-2,1e-2",
    "sweep-dt ms-exact --dts 1e-300,1e-301,1e-302",
    "sweep-dt as-quad --lambda 0 --epsilon 0 --sigma 1e-160 --dts 1e-2,1e-3,1e-4",
    "sweep-dt ms-exact --lambda -1.7976931348623157e308 --epsilon 0 --sigma 0 --format json",
    # path slopes whose M2 overflows, and slopes that overflow
    "exponent as-slope --dt 1e-310 --sigma 1e150 --paths 3 --steps 10",
    "exponent as-slope --paths 2 --steps 1 --sigma 1.3e154 --epsilon 0 --lambda 0 --dt 2e-310",
    # every step factor is exactly 0, so every path is -inf from its first step
    "exponent as-slope --lambda -1000 --epsilon 0 --sigma 0 --paths 3 --steps 100",
    "simulate --lambda -1000 --epsilon 0 --sigma 0 --paths 2 --steps 3",
]


def _split(entry) -> tuple[str, dict | None]:
    """(arguments, config or None) of a matrix entry."""
    return (entry, None) if isinstance(entry, str) else entry


def label(entry) -> str:
    """The entry as compare prints it: its arguments, then its config if any."""
    args, config = _split(entry)
    return args if config is None else f"{args} with c.json {json.dumps(config)}"


def run(src: str, entry) -> tuple:
    """(exit code, stdout, stderr, {file name: bytes}) of one matrix entry against src."""
    args, config = _split(entry)
    env = {
        **os.environ,
        "PYTHONPATH": str(Path(src).resolve()),
        "PYTHONDONTWRITEBYTECODE": "1",
        "COLUMNS": "80",
    }
    with tempfile.TemporaryDirectory() as cwd:
        if config is not None:
            Path(cwd, "c.json").write_text(json.dumps(config), encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, "-m", "milstab", *args.split()],
            cwd=cwd, env=env, capture_output=True, timeout=600,
        )
        files = {path.name: path.read_bytes() for path in sorted(Path(cwd).iterdir())}
    return proc.returncode, proc.stdout, proc.stderr, files


def compare(old_src: str, new_src: str, matrix=MATRIX) -> list[str]:
    """One line per run of matrix whose results differ between the trees."""

    def differs(entry) -> str | None:
        old, new = run(old_src, entry), run(new_src, entry)
        names = ("exit", "stdout", "stderr", "files")
        parts = [name for name, a, b in zip(names, old, new) if a != b]
        return f"{label(entry)}: {', '.join(parts)} differ" if parts else None

    with concurrent.futures.ThreadPoolExecutor(2) as pool:  # a 2-core host
        return [line for line in pool.map(differs, matrix) if line is not None]


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print("usage: python3 tools/cli_bytes.py OLD_SRC NEW_SRC", file=sys.stderr)
        return 2
    diffs = compare(*argv)
    for line in diffs:
        print(line)
    print(f"{len(MATRIX)} runs, {len(diffs)} differ")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
