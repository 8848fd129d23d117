"""numpy loads on first array use: the closed-form calls never import it.

Neither do the almost-sure quadrature calls that the root series answers,
nor the sweeps of closed-form methods, whose fit is pure Python.

The package namespace loads each module on the first read of one of its
names, and the thread pool module loads only when a pool starts. Each case
runs in a fresh interpreter, since this test process has all of them
loaded already.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import numpy
import pytest
from conftest import src_env

import milstab
from milstab import _np, cli
from milstab.exponents import _usable_cpus

#: Runs cli.main on argv and reports on stderr's last line whether numpy got
#: loaded, and on which thread it was first imported.
_MAIN = """
import sys, threading

first = []

class FirstNumpyImport:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and not first:
            first.append(threading.current_thread() is threading.main_thread())
        return None

sys.meta_path.insert(0, FirstNumpyImport())
from milstab import cli

try:
    code = cli.main(sys.argv[1:])
except SystemExit as exc:
    code = exc.code
sys.stdout.flush()
where = "not imported" if not first else "main thread" if first[0] else "worker thread"
sys.stderr.write(f"numpy: {where}\\n")
sys.exit(code)
"""


def run_fresh(*args):
    """(exit code, stdout, stderr without the probe line, where numpy was first imported)."""
    proc = subprocess.run(
        [sys.executable, "-c", _MAIN, *args],
        capture_output=True,
        text=True,
        env=src_env(),
        timeout=120,
    )
    *err, probe = proc.stderr.splitlines(keepends=True)
    assert probe.startswith("numpy: "), proc.stderr
    return proc.returncode, proc.stdout, "".join(err), probe.removeprefix("numpy: ").strip()


REGION = "--sigma-range", "3.9:4.1:0.1"

#: (argv, exit code, stdout, stderr) of calls that build no array.
NUMPY_FREE = [
    (
        ("exponent", "ms-exact"),
        0,
        '{"method": "ms-exact", "dt": 0.001, "value": 17.793598421964813, '
        '"continuum_value": 18.0, "region_class": "blow-up"}\n',
        "",
    ),
    (
        ("exponent", "ms-exact", "--format", "csv"),
        0,
        "# epsilon=2.0\n# lambda=8.0\n# method=ms-exact\n# sigma=4.0\n"
        "method,dt,value,std_error,continuum_value,region_class\n"
        "ms-exact,0.001,17.793598421964813,,18.0,blow-up\n",
        "",
    ),
    (
        ("exponent", "theta-ms", "--theta", "0.5", "--epsilon", "0"),
        0,
        '{"method": "theta-ms", "dt": 0.001, "value": 15.936592262812619, '
        '"continuum_value": 16.0, "region_class": "blow-up"}\n',
        "",
    ),
    # a plain method given --theta runs the theta scheme, still without numpy
    (
        ("exponent", "ms-exact", "--epsilon", "0", "--theta", "0.5"),
        0,
        '{"method": "ms-exact", "dt": 0.001, "value": 15.936592262812619, '
        '"continuum_value": 16.0, "region_class": "blow-up"}\n',
        "",
    ),
    (
        ("region", *REGION),
        0,
        "# lambda=8.0\n# sigma-range=3.9:4.1:0.1\n"
        "sigma,epsilon_boundary_plus,epsilon_boundary_minus,class_at_epsilon_0\n"
        "3.9,,,blow-up\n4.0,0.0,0.0,boundary\n"
        "4.1,0.8999999999999992,-0.8999999999999992,stable\n",
        "",
    ),
    (
        ("region", *REGION, "--format", "json"),
        0,
        '{"params": {"lambda": 8.0, "sigma-range": "3.9:4.1:0.1"}, "rows": ['
        '{"sigma": 3.9, "epsilon_boundary_plus": null, "epsilon_boundary_minus": null, '
        '"class_at_epsilon_0": "blow-up"}, '
        '{"sigma": 4.0, "epsilon_boundary_plus": 0.0, "epsilon_boundary_minus": 0.0, '
        '"class_at_epsilon_0": "boundary"}, '
        '{"sigma": 4.1, "epsilon_boundary_plus": 0.8999999999999992, '
        '"epsilon_boundary_minus": -0.8999999999999992, "class_at_epsilon_0": "stable"}]}\n',
        "",
    ),
    (
        ("exponent", "ms-exact", "--dt", "2"),
        2,
        '{"error": "dt must lie in (0, 1), got 2.0"}\n',
        "",
    ),
    (("verify", "--suite", "all", "--dt", "1.5"), 2, "", "error: dt must lie in (0, 1), got 1.5\n"),
    (("verify", "--samples", "5"), 2, "", "error: n_samples must be at least 100, got 5\n"),
    (
        ("exponent", "as-quad"),
        0,
        '{"method": "as-quad", "dt": 0.001, "value": 2.109433848084378, '
        '"continuum_value": 2.0, "region_class": "blow-up"}\n',
        "",
    ),
    (
        ("exponent", "theta-as", "--theta", "0.5", "--epsilon", "0"),
        0,
        '{"method": "theta-as", "dt": 0.001, "value": 0.06443427410748065, '
        '"continuum_value": 0.0, "region_class": "boundary"}\n',
        "",
    ),
    (
        ("exponent", "as-quad", "--epsilon", "0", "--theta", "0.5"),
        0,
        '{"method": "as-quad", "dt": 0.001, "value": 0.06443427410748065, '
        '"continuum_value": 0.0, "region_class": "boundary"}\n',
        "",
    ),
    (
        ("sweep-dt", "ms-exact"),
        0,
        "# dts=1e-1,1e-2,1e-3,1e-4,1e-5\n# epsilon=2.0\n# lambda=8.0\n# method=ms-exact\n"
        "# sigma=4.0\ndt,discrete_value,continuum_value,abs_error\n"
        "0.1,9.643093259726262,18.0,8.356906740273738\n"
        "0.01,16.20552145326662,18.0,1.7944785467333801\n"
        "0.001,17.793598421964813,18.0,0.20640157803518733\n"
        "0.0001,17.979036644961973,18.0,0.020963355038027487\n"
        "1e-05,17.997900367124814,18.0,0.0020996328751863302\n"
        '# fit={"constant_C": 92.58587981208142, "order_p": 0.9132281863958612, '
        '"residual": 0.1312710158396001, "dts": [0.1, 0.01, 0.001, 0.0001, 1e-05], '
        '"errors": [8.356906740273738, 1.7944785467333801, 0.20640157803518733, '
        '0.020963355038027487, 0.0020996328751863302]}\n',
        "",
    ),
    # the domain refusal comes before the route, so it builds no array
    (
        ("exponent", "as-quad", "--lambda", "-600", "--sigma", "1"),
        2,
        '{"error": "the step factor\'s lower bound c0 - 1/(2*denom) = -0.09850000000000003 '
        'must be positive for the almost-sure exponent estimators"}\n',
        "",
    ),
    # gamma_dt = 0.7015, inside the domain F > 0 though below the lemma's 3/4
    (
        ("exponent", "as-quad", "--lambda", "-300", "--sigma", "1"),
        0,
        '{"method": "as-quad", "dt": 0.001, "value": -354.8371822311293, '
        '"continuum_value": -298.5, "region_class": "stable"}\n',
        "",
    ),
    (
        ("sweep-dt", "ms-exact", "--dts", "1e-3,1e-3,1e-3"),
        2,
        "",
        "error: a fit needs at least 2 distinct step sizes, got [0.001]\n",
    ),
]


@pytest.mark.parametrize(
    "args, code, out, err", NUMPY_FREE, ids=[" ".join(case[0]) for case in NUMPY_FREE]
)
def test_closed_form_calls_skip_numpy(args, code, out, err):
    assert run_fresh(*args) == (code, out, err, "not imported")


@pytest.mark.parametrize(
    "command, text, refusal",
    [
        ("exponent", '{"bogus": 1}', "unknown config key 'bogus'"),
        ("verify", '{"suite": "nope"}', "unknown verify suite 'nope'"),
    ],
    ids=["key", "suite"],
)
def test_config_refusals_skip_numpy(tmp_path, command, text, refusal):
    config = tmp_path / "run.json"
    config.write_text(text)
    result = run_fresh(command, "--config", str(config))
    assert result == (2, "", f"error: {refusal}\n", "not imported")


def test_help_skips_numpy(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0
    assert run_fresh("--help") == (0, capsys.readouterr().out, "", "not imported")


def test_package_import_skips_numpy():
    code = (
        "import sys, milstab, milstab.cli\n"
        "from milstab import _floattext, _np\n"
        "if _floattext._tables.cache_info().currsize or _floattext._templates.cache_info().currsize:\n"
        "    raise SystemExit('a formatter table got built')\n"
        "try:\n"
        "    _np.__getattr__('__foo__')\n"
        "except AttributeError:\n"
        "    pass\n"
        "else:\n"
        "    raise SystemExit('a dunder name got through')\n"
        "print('numpy' in sys.modules)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=src_env(), timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


#: Runs cli.main on argv, then reports on stderr's last line which of verify
#: and lemmas got loaded.
_VERIFY_PROBE = """
import sys
from milstab import cli

try:
    code = cli.main(sys.argv[1:])
except SystemExit as exc:  # argparse's help
    code = exc.code
sys.stdout.flush()
sys.stderr.write(f"{sorted({'milstab.verify', 'milstab.lemmas'} & set(sys.modules))}\\n")
sys.exit(code)
"""

#: (argv, exit code, the verify modules loaded): only verify loads them.
VERIFY_USE = [
    (("exponent", "ms-exact"), 0, []),
    (("exponent", "as-quad", "--dt", "0.1"), 0, []),
    (("simulate", "--steps", "10", "--paths", "2"), 0, []),
    (("sweep-dt", "as-quad", "--dts", "1e-1,1e-2,1e-3"), 0, []),
    (("region", *REGION), 0, []),
    (("verify", "--help"), 0, []),
    (("verify", "--suite", "lemmas"), 0, ["milstab.lemmas", "milstab.verify"]),
]


@pytest.mark.parametrize(
    "args, code, loaded", VERIFY_USE, ids=[" ".join(case[0]) for case in VERIFY_USE]
)
def test_only_verify_loads_verify_and_lemmas(args, code, loaded):
    proc = subprocess.run(
        [sys.executable, "-c", _VERIFY_PROBE, *args],
        capture_output=True, text=True, env=src_env(), timeout=120,
    )
    assert proc.returncode == code, proc.stderr
    assert proc.stderr.splitlines()[-1] == str(loaded)


def test_cli_reads_the_traced_verify_names_on_first_use():
    out = _python(
        "import sys\n"
        "from milstab import cli\n"
        "print('milstab.verify' in sys.modules)\n"
        "from milstab import lemmas, stochastics\n"
        "print(cli.xi_gamma is lemmas.xi_gamma,\n"
        "      cli.gauss_hermite_rule is stochastics.gauss_hermite_rule,\n"
        "      'milstab.verify' in sys.modules, 'xi_gamma' in vars(cli))\n"
        "try:\n"
        "    cli.no_such_name\n"
        "except AttributeError as exc:\n"
        "    print(exc)\n"
    )
    assert out == (
        "False\nTrue True True True\nmodule 'milstab.cli' has no attribute 'no_such_name'\n"
    )


def test_cli_states_the_verify_suites_in_order():
    from milstab import verify

    assert cli._CHOICES["suite"] == [*verify.SUITES, "all"]


#: Runs cli.main on argv with numpy.linalg.eigh replaced by a function that raises.
_NO_EIGH = """
import sys
import numpy.linalg

def refuse(*args, **kwargs):
    raise RuntimeError("eigh ran")

numpy.linalg.eigh = refuse
from milstab import cli

sys.exit(cli.main(sys.argv[1:]))
"""


@pytest.mark.parametrize(
    "args", [("exponent", "as-quad", "--dt", "0.1"), ("sweep-dt", "as-quad")],
    ids=["exponent", "sweep-dt"],
)
def test_the_quadrature_route_runs_no_eigensolve(args):
    # its two rules are the shipped ones, loaded with no eigh
    def run(code):
        proc = subprocess.run(
            [sys.executable, "-c", code, *args],
            capture_output=True, text=True, env=src_env(), timeout=120,
        )
        return proc.returncode, proc.stdout, proc.stderr

    plain = run("import sys\nfrom milstab import cli\nsys.exit(cli.main(sys.argv[1:]))")
    assert plain[0] == 0 and plain[1]
    assert run(_NO_EIGH) == plain


def test_cli_import_skips_dataclasses_and_inspect():
    # the records are milstab._record's, which generates no code per class
    code = "import sys, milstab.cli\nprint(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    assert _python(code) == "[]\n"


def test_xi_expectation_and_gaussian_moment_skip_numpy():
    code = (
        "import sys\n"
        "from milstab.lemmas import gaussian_moment, xi_expectation\n"
        "from milstab.model import ModelParams\n"
        "assert xi_expectation(ModelParams(8.0, 2.0, 4.0), 1e-3) < 0.0\n"
        "assert gaussian_moment(4, 1e-3) > 0.0\n"
        "print('numpy' in sys.modules)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=src_env(), timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_names_resolve_to_numpy_and_stay():
    assert _np.ndarray is numpy.ndarray
    assert vars(_np)["ndarray"] is numpy.ndarray


#: Calls whose arrays are built on pool threads, at sizes that give the pool
#: more than one task. Only as-mc reaches the pool before any numpy use; the
#: other two validate their SchemeConfig, which reads np.integer, first.
THREADED = [
    (("exponent", "as-mc", "--samples", "600000", "--seed", "5"), True),
    (("exponent", "as-slope", "--paths", "4", "--steps", "300", "--seed", "5"), False),
    (("simulate", "--paths", "4", "--steps", "300", "--seed", "5"), False),
]


@pytest.mark.parametrize("args, in_worker", THREADED, ids=["as-mc", "as-slope", "simulate"])
def test_first_numpy_use_on_pool_threads(args, in_worker):
    code, serial, err, first = run_fresh(*args, "--threads", "1")
    assert (code, err, first) == (0, "", "main thread")
    code, pooled, err, first = run_fresh(*args, "--threads", "2")
    assert (code, err) == (0, "")
    assert pooled == serial
    if in_worker and _usable_cpus() > 1:
        assert first == "worker thread"


def _numpy_imports(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module or ""]
        else:
            continue
        for name in names:
            if name == "numpy" or name.startswith("numpy."):
                yield node.lineno


def test_only_np_module_imports_numpy():
    package = Path(milstab.__file__).parent
    found = {
        path.name: lines
        for path in sorted(package.rglob("*.py"))
        if path.name != "_np.py"
        if (lines := list(_numpy_imports(ast.parse(path.read_text(), str(path)))))
    }
    assert found == {}
    np_module = ast.parse((package / "_np.py").read_text())
    assert list(_numpy_imports(np_module))


def test_only_scheme_evaluates_a_factor_at_increments():
    # the other modules evaluate a step factor through _StepFactor.of_normals
    # alone, so its arithmetic lives in scheme.py and paths, Monte Carlo,
    # quadrature and the verify suites share one kernel's bits
    package = Path(milstab.__file__).parent
    scheme = ast.parse((package / "scheme.py").read_text())
    (factor,) = [node for node in scheme.body
                 if isinstance(node, ast.ClassDef) and node.name == "_StepFactor"]
    # beside the kernel at, the methods state the factor's domain and moments
    facts = {"check_domain", "ms_base_m1", "ms_log_base"}
    evaluators = {node.name for node in factor.body if isinstance(node, ast.FunctionDef)} - facts
    assert evaluators == {"at", "of_normals"}
    found = sorted({
        (path.name, function.name, node.func.attr)
        for path in sorted(package.rglob("*.py"))
        if path.name != "scheme.py"
        for function in ast.parse(path.read_text(), str(path)).body
        if isinstance(function, ast.FunctionDef)
        for node in ast.walk(function)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in evaluators
    })
    assert found == [
        ("exponents.py", "_mc_block", "of_normals"),
        ("exponents.py", "_quad", "of_normals"),
        ("verify.py", "_suite_closedform", "of_normals"),
        ("verify.py", "_suite_moments", "of_normals"),
    ]


def _module_level_imports(tree):
    """Modules imported when the module itself runs: function bodies are skipped."""
    nodes = list(tree.body)
    while nodes:
        node = nodes.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module or ""
        nodes.extend(ast.iter_child_nodes(node))


def test_no_module_imports_concurrent_futures_at_module_level():
    package = Path(milstab.__file__).parent
    found = [
        (path.name, name)
        for path in sorted(package.rglob("*.py"))
        for name in _module_level_imports(ast.parse(path.read_text(), str(path)))
        if name.split(".")[0] == "concurrent"
    ]
    assert found == []


def _python(code, *args):
    """stdout of a fresh interpreter running code, which must exit 0."""
    proc = subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True,
        text=True,
        env=src_env(),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


#: Prints the milstab submodules loaded so far.
_LOADED = "import sys\nprint(sorted(m for m in sys.modules if m.startswith('milstab.')))\n"

#: (statements, the milstab submodules loaded after them).
FIRST_USE = [
    ("import milstab", []),
    ("from milstab import ModelParams", ["milstab._record", "milstab.model"]),
    ("import milstab\nassert milstab.__version__ == '0.1.0'", []),
    (
        "import milstab\n"
        "for name in ('no_such_name', '__wrapped__', '', 'model.x'):\n"
        "    try:\n"
        "        getattr(milstab, name)\n"
        "    except AttributeError:\n"
        "        pass\n"
        "    else:\n"
        "        raise SystemExit(f'{name!r} resolved')",
        [],
    ),
]


@pytest.mark.parametrize(
    "statements, loaded", FIRST_USE, ids=["import", "from-import", "version", "unknown"]
)
def test_package_loads_modules_on_first_use(statements, loaded):
    assert _python(f"{statements}\n{_LOADED}") == f"{loaded}\n"


def test_star_import_and_dir_list_every_public_name():
    out = _python(
        "import milstab\n"
        "print(sorted(set(milstab.__all__) - set(dir(milstab))))\n"
        "from milstab import *\n"
        "print(len(set(milstab.__all__)), [n for n in milstab.__all__ if n not in globals()])"
    )
    assert out == "[]\n50 []\n"


def test_submodules_resolve_as_attributes():
    out = _python(
        "import sys, milstab\n"
        "print(milstab.exponents is sys.modules['milstab.exponents'])\n"
        "from milstab import verify\n"
        "print(verify.__name__, sorted(verify.SUITES))"
    )
    assert out == "True\nmilstab.verify ['closedform', 'lemmas', 'moments']\n"


#: Runs cli.main on argv, then prints whether concurrent.futures got loaded.
_POOL_PROBE = """
import sys
from milstab import cli

code = cli.main(sys.argv[1:])
print("concurrent.futures" in sys.modules)
sys.exit(code)
"""

#: (argv, whether it loads concurrent.futures): only a call that starts a pool does.
POOL_USE = [
    (("exponent", "ms-exact"), False),
    (("exponent", "as-mc", "--samples", "1000", "--threads", "1"), False),
    (("simulate", "--steps", "10", "--paths", "2"), False),
    (("verify", "--suite", "moments", "--samples", "1000"), False),
    (("exponent", "as-mc", "--samples", "600000", "--threads", "2"), _usable_cpus() > 1),
]


@pytest.mark.parametrize("args, loaded", POOL_USE, ids=[" ".join(a) for a, _ in POOL_USE])
def test_pool_module_loads_only_with_a_pool(args, loaded):
    assert _python(_POOL_PROBE, *args).splitlines()[-1] == str(loaded)


def test_cli_imports_three_private_sibling_names():
    # the verify suites live in milstab.verify, the worker pool sizes itself
    # and exponents fans the paths out, so cli needs no other internals
    tree = ast.parse(Path(cli.__file__).read_text())
    private = sorted(
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level and node.module
        for alias in node.names
        if alias.name.startswith("_")
    )
    assert private == ["_U64", "_map_indexed", "_simulate_paths"]


#: Runs cli.main on argv, if any, after `import milstab`; prints the OpenBLAS
#: thread setting numpy saw when it loaded (none if it did not) and the one left.
_BLAS_PROBE = """
import os, sys

seen = []

class AtNumpyImport:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and not seen:
            seen.append(os.environ.get("OPENBLAS_NUM_THREADS"))
        return None

sys.meta_path.insert(0, AtNumpyImport())
import milstab

if sys.argv[1:]:
    from milstab import cli

    assert cli.main(sys.argv[1:]) == 0
print(seen, os.environ.get("OPENBLAS_NUM_THREADS"))
"""

SIMULATE_QUIETLY = ("simulate", "--steps", "10", "--paths", "2", "--out", os.devnull)


@pytest.mark.parametrize(
    "args, preset, printed",
    [
        (SIMULATE_QUIETLY, None, "['1'] 1"),  # one BLAS thread from the first numpy import
        (SIMULATE_QUIETLY, "3", "['3'] 3"),  # a user's own setting is kept
        ((), None, "[] None"),  # the library leaves the environment alone
    ],
    ids=["cli", "preset", "import"],
)
def test_cli_runs_numpy_with_one_blas_thread(args, preset, printed):
    env = src_env()
    env.pop("OPENBLAS_NUM_THREADS", None)
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    proc = subprocess.run(
        [sys.executable, "-c", _BLAS_PROBE, *args],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == printed + "\n"
