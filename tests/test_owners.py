"""Source guards: each fact below is stated by one owner in src/milstab.

Sampled means and standard errors go through the (count, mean, M2) triples of
milstab.exponents (_moments_in_place, _merge, _std_error), so no module
reduces with numpy's std or var, and both sampling estimators report
_std_error's error bar. Path i of simulate and of as-slope is drawn from the
stream (seed, i) by exponents._simulate_paths alone. The theta scheme's
refusals are raised by milstab.scheme alone (_check_theta_scheme and
_factor), so each text occurs once. So is the one almost-sure domain
refusal (_StepFactor.check_domain), and the sandwich lemma's gamma_dt > 3/4
is refused by milstab.lemmas alone. The CLI's result tables are laid out by
cli._table alone; only simulate's streamed JSON head builds its own
{"params": ...} object, and simulate's separators and brackets are cli's:
milstab._floattext only writes numbers. The Gauss-Hermite node count of the
quadrature route is stated once, as exponents.QUAD_NODES, and no function but
gauss_hermite_rule (with the table cache it calls) takes a node count. The
Monte Carlo floor of 100 samples is refused in one text, exponents', which
verify's --samples shares. A path is log|Z_n/Z_0|, so the initial datum is
read by cli's simulate alone: no other function builds an InitialDatum, and
neither scheme nor exponents imports it. A scheme's factor has one
constructor, scheme._factor, the plain scheme being its step at theta = 0:
beside it only scheme._noise_factor builds a _StepFactor, and every
estimator, simulate_path and verify's closedform suite take their factor
from it. exponents._simulate_paths alone builds a SchemeConfig, after the
factor, and cli calls none of the scheme's checks, so every command refuses
in the estimators' order. The dt sweep is exponents.sweep_dt alone: it alone
calls fit_loglog, and cli's sweep-dt prints its rows and fit, calling neither
check_dt_free nor fit_loglog. cli._provenance alone writes the theta
provenance key. The records are milstab._record's, so no module imports
dataclasses, and the process entry, milstab.__main__, alone sets the
collector policy. exponents.SENSE alone maps a method to its sense, and
model's _CONTINUUM alone a sense to its continuum exponent, with no default
branch: estimate names every method and ends in a refusal.
"""

import ast
import re
from pathlib import Path

import pytest

import milstab

PACKAGE = Path(milstab.__file__).parent


def _trees():
    for path in sorted(PACKAGE.rglob("*.py")):
        yield path.name, ast.parse(path.read_text(), str(path))


def test_no_numpy_std_or_var_reduction():
    found = [
        (name, node.lineno)
        for name, tree in _trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in {"std", "var", "nanstd", "nanvar"}
    ]
    assert found == []


def _calls_in(function):
    """The names called inside function, whether bare or as an attribute."""
    return [
        node.func.id if isinstance(node.func, ast.Name) else node.func.attr
        for node in ast.walk(function)
        if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute))
    ]


def _functions():
    for name, tree in _trees():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                yield name, node


@pytest.mark.parametrize("estimator", ["as_exponent_mc", "as_exponent_path_slope"])
def test_sampling_estimators_report_std_error(estimator):
    (function,) = [node for name, node in _functions()
                   if name == "exponents.py" and node.name == estimator]
    calls = _calls_in(function)
    assert "_std_error" in calls
    assert "sqrt" not in calls


def _callers(callee):
    return sorted((name, node.name) for name, node in _functions() if callee in _calls_in(node))


def test_one_path_fan_out():
    assert _callers("simulate_path") == [("exponents.py", "_simulate_paths")]
    assert _callers("_simulate_paths") == [
        ("cli.py", "_cmd_simulate"), ("exponents.py", "estimate"),
    ]


def _modules_stating(text):
    """The module of each string constant that holds text, once per occurrence."""
    return [
        name
        for name, tree in _trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
        for _ in range(node.value.count(text))
    ]


@pytest.mark.parametrize(
    "text",
    ["theta scheme requires epsilon = 0", "theta must lie in [0, 1]", "implicit step ill-posed"],
)
def test_theta_refusal_stated_once(text):
    assert _modules_stating(text) == ["scheme.py"]


def test_sample_floor_stated_once():
    assert _modules_stating("samples must be at least") == ["exponents.py"]


def _statements_calling(callee):
    """(module, top-level statement name) of each statement that calls callee."""
    return sorted(
        (name, getattr(statement, "name", "<module>"))
        for name, tree in _trees()
        for statement in tree.body
        if callee in _calls_in(statement)
    )


def test_one_scheme_choice():
    assert _statements_calling("_StepFactor") == [("scheme.py", "_factor"),
                                                  ("scheme.py", "_noise_factor")]
    retired = re.compile(r"\b_(plain|theta)_factor\b")
    assert [path.name for path in PACKAGE.rglob("*.py") if retired.search(path.read_text())] == []
    # the estimators (as-slope's paths through simulate_path), the path
    # fan-out, which refuses before any path, simulate_path, verify's
    # closedform suite and the public scheme functions
    estimators = ["_simulate_paths", "as_exponent_mc", "as_exponent_quadrature",
                  "ms_exponent_exact", "theta_as_exponent_quadrature", "theta_ms_exponent"]
    assert _statements_calling("_factor") == [
        *(("exponents.py", name) for name in estimators),
        *(("scheme.py", name) for name in ["gamma_dt", "milstein_factor", "simulate_path",
                                           "theta_eta"]),
        ("verify.py", "_suite_closedform"),
    ]


def test_one_refusal_order():
    # the fan-out alone builds a SchemeConfig, after the factor, so simulate
    # and as-slope refuse the theta scheme, dt, the pole and n_steps in the
    # estimators' order; cli takes from scheme only the two path names the
    # benchmark's tracer patches, and calls none of the scheme's checks
    assert _statements_calling("SchemeConfig") == [("exponents.py", "_simulate_paths")]
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    from_scheme = sorted(
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "scheme"
        for alias in node.names
    )
    assert from_scheme == ["simulate_path", "simulate_theta_path"]
    called = set(_calls_in(tree))
    assert called & {"_factor", "theta_eta", "SchemeConfig"} == set()


def test_one_dt_sweep():
    assert _callers("fit_loglog") == [("exponents.py", "sweep_dt")]
    assert _callers("sweep_dt") == [("cli.py", "_cmd_sweep_dt")]
    called = set(_calls_in(ast.parse((PACKAGE / "cli.py").read_text())))
    assert called & {"check_dt_free", "fit_loglog"} == set()


def test_only_provenance_writes_theta():
    writers = sorted(
        (name, statement.name)
        for name, tree in _trees()
        for statement in tree.body
        for node in ast.walk(statement)
        if isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store)
        and isinstance(node.slice, ast.Constant) and node.slice.value == "theta"
    )
    assert writers == [("cli.py", "_provenance")]


def test_only_simulate_builds_an_initial_datum():
    builders = [
        (name, getattr(statement, "name", "<module>"))
        for name, tree in _trees()
        for statement in tree.body
        if "InitialDatum" in _calls_in(statement)
    ]
    assert builders == [("cli.py", "_cmd_simulate")]
    importers = [
        name
        for name, tree in _trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and any(alias.name == "InitialDatum" for alias in node.names)
    ]
    assert importers == ["cli.py"]


@pytest.mark.parametrize(
    "text, owner",
    [("must be positive for the almost-sure exponent estimators", "scheme.py"),
     ("must exceed 3/4", "lemmas.py")],
    ids=["estimators", "lemma"],
)
def test_domain_refusal_stated_once(text, owner):
    assert _modules_stating(text) == [owner]


def test_result_table_layout_has_one_owner():
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    owners = [
        getattr(statement, "name", "<module>")
        for statement in tree.body
        for node in ast.walk(statement)
        if isinstance(node, ast.Dict)
        and any(isinstance(key, ast.Constant) and key.value == "params" for key in node.keys)
    ]
    assert sorted(owners) == ["_cmd_simulate", "_table"]


def test_floattext_names_no_separator():
    tree = ast.parse((PACKAGE / "_floattext.py").read_text())
    docstrings = {
        id(node.body[0].value)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.FunctionDef)) and ast.get_docstring(node)
    }
    texts = [
        node.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
        and id(node) not in docstrings
    ]
    assert [text for text in texts if set(text) & set("[],\n")] == []
    imports = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    ]
    assert "json" not in imports


def test_node_count_stated_once():
    # 201 nodes, checked against 402, by one constant of exponents
    found = [
        name
        for name, tree in _trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and type(node.value) is int and node.value in (201, 402)
    ]
    assert found == ["exponents.py"]
    assert milstab.exponents.QUAD_NODES == 201


#: The builders of a Gauss-Hermite rule, each called with its node count.
_RULE_BUILDERS = {"gauss_hermite_rule", "_hermite_table"}


def _node_count_takers(tree):
    """Each function with a parameter that reaches a rule builder's node count,
    or named nodes, by function name; a lambda is "<lambda>"."""
    takers = []

    def visit(node, params, owner):
        if isinstance(node, (ast.FunctionDef, ast.Lambda)):
            args = node.args
            own = {a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)}
            owner = getattr(node, "name", "<lambda>")
            if "nodes" in own:
                takers.append(owner)
            params = params | own
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) in _RULE_BUILDERS:
            names = {n.id for arg in node.args for n in ast.walk(arg) if isinstance(n, ast.Name)}
            if names & params:
                takers.append(owner)
        for child in ast.iter_child_nodes(node):
            visit(child, params, owner)

    visit(tree, frozenset(), None)
    return takers


def test_only_the_rule_takes_a_node_count():
    takers = [(name, owner) for name, tree in _trees() for owner in _node_count_takers(tree)]
    assert takers == [("stochastics.py", "gauss_hermite_rule")]


def _imports(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_no_module_imports_dataclasses():
    found = [name for name, tree in _trees() if "dataclasses" in _imports(tree)]
    assert found == []


def test_only_the_entry_uses_the_collector():
    users = sorted({
        name
        for name, tree in _trees()
        if "gc" in _imports(tree)
        or any(isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
               and node.value.id == "gc" for node in ast.walk(tree))
    })
    assert users == ["__main__.py"]


def _statement_name(statement):
    """The name a top-level def, class or single-name assignment binds."""
    if isinstance(statement, ast.Assign):
        return getattr(statement.targets[0], "id", "<module>")
    return getattr(statement, "name", "<module>")


def test_one_sense_table():
    # exponents.SENSE maps each method to its sense and model's table each
    # sense to its continuum exponent; no other statement names a sense by
    # a branch, and estimate refuses what is not a method
    stating = sorted({
        (name, _statement_name(statement))
        for name, tree in _trees()
        for statement in tree.body
        for node in ast.walk(statement)
        if isinstance(node, ast.Attribute) and node.attr == "MEAN_SQUARE"
        and isinstance(node.value, ast.Name) and node.value.id == "Sense"
    })
    assert stating == [("exponents.py", "SENSE"), ("model.py", "_CONTINUUM")]
    retired = re.compile(r"\b(RegionClass|MS_METHODS)\b")
    assert [path.name for path in PACKAGE.rglob("*.py") if retired.search(path.read_text())] == []
    (function,) = [node for name, node in _functions()
                   if name == "exponents.py" and node.name == "estimate"]
    assert isinstance(function.body[-1], ast.Raise)
