"""Source guards: each fact below is stated by one owner in src/milstab.

Sampled means and standard errors go through the (count, mean, M2) triples of
milstab.exponents (_moments_in_place, _merge, _std_error), so no module
reduces with numpy's std or var. The theta scheme's refusals are raised by
milstab.scheme alone (_check_theta_scheme and _theta_factor), so each text
occurs once.
"""

import ast
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


@pytest.mark.parametrize(
    "text", ["theta scheme requires epsilon = 0", "implicit step ill-posed"]
)
def test_theta_refusal_stated_once(text):
    found = [
        (name, node.lineno)
        for name, tree in _trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
        for _ in range(node.value.count(text))
    ]
    assert [name for name, _ in found] == ["scheme.py"]
