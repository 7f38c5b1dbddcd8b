"""The default lint configuration names functions that exist.

R001, R005, R006 and R008 look functions up by qualname and check
nothing for a name that matches no function.  A renamed or deleted
hot loop would therefore turn its rules off without a single finding;
these tests make that a failure instead.
"""

import ast
import pathlib

import pytest

from repro.lint import LintConfig
from repro.lint.rules import _loop_bodies, _qualified_functions

SRC = pathlib.Path(__file__).resolve().parents[2] / "src"
DEFAULTS = LintConfig()


def src_functions():
    """``{qualname: [FunctionDef, ...]}`` over every module in src/."""
    functions = {}
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for qualname, func in _qualified_functions(tree):
            functions.setdefault(qualname, []).append(func)
    return functions


FUNCTIONS = src_functions()


@pytest.mark.parametrize("field", [
    "hot_loops", "chunked_hot_loops", "effect_hot_loops", "cache_roots",
])
def test_every_name_is_a_function_in_src(field):
    names = getattr(DEFAULTS, field)
    assert names
    missing = [name for name in names if name not in FUNCTIONS]
    assert missing == [], f"{field} names no function: {missing}"


@pytest.mark.parametrize("field", ["hot_loops", "chunked_hot_loops"])
def test_every_hot_loop_has_a_loop(field):
    loopless = [
        name for name in getattr(DEFAULTS, field)
        if not any(
            next(_loop_bodies(func), None) is not None
            for func in FUNCTIONS.get(name, ())
        )
    ]
    assert loopless == [], f"{field} entries without a loop: {loopless}"

