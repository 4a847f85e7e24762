"""The package's count of keyword knobs: parameters with a default.

Every ``def`` and ``lambda`` under ``src/aumann`` counts its positional
defaults and its keyword-only defaults. Fewer options for the same verdicts
is a design aim, so the count may fall but not rise: a change that adds a
knob raises ``MAX_DEFAULTS`` here and says why in CHANGES.md.
"""

import ast
from pathlib import Path

import aumann

MAX_DEFAULTS = 40


def _parameters_with_a_default(source: str) -> int:
    count = 0
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            count += len(node.args.defaults) + sum(d is not None for d in node.args.kw_defaults)
    return count


def test_counting_rule():
    source = "def f(a, b=1, *c, d, e=2, **g): pass\nh = lambda x=0, *, y=1, z: x\n"
    source += "class K:\n    def m(self, t=3): pass\n"
    assert _parameters_with_a_default(source) == 5


def test_parameters_with_a_default_do_not_grow():
    package = Path(aumann.__file__).parent
    count = sum(_parameters_with_a_default(path.read_text()) for path in sorted(package.glob("*.py")))
    assert count <= MAX_DEFAULTS, f"{count} parameters with a default, pinned at {MAX_DEFAULTS}"
