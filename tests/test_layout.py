"""Every module-level function in `src/` has a caller in `src/`: library
code that only tests call belongs in `tests/`.  A caller is any reference
to the function's name outside its own body."""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "quadring"

# names kept without a caller in src/, each with its reason
ALLOWED = {
    "classify": "the perfbench tracer binds it by name",
    "count_projective_points": "the perfbench tracer binds it by name",
    "det_mod": "the perfbench tracer binds it by name",
    "solve_pell_like": "the perfbench tracer binds it by name",
    "enumerate_projective": "the perfbench tracer binds it by name",
    "determinant_of_linear_matrix": "the tests' oracle for the determinant double cover",
    "count_reduced_family_dual": "the tests' oracle for the reduced family count",
    "random_cubic_with_plane": "perfbench draws the recipes-disc cubic with it",
    "random_verra_form": "perfbench draws the recipes-disc (2,2) form with it",
}


def _names(node: ast.AST) -> Counter:
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    )


def _module_functions() -> tuple[list[tuple[str, str]], Counter]:
    """(module, name) of every module-level function, and the count of each
    name's references outside the bodies of the functions of that name."""
    functions, refs, own = [], Counter(), Counter()
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text())
        refs += _names(tree)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                functions.append((str(path.relative_to(SRC)), node.name))
                own[node.name] += _names(node)[node.name]
    return functions, refs - own


def test_every_module_level_function_has_a_caller_in_src():
    functions, callers = _module_functions()
    uncalled = [(module, name) for module, name in functions if not callers[name] and name not in ALLOWED]
    assert uncalled == []


def test_every_allowed_name_is_a_module_level_function():
    functions, _ = _module_functions()
    assert set(ALLOWED) <= {name for _, name in functions}
