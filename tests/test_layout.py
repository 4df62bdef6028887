"""Every function and method in `src/` is reached by the program.  A
module-level function has a caller in `src/`, a method of a `src/` class
has a reference in `src/` outside its own body, or else the benchmark's
tracer (`perfbench/tracing.py`) binds it by name.  Library code that only
tests call belongs in `tests/`.  A reference is any name or attribute
equal to the function's name.

The tracer's bindings are read from its own tables, so a deletion or a
rename that would break a traced benchmark run fails here as well."""

import ast
import importlib
import importlib.util
import inspect
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "quadring"


def _load_tracing():
    """perfbench/tracing.py, which imports only the standard library."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACING = _load_tracing()
# (module, attribute) of every function the tracer binds, and
# (module, class, attribute) of every method
TRACED = {(module, attr) for module, attr, *_ in TRACING.SPANS + TRACING.COUNTERS}
TRACED_METHODS = {(module, cls, attr) for module, cls, attr, _ in TRACING.METHOD_COUNTERS}


def _names(node: ast.AST) -> Counter:
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    )


def _module_name(path: Path) -> str:
    parts = path.relative_to(SRC.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _definitions() -> tuple[list[tuple[str, str]], list[tuple[str, str, str]], Counter]:
    """(module, name) of every module-level function, (module, class, name)
    of every method that is not a dunder, and the count of each name's
    references outside the bodies of the functions of that name."""
    functions, methods, refs, own = [], [], Counter(), Counter()
    for path in sorted(SRC.rglob("*.py")):
        module = _module_name(path)
        tree = ast.parse(path.read_text())
        refs += _names(tree)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                functions.append((module, node.name))
                own[node.name] += _names(node)[node.name]
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
                        item.name.startswith("__") and item.name.endswith("__")
                    ):
                        methods.append((module, node.name, item.name))
                        own[item.name] += _names(item)[item.name]
    return functions, methods, refs - own


def test_every_module_level_function_has_a_caller_in_src():
    functions, _, callers = _definitions()
    uncalled = [(module, name) for module, name in functions if not callers[name] and (module, name) not in TRACED]
    assert uncalled == []


def test_every_method_has_a_reference_in_src_or_is_traced():
    _, methods, callers = _definitions()
    unreferenced = [m for m in methods if not callers[m[2]] and m not in TRACED_METHODS]
    assert unreferenced == []


def test_the_names_only_the_tracer_calls_are_these_eight():
    # names the benchmark's tracer binds and nothing in `src/` calls: their
    # counters read 0 on every workload.  A deletion shrinks this set in the
    # same change, and a traced name that loses its last caller in `src/`
    # (`modmat.kernel_basis`, say) fails here
    _, _, callers = _definitions()
    assert {(module, attr) for module, attr in TRACED if not callers[attr]} == {
        ("quadring.quadform", "classify"),
        ("quadring.quadform", "count_projective_points"),
        ("quadring.modmat", "det_mod"),
        ("quadring.modmat", "rank_mod"),
        ("quadring.nslattice", "solve_pell_like"),
        ("quadring.gfp", "enumerate_projective"),
        ("quadring.netfib.search", "random_cubic_with_plane"),
        ("quadring.netfib.search", "random_verra_form"),
    }


def test_every_traced_name_resolves():
    for module in TRACING.QUADRING_MODULES:
        importlib.import_module(module)
    for module, attr in sorted(TRACED):
        assert callable(getattr(importlib.import_module(module), attr)), (module, attr)
    for module, cls, attr in sorted(TRACED_METHODS):
        assert callable(getattr(getattr(importlib.import_module(module), cls), attr)), (module, cls, attr)


def _bound_keys(stats) -> set[str]:
    """The argument names a span's statistics read as bound["name"]."""
    return {
        n.slice.value
        for n in ast.walk(ast.parse(inspect.getsource(stats)))
        if isinstance(n, ast.Subscript)
        and isinstance(n.value, ast.Name)
        and n.value.id == "bound"
        and isinstance(n.slice, ast.Constant)
    }


def test_span_statistics_read_parameters_of_their_function():
    reads = {(module, attr): _bound_keys(stats) for module, attr, stats in TRACING.SPANS if callable(stats)}
    assert reads[("quadring.netfib.family", "points_on_X")] == {"net", "field"}
    assert reads[("quadring.netfib.family", "lines_through_point")] == {"net", "field"}
    for (module, attr), keys in reads.items():
        params = inspect.signature(getattr(importlib.import_module(module), attr)).parameters
        assert keys <= params.keys(), (module, attr)


def test_the_cli_names_no_report_flag():
    # whether a prime is skipped or passed is decided by its report, in the
    # module that builds it; the command line reads only `skipped`, `passed`,
    # `text_line` and `to_document`
    flags = {"corank2_found", "singular_on_plane", "corank2_first", "corank2_second", "line_through_point_found"}
    assert flags & set(re.findall(r"\w+", (SRC / "cli.py").read_text())) == set()


def test_every_budget_default_is_that_of_count():
    # a layer that defaulted to another budget would stop a command at a
    # budget its user never set
    from quadring.cli import build_parser

    default = build_parser().parse_args(["count", "--net", "net.json"]).budget
    defaults = [
        (path.name, node.name, ast.literal_eval(value))
        for path in sorted(SRC.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for arg, value in zip(
            (node.args.posonlyargs + node.args.args)[::-1] + node.args.kwonlyargs,
            node.args.defaults[::-1] + node.args.kw_defaults,
        )
        if arg.arg == "budget" and value is not None
    ]
    assert defaults and all(value == default for *_, value in defaults), defaults
