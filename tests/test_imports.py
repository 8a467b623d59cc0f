import ast
import importlib
import inspect
from pathlib import Path

import sortnetopt

PACKAGE = Path(sortnetopt.__file__).parent


def _intra_package_imports() -> dict[str, set[str]]:
    """Module -> the package modules it imports with `from .x import ...` or
    `from . import x`, at any depth of the file, function bodies included."""
    modules = {p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__"}
    graph = {}
    for name in modules:
        tree = ast.parse((PACKAGE / f"{name}.py").read_text())
        deps = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                targets = [node.module] if node.module else [a.name for a in node.names]
                deps |= {t.split(".")[0] for t in targets} & modules
        graph[name] = deps
    return graph


def _cycle(graph: dict[str, set[str]]) -> list[str] | None:
    """One import cycle as a path that ends where it starts, or None."""
    state = {}   # module -> "open" while on the stack, "done" after

    def visit(node: str, path: list[str]) -> list[str] | None:
        state[node] = "open"
        for dep in sorted(graph[node]):
            if state.get(dep) == "open":
                return path[path.index(dep):] + [dep]
            if dep not in state and (found := visit(dep, path + [dep])):
                return found
        state[node] = "done"
        return None

    for start in sorted(graph):
        if start not in state and (found := visit(start, [start])):
            return found
    return None


def test_cycle_finder_sees_a_cycle():
    assert _cycle({"a": {"b"}, "b": {"c"}, "c": {"a"}}) == ["a", "b", "c", "a"]
    assert _cycle({"a": {"b"}, "b": set(), "c": {"a", "b"}}) is None


def test_package_imports_have_no_cycle():
    graph = _intra_package_imports()
    assert _cycle(graph) is None, " -> ".join(_cycle(graph))
    # saturation builds on words, and words needs nothing from saturation
    assert "words" in graph["saturation"] and "saturation" not in graph["words"]


def test_package_imports_nothing_from_tests():
    # the oracles check the pipeline from outside it: no module of the
    # package imports them, or any other module under tests/
    tests_dir = Path(__file__).parent
    test_modules = {p.stem for p in tests_dir.glob("*.py")} | {"tests"}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            bad = {name.split(".")[0] for name in names} & test_modules
            assert not bad, f"{path.name}:{node.lineno} imports {sorted(bad)}"


def test_public_names_are_pipeline_code():
    # __all__ lists the package's own objects: none is defined in tests/
    for name in sortnetopt.__all__:
        obj = getattr(sortnetopt, name)
        module = obj.__name__ if inspect.ismodule(obj) else obj.__module__
        assert module.startswith("sortnetopt"), (name, module)


def _bench_trace_targets() -> list[tuple[str, str]]:
    """(module, attribute) of every target that bench/worker.py's
    trace_targets hooks by name, read with ast: bench/ is neither imported
    nor edited."""
    worker = Path(__file__).parent.parent / "bench" / "worker.py"
    func = next(node for node in ast.walk(ast.parse(worker.read_text()))
                if isinstance(node, ast.FunctionDef) and node.name == "trace_targets")
    return [(node.elts[0].id, node.elts[1].value) for node in ast.walk(func)
            if isinstance(node, ast.Tuple) and len(node.elts) == 4
            and isinstance(node.elts[0], ast.Name)]


def test_bench_trace_targets_resolve():
    # the benchmark times stages by replacing package functions by name and
    # skips a name it cannot find without a word; cli.is_saturated has been
    # missing since the CLI stopped importing it, and is the one exception
    targets = _bench_trace_targets()
    assert ("saturation", "saturated_layer_count") in targets and len(targets) > 20
    missing = {(module, attr) for module, attr in targets
               if not hasattr(importlib.import_module(f"sortnetopt.{module}"), attr)}
    assert missing <= {("cli", "is_saturated")}, missing
