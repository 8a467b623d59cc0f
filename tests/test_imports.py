import ast
import dataclasses
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import sortnetopt
from sortnetopt.encoding import EncodeOptions

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


def _claim_spellings(tree: ast.AST) -> list[int]:
    """Lines that spell the claim text: a regex over it (a string holding
    `T\\(`) or an f-string that writes it (one starting with "T(")."""
    return [node.lineno for node in ast.walk(tree)
            if (isinstance(node, ast.Constant) and isinstance(node.value, str)
                and "T\\(" in node.value)
            or (isinstance(node, ast.JoinedStr) and node.values
                and isinstance(node.values[0], ast.Constant)
                and str(node.values[0].value).startswith("T("))]


def _name_spellings(tree: ast.AST) -> list[int]:
    """Lines that write an instance name: an f-string starting "n{", as in
    n{n}d{depth}p...w{pad}."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.JoinedStr) and len(node.values) > 1
            and isinstance(node.values[0], ast.Constant) and node.values[0].value == "n"
            and isinstance(node.values[1], ast.FormattedValue)]


def test_name_finder_sees_an_instance_name():
    source = ('name = f"n{n}d{d}p{idx}w{pad}"\n'
              'other = f"n={n}", f"no {n}", f"{n}", "n{n}"\n')
    assert _name_spellings(ast.parse(source)) == [1]


def test_report_is_fenced():
    # a claim rests on the instances and the witness checks alone: report
    # imports no scheduler, encoding or solver, campaign takes from it only
    # the campaign and instance specs, the result types and the evidence
    # rule, and only report spells a claim
    assert _intra_package_imports()["report"] <= {"networks", "words"}
    tree = ast.parse((PACKAGE / "campaign.py").read_text())
    # `from . import report` takes the name "report", and fails as well
    taken = {alias.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.level == 1
             for alias in node.names
             if node.module == "report" or (node.module is None and alias.name == "report")}
    assert taken == {"Campaign", "CampaignResult", "Instance", "InstanceResult", "_evidence"}, taken
    spellings = {path.stem: _claim_spellings(ast.parse(path.read_text()))
                 for path in sorted(PACKAGE.glob("*.py"))}
    assert len(spellings.pop("report")) == 3   # the two claims _evidence writes, the regex
    assert not any(spellings.values()), spellings


def test_only_the_spec_names_an_instance():
    # Instance.name is the one writer of an instance name, so the solver's
    # files of two prefix kinds cannot be named alike by a second spelling
    spellings = {path.stem: _name_spellings(ast.parse(path.read_text()))
                 for path in sorted(PACKAGE.glob("*.py"))}
    assert len(spellings.pop("report")) == 1
    assert not any(spellings.values()), spellings


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


OPTION_FIELDS = {f.name for f in dataclasses.fields(EncodeOptions)}


def _option_reads(tree: ast.AST) -> list[tuple[str, int]]:
    """(qualified function name, line) of every read of an EncodeOptions field
    off an options object: a parameter annotated EncodeOptions, a name
    assigned an EncodeOptions(...) call, or such a call itself.  Reads by
    attribute and by getattr count; making an EncodeOptions does not."""
    def is_options_call(node):
        return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "EncodeOptions")

    reads = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, scope + [child.name])
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = ".".join(scope + [child.name])
                args = child.args.posonlyargs + child.args.args + child.args.kwonlyargs
                options = {a.arg for a in args if a.annotation is not None
                           and "EncodeOptions" in ast.unparse(a.annotation)}
                options |= {t.id for sub in ast.walk(child) if isinstance(sub, ast.Assign)
                            and is_options_call(sub.value)
                            for t in sub.targets if isinstance(t, ast.Name)}

                def is_options(obj):
                    return (isinstance(obj, ast.Name) and obj.id in options) or is_options_call(obj)

                for sub in ast.walk(child):
                    if (isinstance(sub, ast.Attribute) and sub.attr in OPTION_FIELDS
                            and is_options(sub.value)):
                        reads.append((name, sub.lineno))
                    elif (isinstance(sub, ast.Call) and isinstance(sub.func, ast.Name)
                          and sub.func.id == "getattr" and len(sub.args) >= 2
                          and is_options(sub.args[0])):
                        reads.append((name, sub.lineno))
                visit(child, scope + [child.name])

    visit(tree, [])
    return reads


def test_option_read_finder_sees_every_form():
    source = (
        "class VarMap:\n"
        "    def __init__(self, opts: EncodeOptions):\n"
        "        self.pad = opts.pad\n"
        "def build(n, opts: EncodeOptions = EncodeOptions()):\n"
        "    return opts.pad, opts.num_vars\n"
        "def settle(args, vm):\n"
        "    opts = EncodeOptions(pad=args.pad)\n"
        "    return opts.prefix, EncodeOptions().sigma1, getattr(opts, 'pad'), vm.prefix\n")
    assert _option_reads(ast.parse(source)) == [
        ("VarMap.__init__", 3), ("build", 5), ("settle", 8), ("settle", 8), ("settle", 8)]


def test_only_varmap_reads_the_options():
    # VarMap.__init__ is the one reader of EncodeOptions: build, the
    # fragments, the campaign and the CLI make options and pass them on
    reads = {path.name: _option_reads(ast.parse(path.read_text()))
             for path in sorted(PACKAGE.glob("*.py"))}
    assert {name for name, _ in reads["encoding.py"]} == {"VarMap.__init__"}
    others = {module: found for module, found in reads.items() if module != "encoding.py"}
    assert not any(others.values()), others


def _hits(tree: ast.AST, hit) -> list[tuple[str, ast.AST]]:
    """(scope, node) for every node for which hit(node) is true, in source
    order; scope is the qualified name of the innermost function that holds
    the node, "<module>" outside any."""
    hits = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, scope + [child.name])
                continue
            if hit(child):
                hits.append((".".join(scope) or "<module>", child))
            visit(child, scope)

    visit(tree, [])
    return hits


def _scopes_where(tree: ast.AST, hit) -> set[str]:
    """The functions, as _hits names them, that hold a node for which
    hit(node) is true."""
    return {scope for scope, _ in _hits(tree, hit)}


def _attribute_readers(tree: ast.AST, attr: str) -> set[str]:
    """The functions, as _scopes_where names them, that read attribute attr
    off any object, by attribute or by getattr; assigning it is no read."""
    return _scopes_where(tree, lambda node: (
        (isinstance(node, ast.Attribute) and node.attr == attr
         and isinstance(node.ctx, ast.Load))
        or (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "getattr" and len(node.args) >= 2
            and isinstance(node.args[1], ast.Constant) and node.args[1].value == attr)))


def _callers(tree: ast.AST, name: str) -> set[str]:
    """The functions, as _scopes_where names them, that call name, bare or
    as an attribute of a module or object."""
    return _scopes_where(tree, lambda node: (
        isinstance(node, ast.Call)
        and ((isinstance(node.func, ast.Name) and node.func.id == name)
             or (isinstance(node.func, ast.Attribute) and node.func.attr == name))))


def test_attribute_reader_finder_sees_every_form():
    source = (
        "class VarMap:\n"
        "    def __init__(self, xs):\n"
        "        self.inputs = xs\n"
        "        self.k = len(self.inputs)\n"
        "def f(vm):\n"
        "    return getattr(vm, 'inputs')\n"
        "def g(vm):\n"
        "    def h():\n"
        "        return vm.inputs[0]\n"
        "    vm.inputs = h\n")
    assert _attribute_readers(ast.parse(source), "inputs") == {"VarMap.__init__", "f", "g.h"}


def test_only_varmap_reads_the_kept_inputs():
    # the clause fragments read the kept images alone, so a formula is a
    # function of its images; the kept inputs are for the reports and the
    # campaign's model check, and in encoding only VarMap.__init__ reads them
    tree = ast.parse((PACKAGE / "encoding.py").read_text())
    assert _attribute_readers(tree, "inputs") == {"VarMap.__init__"}


def test_caller_finder_sees_every_form():
    source = (
        "from .networks import unsorted_inputs\n"
        "XS = unsorted_inputs(3)\n"
        "def f(n):\n"
        "    return networks.unsorted_inputs(n)\n"
        "def g(n):\n"
        "    key = lambda p: unsorted_inputs(n, p)\n"
        "    return key, unsorted_inputs\n")
    assert _callers(ast.parse(source), "unsorted_inputs") == {"<module>", "f", "g"}


def test_only_the_task_helper_makes_input_sets():
    # the scheduler takes every input set from _task_inputs: nothing else in
    # campaign works one out
    tree = ast.parse((PACKAGE / "campaign.py").read_text())
    assert _callers(tree, "unsorted_inputs") == {"_task_inputs"}


def _read_names(node: ast.AST) -> list[str]:
    """The names one node reads: a loaded Name or Attribute, or the names a
    `from ... import` takes."""
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        return [node.id]
    if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
        return [node.attr]
    if isinstance(node, ast.ImportFrom):
        return [alias.name for alias in node.names]
    return []


def _references(tree: ast.AST) -> set[str]:
    """Every name a module reads, as _read_names finds them, leaving out
    what a def or class reads of its own name (a recursive call is not a
    caller)."""
    return {name for scope, node in _hits(tree, _read_names)
            for name in _read_names(node) if name not in scope.split(".")}


def test_reference_finder_sees_every_form():
    source = (
        "import numpy\n"
        "from .networks import reflect as mirror\n"
        "def untangle(net):\n"
        "    def inner():\n"
        "        return untangle(net.layers)\n"
        "    return inner\n"
        "class Network:\n"
        "    def copy(self) -> Network:\n"
        "        return words.sentence_of(self)\n"
        "out = z\n")
    assert _references(ast.parse(source)) == {"reflect", "net", "layers", "inner", "self",
                                              "words", "sentence_of", "z"}


def _public_definitions(tree: ast.AST) -> set[str]:
    """The public functions and classes a module defines at its top level:
    those whose name has no leading underscore."""
    return {node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not node.name.startswith("_")}


def test_public_definition_finder_sees_every_form():
    source = ("def f():\n    def inner(): pass\n"
              "async def g(): pass\nclass C:\n    def method(self): pass\n"
              "def _private(): pass\nh = f\n")
    assert _public_definitions(ast.parse(source)) == {"f", "g", "C"}


# The public functions and classes, exported or not, that nothing in the
# package (its __init__ aside) or the benchmark reads: the tests alone call
# them.  Each entry says why it stays, or names the direction of ROADMAP.md
# that gives it a caller or moves it out.
TEST_ONLY_NAMES = {
    "campaign_from_json",    # 7 (`sortnetopt audit`) or 13 (`sortnetopt compute`)
    "permute_vectors",       # 10: the cover; the oracles' subsumption check reads it
    "reflect",               # 10: the cover
    "saturate",              # 10: the cover
    "sentence_class_size",   # the oracle behind the S count, which the pipeline
                             # takes from rsn_count
    "sentence_of",           # 10: the cover
    "untangle",              # 10: the cover
    "word_of",               # 10: the cover, through sentence_of
}


def test_every_export_has_a_caller_outside_tests():
    # a ratchet on code that only the tests call: a new export, or any new
    # public function or class of a package module, needs a reader in the
    # package or the benchmark, and an entry above leaves the list when it
    # gets one
    bench = Path(__file__).parent.parent / "bench"
    modules = [p for p in PACKAGE.glob("*.py") if p.stem != "__init__"]
    sources = modules + list(bench.glob("*.py")) + list((bench / "tests").glob("*.py"))
    read = set().union(*(_references(ast.parse(path.read_text())) for path in sources))
    read |= {attr for _, attr in _bench_trace_targets()}
    public = {name for name in sortnetopt.__all__
              if not inspect.ismodule(getattr(sortnetopt, name))}
    public |= set().union(*(_public_definitions(ast.parse(path.read_text())) for path in modules))
    unread = public - read
    assert unread == TEST_ONLY_NAMES, sorted(unread ^ TEST_ONLY_NAMES)


_PROCESS_STARTERS = {
    "subprocess": {"Popen", "run", "call", "check_call", "check_output", "getoutput",
                   "getstatusoutput"},
    "os": {"system", "popen", "fork", "forkpty"},
}


def _process_starts(tree: ast.AST) -> list[tuple[str, str]]:
    """(function, starter) for every call in a module that starts a process:
    a _PROCESS_STARTERS name or an os.exec* or os.spawn* (posix_spawn too),
    called off its module, an alias of it, or as a name imported from it."""
    def starter(module, name):
        if module == "os" and name.startswith(("exec", "spawn", "posix_spawn")):
            return f"os.{name}"
        return f"{module}.{name}" if name in _PROCESS_STARTERS.get(module, ()) else None

    modules, names = {}, {}   # local name -> module, local name -> (module, name)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules |= {a.asname or a.name: a.name for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names |= {a.asname or a.name: (node.module, a.name) for a in node.names}

    def started(node):
        if not isinstance(node, ast.Call):
            return None
        func = node.func
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
            return starter(modules.get(func.value.id), func.attr)
        if isinstance(func, ast.Name) and func.id in names:
            return starter(*names[func.id])
        return None

    return [(scope, started(node))
            for scope, node in _hits(tree, lambda node: started(node) is not None)]


def test_process_start_finder_sees_every_form():
    source = (
        "import os, subprocess as sp\n"
        "from subprocess import run\n"
        "from os import execvp as ex\n"
        "class Runner:\n"
        "    def start(self, cmd):\n"
        "        return sp.Popen(cmd)\n"
        "def f(cmd):\n"
        "    run(cmd); os.system(cmd); ex(cmd[0], cmd); os.posix_spawn(cmd[0], cmd, {})\n"
        "def g(cmd):\n"
        "    return os.getpid(), cmd.run(), sp.PIPE\n"
        "PID = os.fork()\n")
    assert _process_starts(ast.parse(source)) == [
        ("Runner.start", "subprocess.Popen"), ("f", "subprocess.run"), ("f", "os.system"),
        ("f", "os.execvp"), ("f", "os.posix_spawn"), ("<module>", "os.fork")]


def test_the_package_starts_processes_in_one_place():
    # solver.SolverRun is the one place that starts a solver, with one
    # subprocess.Popen call; solver.reference_solver runs the compiler that
    # builds refsat, with one subprocess.run call; no module starts a
    # process any other way
    starts = {path.stem: _process_starts(ast.parse(path.read_text()))
              for path in sorted(PACKAGE.glob("*.py"))}
    assert starts.pop("solver") == [("reference_solver", "subprocess.run"),
                                    ("SolverRun.__init__", "subprocess.Popen")]
    assert not any(starts.values()), starts


def test_package_import_leaves_out_the_thread_pool():
    # a campaign runs its solvers from one loop on the calling thread, so
    # importing the package and its CLI loads no concurrent.futures (nor
    # the logging that it imports)
    code = ("import sys, sortnetopt, sortnetopt.cli\n"
            "print('concurrent.futures' in sys.modules)")
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": path})
    assert out.stdout.strip() == "False"


_SYNC_PRIMITIVES = {"Lock", "RLock", "Condition", "Semaphore", "BoundedSemaphore"}


def _sync_calls(tree: ast.AST) -> list[str]:
    """The threading primitives a module makes, one entry per call, whether
    called as threading.Lock() or as a bare Lock()."""
    calls = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in _SYNC_PRIMITIVES:
                calls.append(name)
    return calls


def _names(tree: ast.AST) -> set[str]:
    """Every identifier a module binds or reads: names, attributes and
    arguments."""
    return ({node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
            | {node.arg for node in ast.walk(tree) if isinstance(node, ast.arg)})


def _imported_modules(tree: ast.AST) -> set[str]:
    """The top-level modules a module imports, at any depth of the file."""
    return ({alias.name.split(".")[0] for node in ast.walk(tree)
             if isinstance(node, ast.Import) for alias in node.names}
            | {node.module.split(".")[0] for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.level == 0})


def test_import_finder_sees_every_form():
    source = ("import os.path, threading as t\nfrom concurrent.futures import Future\n"
              "from . import words\nfrom .solver import reap\n"
              "def f():\n    import asyncio\n")
    assert _imported_modules(ast.parse(source)) == {"os", "threading", "concurrent", "asyncio"}


def test_sync_finder_sees_every_form():
    source = ("import threading\nfrom threading import RLock\n"
              "a = threading.Lock()\nb = RLock()\nc = threading.Condition(a)\n"
              "d = threading.Event()\n")
    assert _sync_calls(ast.parse(source)) == ["Lock", "RLock", "Condition"]


def test_campaigns_start_no_thread():
    # a campaign runs its solvers from one loop on the calling thread, and
    # encoding's DIMACS text table is replaced whole, with no lock: no
    # module of the package imports a thread, process-pool or asyncio
    # module, names a thread or a stop event, or makes a threading primitive
    pools = {"threading", "_thread", "concurrent", "multiprocessing", "asyncio"}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        assert not _imported_modules(tree) & pools, path.stem
        assert not {"Thread", "StopEvent", "Event"} & _names(tree), path.stem
        assert not _sync_calls(tree), path.stem


def _compared_reads(tree: ast.AST, obj: str, attrs: set[str]) -> list[tuple[str, int]]:
    """(attribute, line), in source order, for every read of obj.<attr>,
    attr in attrs, that a comparison makes: off obj by attribute or
    getattr, or through a loop variable that walks such a read (for x in
    obj.attr)."""
    def reads(node):
        return {sub.attr for sub in ast.walk(node)
                if isinstance(sub, ast.Attribute) and sub.attr in attrs
                and isinstance(sub.value, ast.Name) and sub.value.id == obj} | \
               {sub.args[1].value for sub in ast.walk(node)
                if isinstance(sub, ast.Call) and isinstance(sub.func, ast.Name)
                and sub.func.id == "getattr" and len(sub.args) >= 2
                and isinstance(sub.args[0], ast.Name) and sub.args[0].id == obj
                and isinstance(sub.args[1], ast.Constant) and sub.args[1].value in attrs}

    walked = {}   # loop variable -> the attributes its loop walks
    for node in ast.walk(tree):
        if isinstance(node, (ast.For, ast.comprehension)) and reads(node.iter):
            for name in ast.walk(node.target):
                if isinstance(name, ast.Name):
                    walked[name.id] = reads(node.iter)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            names = {sub.id for sub in ast.walk(node) if isinstance(sub, ast.Name)}
            hit = reads(node).union(*(walked[name] for name in names & walked.keys()))
            found += [(attr, node.lineno) for attr in hit]
    return sorted(found, key=lambda read: (read[1], read[0]))


def test_compared_read_finder_sees_every_form():
    source = (
        "def f(args, other):\n"
        "    if args.depth < 0 or other.pad > 1:\n"
        "        return 1\n"
        "    for pad in args.pads or ():\n"
        "        if not 0 <= pad < args.n:\n"
        "            return 2\n"
        "    check(args.n, args.depth, args.pad)\n"
        "    return getattr(args, 'timeout') > 0 and any(p < 0 for p in args.pads)\n")
    assert _compared_reads(ast.parse(source), "args", {"depth", "pad", "pads", "timeout"}) == [
        ("depth", 2), ("pads", 5), ("pads", 8), ("timeout", 8)]


def test_the_cli_restates_no_rule_of_the_library():
    # the instance rule (networks.check_instance), report.Campaign and
    # solver.SolverConfig state what --n, --depth, --pad, --pads and
    # --timeout may be, and the CLI hands their values to them: no
    # comparison in cli reads those flags, and cli does not name the cap
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    assert _compared_reads(tree, "args", {"depth", "pad", "pads", "timeout"}) == []
    assert "MAX_ENUM_CHANNELS" not in _references(tree) | _names(tree)
