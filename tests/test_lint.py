"""A standard-library lint for src/reslat: every import is used (in the
scripts under tools/ too), every top-level private name is referenced
somewhere in the package (deleting code tends to leave both behind), no
module imports another's private name, only the CLI reads the environment,
no module tests for bool (integer arguments go through
`_check.check_int`, which refuses any class but int), and no module, test
or tool defines one top-level function or class name twice."""

import ast
import collections
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "reslat"
TREES = {path.name: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}
TOOLS = {f"tools/{path.name}": ast.parse(path.read_text(), str(path))
         for path in sorted((ROOT / "tools").glob("*.py"))}
TESTS = {f"tests/{path.name}": ast.parse(path.read_text(), str(path))
         for path in sorted((ROOT / "tests").glob("*.py"))}
MODULES = [name for name in TREES if name != "__init__.py"]
ENV_READERS = {"environ", "getenv"}


def _read_names(tree: ast.Module) -> set[str]:
    """The names a module reads: bare names, and the strings in its __all__."""
    names = {node.id for node in ast.walk(tree)
             if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            names |= {elt.value for elt in node.value.elts}
    return names


def _referenced(tree: ast.Module) -> set[str]:
    """Every name a module reads, reads as an attribute, or imports."""
    names = _read_names(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names |= {alias.name for alias in node.names}
    return names


def _imported(tree: ast.Module) -> list[str]:
    """The names bound by a module's imports, `from __future__` aside."""
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    return bound


def _top_level_private(tree: ast.Module) -> list[str]:
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


def test_every_import_is_used():
    trees = {**{module: TREES[module] for module in MODULES}, **TOOLS}
    unused = [f"{module}: {name}" for module, tree in trees.items()
              for name in _imported(tree) if name not in _read_names(tree)]
    assert unused == []


def test_every_private_name_is_referenced():
    referenced = set().union(*map(_referenced, TREES.values()))
    dead = [f"{module}: {name}" for module in MODULES
            for name in _top_level_private(TREES[module]) if name not in referenced]
    assert dead == []


def test_no_module_imports_another_modules_private_name():
    # a private name is its module's own; the one exception is the S2 record's product
    imports = [f"{module}: {node.module}.{alias.name}" for module, tree in TREES.items()
               for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
               for alias in node.names if alias.name.startswith("_")]
    assert imports == ["omon.py: nilpotent._mul"]


def _environment_reads(tree: ast.Module) -> set[str]:
    """`os.environ` and `os.getenv` as a module uses them: as attributes, or
    as names imported from os."""
    reads = {node.attr for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr in ENV_READERS}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "os":
            reads |= {alias.name for alias in node.names} & ENV_READERS
    return reads


def test_only_the_cli_reads_the_environment():
    # library limits come from arguments; the CLI reads RESLAT_MAX_SIZE and passes them on
    readers = [f"{module}: {name}" for module in TREES if module != "cli.py"
               for name in sorted(_environment_reads(TREES[module]))]
    assert readers == []
    assert _environment_reads(TREES["cli.py"]) == {"environ"}


def _callee(call: ast.Call) -> str:
    """The name a call calls: `f` for `f(...)` and `m.f(...)`, else ''."""
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")


def _bool_tests(tree: ast.Module) -> list[int]:
    """Line numbers of `isinstance(<x>, bool)`, with bool alone or in a
    tuple, and of a comparison with bool, such as `<x>.__class__ is bool`."""
    def is_bool(node: ast.expr) -> bool:
        return isinstance(node, ast.Name) and node.id == "bool"

    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and _callee(node) == "isinstance" and len(node.args) == 2:
            kinds = node.args[1]
            if any(map(is_bool, kinds.elts if isinstance(kinds, ast.Tuple) else [kinds])):
                lines.append(node.lineno)
        elif isinstance(node, ast.Compare) and any(map(is_bool, [node.left, *node.comparators])):
            lines.append(node.lineno)
    return lines


def test_no_module_tests_for_bool():
    # the bool policy of integer arguments lives in one function
    tests = [f"{module}:{line}" for module, tree in TREES.items() for line in _bool_tests(tree)]
    assert tests == []


def test_no_module_defines_a_name_twice():
    # a second top-level def or class of a name rebinds the first without a word
    defs = {module: collections.Counter(
        node.name for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)))
        for module, tree in {**TREES, **TESTS, **TOOLS}.items()}
    assert [f"{module}: {name}" for module, names in defs.items()
            for name, count in names.items() if count > 1] == []
