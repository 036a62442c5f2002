"""A standard-library lint for src/reslat: every import is used, every
top-level private name is referenced somewhere in the package (deleting
code tends to leave both behind), and only the CLI reads the environment."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "reslat"
TREES = {path.name: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}
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
    unused = [f"{module}: {name}" for module in MODULES
              for name in _imported(TREES[module]) if name not in _read_names(TREES[module])]
    assert unused == []


def test_every_private_name_is_referenced():
    referenced = set().union(*map(_referenced, TREES.values()))
    dead = [f"{module}: {name}" for module in MODULES
            for name in _top_level_private(TREES[module]) if name not in referenced]
    assert dead == []


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
