"""The library's public surface is what the pipeline uses: every public
top-level name of a ``labelpure`` module must be referenced somewhere in the
package or the benchmark harness, outside its own definition. Reference code
that only tests call belongs in ``tests/oracles.py``. Every private top-level
name must be referenced in its own module, outside its own definition. Every
imported name must be used in the module or function that imports it, unless
its line is marked ``# noqa: F401``."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "labelpure"


def _defined(tree: ast.Module, private: bool = False) -> dict[str, ast.AST]:
    """Public (or, with ``private``, single-underscore) top-level functions,
    classes and assigned names, with their nodes."""
    out: dict[str, ast.AST] = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        out.update((name, node) for name in names if name.startswith("_") == private and not name.startswith("__"))
    return out


def _referenced(tree: ast.Module, skip: set[int]) -> set[str]:
    """Names used as variables or attributes, and the parts of dotted-name
    strings (how the harness looks functions up), outside the nodes in ``skip``."""
    seen: set[str] = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if id(node) in skip:
            continue
        if isinstance(node, ast.Name):
            seen.add(node.id)
        elif isinstance(node, ast.Attribute):
            seen.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            parts = node.value.split(".")
            if all(part.isidentifier() for part in parts):
                seen.update(parts)
        stack.extend(ast.iter_child_nodes(node))
    return seen


def test_every_public_name_is_used_by_the_package_or_the_benchmark():
    paths = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in paths}
    used = {path: _referenced(tree, set()) for path, tree in trees.items()}
    unused = []
    for module in sorted(PACKAGE.glob("*.py")):
        elsewhere = set().union(*(names for path, names in used.items() if path != module))
        for name, node in _defined(trees[module]).items():
            if name not in elsewhere and name not in _referenced(trees[module], {id(node)}):
                unused.append(f"{module.stem}.{name}")
    assert unused == []


def test_every_private_name_is_used_in_its_own_module():
    unused = []
    for module in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(module.read_text(encoding="utf-8"))
        for name, node in _defined(tree, private=True).items():
            if name not in _referenced(tree, {id(node)}):
                unused.append(f"{module.stem}.{name}")
    assert unused == []


def test_every_import_is_used_where_it_is_imported():
    unused = []
    for module in sorted(PACKAGE.glob("*.py")):
        lines = module.read_text(encoding="utf-8").splitlines()
        tree = ast.parse("\n".join(lines))
        # Each import belongs to the innermost function around it, else the module.
        stack, imports = [(tree, tree)], []
        while stack:
            node, scope = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                scope = node
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
                imports.append((node, scope))
            stack.extend((child, scope) for child in ast.iter_child_nodes(node))
        for node, scope in imports:
            if any("# noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]):
                continue
            used = {n.id for n in ast.walk(scope) if isinstance(n, ast.Name)}
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in used:
                    unused.append(f"{module.stem}:{node.lineno}: {name}")
    assert unused == []
