"""Source-level checks on the package: every module uses what it imports."""

import ast
from pathlib import Path

import cmt

PACKAGE = Path(cmt.__file__).resolve().parent


def unused_imports(tree: ast.Module) -> list[tuple[int, str]]:
    """(line, name) of each name an import binds that the module never
    reads. A name listed in the module's `__all__` is a re-export, and so
    in use."""
    bound, used = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            # `import a.b` binds `a`
            bound += [(node.lineno, a.asname or a.name.split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(node.lineno, a.asname or a.name) for a in node.names if a.name != "*"]
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [(line, name) for line, name in bound if name not in used]


def test_the_check_finds_an_unused_import():
    source = "import os, json\nimport a.b\nfrom x import y as z, w\n__all__ = ['w']\njson.dumps(a)\n"
    assert unused_imports(ast.parse(source)) == [(1, "os"), (3, "z")]


def test_every_module_uses_what_it_imports():
    modules = sorted(PACKAGE.glob("*.py"))
    assert {"aes_core.py", "__init__.py", "tenant_store.py"} <= {p.name for p in modules}
    unused = []
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        unused += [f"{path.name}:{line} {name}" for line, name in unused_imports(tree)]
    assert unused == []
