"""Source-level checks on the package: every module uses what it imports,
every private module-level definition is read somewhere in it, and every
name that README or a docstring puts in backticks exists."""

import ast
import importlib
import re
from pathlib import Path

import cmt

PACKAGE = Path(cmt.__file__).resolve().parent
README = Path(__file__).resolve().parents[1] / "README.md"
# ALL_CAPS names the docs may put in backticks that no module defines
ENVIRONMENT = {"CMT_MASTER_KEY", "PYTHONDONTWRITEBYTECODE"}


def unused_imports(tree: ast.Module) -> list[tuple[int, str]]:
    """(line, name) of each name an import binds that the module never
    reads. The package re-exports nothing, so a name listed in an
    `__all__` is not thereby in use."""
    bound, used = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            # `import a.b` binds `a`
            bound += [(node.lineno, a.asname or a.name.split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(node.lineno, a.asname or a.name) for a in node.names if a.name != "*"]
        elif isinstance(node, ast.Name):
            used.add(node.id)
    return [(line, name) for line, name in bound if name not in used]


def unread_private_definitions(modules: dict[str, ast.Module]) -> list[str]:
    """`module:line name` of each `_`-prefixed function, class or constant
    defined at a module's top level whose name no module reads: as a name,
    an attribute or an imported name."""
    read = set()
    for tree in modules.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(a.name for a in node.names)
    unread = []
    for module, tree in modules.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            unread += [
                f"{module}:{node.lineno} {name}" for name in defined
                if name.startswith("_") and not name.startswith("__") and name not in read
            ]
    return unread


def test_the_check_finds_an_unused_import():
    source = "import os, json\nimport a.b\nfrom x import y as z, w\n__all__ = ['w']\njson.dumps(a)\n"
    assert unused_imports(ast.parse(source)) == [(1, "os"), (3, "z"), (3, "w")]


def test_every_module_uses_what_it_imports():
    modules = sorted(PACKAGE.glob("*.py"))
    assert {"aes_core.py", "__init__.py", "tenant_store.py"} <= {p.name for p in modules}
    unused = []
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        unused += [f"{path.name}:{line} {name}" for line, name in unused_imports(tree)]
    assert unused == []


def test_the_check_finds_an_unread_private_definition():
    modules = {
        "a": ast.parse("_A, _B = 1, 2\n_C: int = 3\ndef _f():\n    return _A\nclass _K: pass\n__all__ = []\n"),
        "b": ast.parse("from a import _f\nimport a\nx = a._C\n"),
    }
    assert unread_private_definitions(modules) == ["a:1 _B", "a:5 _K"]


def test_every_private_definition_is_read():
    modules = {p.name: ast.parse(p.read_text(encoding="utf-8"), str(p)) for p in PACKAGE.glob("*.py")}
    assert {"aes_core.py", "cli.py", "key_service.py", "tenant_store.py"} <= set(modules)
    assert unread_private_definitions(modules) == []


def stale_doc_references(texts: dict[str, str], modules: dict) -> list[str]:
    """`source: reference` of each backticked `module.name` (or
    `cmt.module.name`) whose module is one of `modules` and has no attribute
    `name`, and of each backticked ALL_CAPS name that no module has and
    ENVIRONMENT does not list. A `module.py` is a file name, and fenced
    code blocks are skipped."""
    stale = []
    for source, text in texts.items():
        for span in re.findall(r"`([^`]+)`", re.sub(r"```.*?```", "", text, flags=re.S)):
            for ref in re.finditer(r"(?<![\w./])(?:cmt\.)?([a-z_]\w*)\.(?!py\b)(\w+)", span):
                module, name = ref.groups()
                if module in modules and not hasattr(modules[module], name):
                    stale.append(f"{source}: {ref.group(0)}")
            if re.fullmatch(r"[A-Z][A-Z0-9_]*", span) and span not in ENVIRONMENT:
                if not any(hasattr(m, span) for m in modules.values()):
                    stale.append(f"{source}: {span}")
    return stale


def test_the_check_finds_a_stale_doc_reference():
    modules = {"cmt": cmt, "m": type("m", (), {"f": 1, "LIMIT": 2})}
    text = (
        "`m.f(x)`, `cmt.m.g`, `m.LIMIT`, `LIMIT`, `GONE`, `CMT_MASTER_KEY`, `n.h`,"
        " `m.py`, `src/m.z`\n```\n`m.z`\n```\n"
    )
    assert stale_doc_references({"doc": text}, modules) == ["doc: cmt.m.g", "doc: GONE"]


def test_every_doc_reference_exists():
    modules = {"cmt": cmt}
    texts = {"README.md": README.read_text(encoding="utf-8")}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem != "__init__":
            modules[path.stem] = importlib.import_module(f"cmt.{path.stem}")
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        docs = [
            ast.get_docstring(node) for node in ast.walk(tree)
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        texts[path.name] = "\n".join(filter(None, docs))
    assert {"aes_core", "cli", "tenant_store"} <= set(modules)
    assert stale_doc_references(texts, modules) == []
