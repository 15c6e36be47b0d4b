"""The benchmark still finds the names it reaches in the program: the ones
its files import and use, and the ones the tracer wraps and the row map it
probes. A rename in the program fails here instead of in a benchmark run."""

import ast
import importlib.util
import sys
from pathlib import Path
from types import ModuleType

import pytest

from cmt import crypto_codec, tenant_store
from cmt.key_service import MasterKey
from cmt.tenant_store import TableSchema, create_store, open_store

from test_tenant_store import spy_on_replayed_lines

BENCH = Path(__file__).resolve().parents[1] / "bench"
TRACE_PY = BENCH / "trace.py"


def load_trace():
    # loaded by path: as a module named `trace` it would clash with the stdlib's
    spec = importlib.util.spec_from_file_location("bench_trace", TRACE_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_records_codec_spans_and_restores_the_program(tmp_path):
    tracer = load_trace().Tracer()
    schema = TableSchema("t", ("name", "contact"))
    tracer.install()
    try:
        with create_store(str(tmp_path / "s.cmt"), schema, MasterKey(bytes(16))) as s:
            tracer.probe_rows(s)
            tracer.on = True
            rid = s.insert("uni_a", {"name": "Asha", "contact": "98765"})
            assert s.get("uni_a", rid).fields["name"] == "Asha"
            assert [r.row_id for r in s.list("uni_a")] == [rid]
            tracer.on = False
    finally:
        tracer.remove()
    names = {span[0] for span in tracer.spans}
    assert {"crypto_codec.encrypt_value", "crypto_codec.decrypt_value",
            "key_service.derive_tenant_keys", "os.fsync"} <= names
    assert {f"tenant_store.Store.{m}" for m in ("insert", "get", "list")} <= names
    assert tracer.row_lookups["tenant_store.Store.list"] == 1
    assert tenant_store.encrypt_value is crypto_codec.encrypt_value
    assert tenant_store.decrypt_value is crypto_codec.decrypt_value


@pytest.mark.parametrize("memo_hit, insert", [(False, False), (True, False), (True, True)],
                         ids=["full_replay", "memo_hit", "memo_hit_insert"])
def test_row_map_probe_counts_a_list_on_an_opened_store(tmp_path, monkeypatch, memo_hit, insert):
    monkeypatch.setattr(tenant_store, "_replayed", {})
    decoded = spy_on_replayed_lines(monkeypatch)
    path, master = str(tmp_path / "s.cmt"), MasterKey(bytes(16))
    with create_store(path, TableSchema("t", ("name", "contact")), master) as s:
        for tenant in ("uni_a", "uni_b", "uni_a"):
            s.insert(tenant, {"name": tenant, "contact": "98765"})
    if memo_hit:
        open_store(path, master).close()
        decoded.clear()
    tracer = load_trace().Tracer()
    tracer.install()
    try:
        tracer.on = True
        with tenant_store.open_store(path, master) as s:
            tracer.probe_rows(s)
            if insert:  # a handle's first write must keep the probe's map
                s.insert("uni_a", {"name": "uni_a", "contact": "12345"})
            assert [r.row_id for r in s.list("uni_a")] == ([1, 3, 4] if insert else [1, 3])
        tracer.on = False
    finally:
        tracer.remove()
    assert len(decoded) == (0 if memo_hit else 3)
    assert "tenant_store.open_store" in {span[0] for span in tracer.spans}
    # one read of the row map per row of the listing tenant: the row index
    # is built from the state's own map, which the probe does not count
    assert tracer.row_lookups["tenant_store.Store.list"] == (3 if insert else 2)


def _cmt_names(tree) -> tuple:
    """What a bench file reaches in `cmt`: (missing, checked), each a list of
    (line, dotted name). It takes the names bound to `cmt` modules from the
    file's own imports, checks every name a `from cmt...` import takes and
    every `module.attr` read off a bound module."""
    bound, missing, checked = {}, [], []

    def reach(node, module, name):
        checked.append((node.lineno, f"{module.__name__}.{name}"))
        if hasattr(module, name):
            return getattr(module, name)
        try:  # a submodule not imported yet
            return importlib.import_module(f"{module.__name__}.{name}")
        except ImportError:
            missing.append(checked[-1])
            return None

    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "cmt":
                    module = importlib.import_module(alias.name)
                    # `import cmt.m` binds cmt, `import cmt.m as y` binds cmt.m
                    bound[alias.asname or "cmt"] = module if alias.asname else sys.modules["cmt"]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "cmt":
            module = importlib.import_module(node.module)
            for alias in node.names:
                value = reach(node, module, alias.name)
                if isinstance(value, ModuleType):
                    bound[alias.asname or alias.name] = value
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in bound):
            reach(node, bound[node.value.id], node.attr)
    return missing, checked


def test_bench_files_reach_only_names_the_program_has():
    missing, checked = [], []
    for path in sorted(BENCH.glob("*.py")):
        lost, seen = _cmt_names(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        missing += [f"{path.name}:{line} {name}" for line, name in lost]
        checked += [name for _, name in seen]
    assert missing == []
    # the walk sees the names the benchmark is known to use
    assert {"cmt.aes_core.encrypt_ecb", "cmt.tenant_store.open_store",
            "cmt.errors.AuthError", "cmt.key_service.MASTER_KEY_ENV"} <= set(checked)
