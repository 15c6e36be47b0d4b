"""The benchmark's tracer still finds the names it wraps and the row map it
probes. A rename in the program fails here instead of in a traced run."""

import importlib.util
from pathlib import Path

from cmt import crypto_codec, tenant_store
from cmt.key_service import MasterKey
from cmt.tenant_store import TableSchema, create_store

TRACE_PY = Path(__file__).resolve().parents[1] / "bench" / "trace.py"


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
