"""Record store tests: CRUD, isolation, replay, crash recovery, at-rest scan."""

import base64
import binascii
import contextlib
import errno
import functools
import hashlib
import io
import itertools
import json
import logging
import os
import random
import re
import stat
import tempfile
import threading
import types
from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from aes_reference import key_of
from cmt.errors import (
    AlreadyExists,
    AuthError,
    CmtError,
    CorruptHeader,
    CorruptLog,
    InvalidSchema,
    InvalidTenantId,
    IsolationDenied,
    MissingKey,
    NotFound,
    SchemaMismatch,
    StoreError,
    StoreLocked,
    VersionMismatch,
)
from cmt import aes_core, tenant_store
from cmt.crypto_codec import MAX_FIELD_BYTES, check_value
from cmt.key_service import MasterKey, derive_tenant_keys, validate_tenant_id
from cmt.tenant_store import TableSchema, create_store, open_store

import replay_reference

MASTER = MasterKey(bytes.fromhex("000102030405060708090a0b0c0d0e0f"))
SCHEMA = TableSchema("student_entry", ("name", "contact", "department"))


def row(name="n", contact="c", department="d"):
    return {"name": name, "contact": contact, "department": department}


@pytest.fixture
def store(tmp_path):
    with create_store(str(tmp_path / "s.cmt"), SCHEMA, MASTER) as s:
        yield s


# --- schema ---------------------------------------------------------------

def test_schema_rejects_duplicates():
    with pytest.raises(InvalidSchema):
        TableSchema("t", ("a", "a"))


def test_schema_rejects_bad_names():
    with pytest.raises(InvalidSchema):
        TableSchema("t", ("Bad Name",))
    with pytest.raises(InvalidSchema):
        TableSchema("UPPER", ("a",))
    with pytest.raises(InvalidSchema):
        TableSchema("t", ())
    # the whole name must match: "$" alone also matches before a final newline
    with pytest.raises(InvalidSchema):
        TableSchema("t", ("name\n",))
    with pytest.raises(InvalidSchema):
        TableSchema("t\n", ("a",))


@pytest.mark.parametrize("table, fields", [(5, ("a",)), ("t", (5,)), ("t", ("a", None))])
def test_schema_rejects_a_name_that_is_not_text(table, fields):
    # a library caller's usage error, not the TypeError `re` raises
    with pytest.raises(InvalidSchema):
        TableSchema(table, fields)


@pytest.mark.parametrize(
    "fields", ["ab", {"a": 1, "b": 2}, 5, iter(("a", "b"))], ids=["str", "dict", "int", "iterator"]
)
def test_schema_rejects_fields_that_are_not_a_list_or_tuple(fields):
    # a string would split into letters and a dict read as its keys
    with pytest.raises(InvalidSchema, match="must be a list or tuple"):
        TableSchema("t", fields)


def test_schema_keeps_a_list_of_fields_as_a_tuple():
    assert TableSchema("t", ["a", "b"]).field_names == ("a", "b")


# --- create / open ----------------------------------------------------------

def test_create_then_reopen_empty(tmp_path):
    path = str(tmp_path / "s.cmt")
    create_store(path, SCHEMA, MASTER).close()
    with open_store(path, MASTER) as s:
        assert s.list("uni_a") == []
        assert s.schema == SCHEMA


def test_create_existing_path(tmp_path):
    path = str(tmp_path / "s.cmt")
    create_store(path, SCHEMA, MASTER).close()
    with pytest.raises(AlreadyExists):
        create_store(path, SCHEMA, MASTER)


def test_create_never_truncates_a_store_made_after_its_check(tmp_path, monkeypatch):
    # a creator racing another: the store appears after any existence check
    path = str(tmp_path / "s.cmt")
    with create_store(path, SCHEMA, MASTER) as live:
        live.insert("uni_a", row())
        with open(path, "rb") as fh:
            before = fh.read()
        monkeypatch.setattr(os.path, "exists", lambda p: False)
        with pytest.raises(AlreadyExists):
            create_store(path, SCHEMA, MASTER)
        monkeypatch.undo()
        with open(path, "rb") as fh:
            assert fh.read() == before


def test_header_without_its_newline_is_refused_untouched(tmp_path):
    path = tmp_path / "s.cmt"
    create_store(str(path), SCHEMA, MASTER).close()
    path.write_bytes(path.read_bytes().rstrip(b"\n"))
    before = path.read_bytes()
    for _ in range(2):  # the failed open wrote nothing and released the lock
        with pytest.raises(CorruptHeader, match="newline"):
            open_store(str(path), MASTER)
        assert path.read_bytes() == before


def test_open_bad_header(tmp_path):
    path = str(tmp_path / "s.cmt")
    with open(path, "w") as fh:
        fh.write("not json\n")
    with pytest.raises(CorruptHeader):
        open_store(path, MASTER)


@pytest.mark.parametrize(
    "header, version",
    [
        ('{"v":99,"table":"t","fields":["a"]}', 99),
        ('{"v":2,"table":"t","fields":[{"n":"a"}]}', 2),  # "v" is read before the rest
        ('{"v":2}', 2),
    ],
)
def test_open_version_mismatch(tmp_path, header, version):
    path = str(tmp_path / "s.cmt")
    with open(path, "w") as fh:
        fh.write(header + "\n")
    with pytest.raises(VersionMismatch) as caught:
        open_store(path, MASTER)
    assert str(caught.value) == f"store {path!r} is format version {version}; cmt reads version 1"


def _spaced(header: bytes) -> bytes:
    """`header` as json.dumps spells it by default, with spaces."""
    return json.dumps(json.loads(header)).encode()


@pytest.mark.parametrize("table", ["t", "t" * 64])
@pytest.mark.parametrize("fields", [["a"], ["f" * 64], [f"f{i}" for i in range(32)],
                                    [f"{i:02d}" + "f" * 62 for i in range(32)]],
                         ids=["1_field", "1_long_field", "32_fields", "32_long_fields"])
def test_the_header_check_reads_every_header_create_store_writes_as_json_does(tmp_path, table, fields):
    # the header a store is created with is the compact JSON of its schema,
    # json the oracle, and the check gives the schema json.loads reads in
    # it; the same header with spaces is refused
    path = tmp_path / "s.cmt"
    schema = TableSchema(table, fields)
    create_store(str(path), schema, MASTER).close()
    header = path.read_bytes().split(b"\n")[0]
    loaded = json.loads(header)
    assert header == json.dumps(loaded, separators=(",", ":")).encode()
    assert loaded == {"v": 1, "table": table, "fields": fields}
    plain = tenant_store._HEADER_RE.fullmatch(header)
    assert (plain[1].decode(), plain[2].decode().split('","')) == (loaded["table"], loaded["fields"])
    assert tenant_store._read_header("s.cmt", header + b"\n") == (header + b"\n", 1, schema, {}, 0, {})
    with pytest.raises(CorruptHeader, match="^header of 's.cmt' is not one cmt writes$"):
        tenant_store._read_header("s.cmt", _spaced(header) + b"\n")


@pytest.mark.parametrize(
    "header",
    [b'{"v": 1, "table": "t", "fields": ["a", "b"]}', b'{"table":"t","fields":["a","b"],"v":1}',
     b'{"fields":["a","b"],"v":1,"table":"t"}', b' {"v":1,"table":"t","fields":["a","b"]}\t',
     b'{"v":1,"table":"\\u0074","fields":["a","b"]}'],
    ids=["spaces", "table_first", "fields_first", "around", "escaped"],
)
def test_a_header_spelled_otherwise_is_corrupt_header_and_left_untouched(tmp_path, header):
    # json reads each as the header `create_store` writes for the schema
    # ("t", ("a", "b")), but `cmt` never spells it so
    path = tmp_path / "s.cmt"
    assert json.loads(header) == {"v": 1, "table": "t", "fields": ["a", "b"]}
    path.write_bytes(header + b"\n")
    with pytest.raises(CorruptHeader, match="is not one cmt writes$"):
        open_store(str(path), MASTER)
    assert path.read_bytes() == header + b"\n"


# deeper than `json`'s scanner recurses, which once made it raise
# RecursionError, not ValueError
NESTED = "[" * 100_000 + "]" * 100_000


@pytest.mark.parametrize(
    "header",
    [
        '{"v":1,"table":"t","fields":"ab"}',  # TableSchema's rule: a list, not a string
        '{"v":true,"table":"t","fields":["a"]}',  # True == 1
        '{"v":true}',  # nor a VersionMismatch: true is no version
        '[{"v":2}]',  # not an object
        '{"v":1,"fields":["a"]}',
        '{"v":1,"table":"t","fields":{"a":1}}',  # nor a dict
        '{"v":1,"table":"T","fields":["a"]}',  # InvalidSchema, exit 2, at init
        '{"v":1,"table":"t","fields":["name\\n"]}',  # a field name with a trailing newline
        '{"v":1,"table":5,"fields":["a"]}',  # TableSchema's rule: names are strings
        '{"v":1,"table":"t","fields":["a",1]}',
        # the header pattern leaves the count and duplicates to TableSchema
        '{"v":1,"table":"t","fields":["a","a"]}',
        '{"v":1,"table":"t","fields":["%s"]}' % '","'.join(f"f{i}" for i in range(33)),
        '{"v":1,"table":"t","fields":[]}',
        '{"v":1,"table":"","fields":["a"]}',
        '{"v":1,"table":"t","fields":["a",""]}',
        pytest.param(NESTED, id="nested_too_deep"),
    ],
)
def test_open_malformed_header_is_corrupt_header(tmp_path, header):
    path = tmp_path / "s.cmt"
    path.write_text(header + "\n")
    with pytest.raises(CorruptHeader):
        open_store(str(path), MASTER)


@pytest.mark.parametrize(
    "content, message",
    [(b"", "empty store file"), (b'\n{"v":1,"table":"t","fields":["a"]}\n', "empty header line")],
    ids=["empty_file", "leading_newline"],
)
def test_an_empty_header_line_is_not_called_an_empty_file(tmp_path, content, message):
    path = tmp_path / "s.cmt"
    path.write_bytes(content)
    with pytest.raises(CorruptHeader, match=message):
        open_store(str(path), MASTER)


def test_advisory_lock_blocks_second_handle(tmp_path):
    path = str(tmp_path / "s.cmt")
    with create_store(path, SCHEMA, MASTER):
        with pytest.raises(StoreLocked):
            open_store(path, MASTER)
    # released on close
    open_store(path, MASTER).close()


@pytest.mark.parametrize("link", [os.symlink, os.link], ids=["symlink", "hard_link"])
def test_lock_holds_through_any_path_to_the_file(tmp_path, link):
    # the lock is the file's, not a name's: a second path meets it too
    path = str(tmp_path / "s.cmt")
    other = str(tmp_path / "other.cmt")
    with create_store(path, SCHEMA, MASTER) as s:
        s.insert("uni_a", row("first"))
        link(path, other)
        with pytest.raises(StoreLocked):
            open_store(other, MASTER)
        s.insert("uni_a", row("second"))
    with open_store(other, MASTER) as s:
        assert [r.fields["name"] for r in s.list("uni_a")] == ["first", "second"]


def test_create_holds_the_lock_before_its_header_is_durable(tmp_path, monkeypatch):
    path = str(tmp_path / "s.cmt")
    fsync = os.fsync
    outcomes = []

    def opening_fsync(fd):
        if stat.S_ISREG(os.fstat(fd).st_mode) and not outcomes:
            try:
                open_store(path, MASTER).close()
                outcomes.append("opened")
            except StoreLocked:
                outcomes.append("locked")
        fsync(fd)

    monkeypatch.setattr(os, "fsync", opening_fsync)
    create_store(path, SCHEMA, MASTER).close()
    assert outcomes == ["locked"]


class _FullDisk(io.FileIO):
    """A file whose writes put 10 bytes in it and then fail as a full disk
    would."""

    def write(self, data):
        super().write(bytes(data[:10]))
        raise OSError(errno.ENOSPC, "No space left on device")


@pytest.mark.parametrize("fault", ["write", "fsync"])
def test_failed_create_leaves_no_file(tmp_path, monkeypatch, fault):
    path = str(tmp_path / "s.cmt")
    with monkeypatch.context() as mp:
        if fault == "write":
            mp.setattr(tenant_store, "open", lambda p, mode, buffering: _FullDisk(p, mode),
                       raising=False)
        else:
            def failing_fsync(fd):
                raise OSError(errno.EIO, "Input/output error")

            mp.setattr(os, "fsync", failing_fsync)
        with pytest.raises(OSError):
            create_store(path, SCHEMA, MASTER)
    assert os.listdir(tmp_path) == []
    create_store(path, SCHEMA, MASTER).close()
    with open_store(path, MASTER) as s:
        assert s.schema == SCHEMA


def test_locked_open_leaves_a_live_writers_tail_alone(tmp_path):
    path = str(tmp_path / "s.cmt")
    with create_store(path, SCHEMA, MASTER) as s:
        s.insert("uni_a", row())
        # the live writer is part-way through its next append
        with open(path, "ab") as fh:
            fh.write(b'{"op":"ins","t":"uni_a","r":2,')
        with open(path, "rb") as fh:
            before = fh.read()
        with pytest.raises(StoreLocked):
            open_store(path, MASTER)
        with open(path, "rb") as fh:
            assert fh.read() == before
    # the lock was released by the failed open too: the tail is torn now
    with open_store(path, MASTER) as s:
        assert [r.row_id for r in s.list("uni_a")] == [1]


@pytest.mark.parametrize(
    "event",
    [
        '{"op":"ins","t":"x","ts":1,"f":{}}',  # no "r"
        '{"t":"x","r":5,"ts":1}',  # no "op"
        '{"op":"drop","t":"x","r":5,"ts":1}',
        '{"op":"del","r":5,"ts":1}',  # no "t"
        '{"op":"del","t":7,"r":5,"ts":1}',
        '{"op":"del","t":"x","r":"5","ts":1}',
        '{"op":"del","t":"x","r":true,"ts":1}',
        '{"op":"del","t":"x","r":2.5,"ts":1}',
        '{"op":"ins","t":"x","r":5,"ts":1}',  # no "f"
        '{"op":"upd","t":"x","r":5,"ts":1,"f":["a"]}',
        '{"op":"ins","t":"x","r":5,"ts":1,"f":{"name":7}}',
        '{"op":"ins","t":"x","r":5,"ts":1,"f":{"name":"not base64!"}}',
        '{"op":"ins","t":"x","r":5,"ts":1,"f":{"name":"AAAA"}}',  # too short a value
        "[1,2]",
        '{"op":"del","t":"x","r":5,"ts":1}{"op":"del","t":"x","r":6,"ts":1}',  # extra data
        '{"op":"del","t":"x","r":5,"ts":1} x',
        '{"op":"del","t":"x",\n"r":5,"ts":1}',  # one event split over two lines
        pytest.param(NESTED, id="nested_too_deep"),
    ],
)
def test_malformed_event_is_corrupt_log_with_line_number(tmp_path, event):
    path = str(tmp_path / "s.cmt")
    with create_store(path, SCHEMA, MASTER) as s:
        s.insert("uni_a", row())
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(event + "\n")
    with pytest.raises(CorruptLog, match="line 3 "):
        open_store(path, MASTER)
    # the failed open released the lock
    with pytest.raises(CorruptLog):
        open_store(path, MASTER)


@pytest.mark.parametrize(
    "line",
    [
        b'{"op":',  # no JSON
        b"\xff",  # no UTF-8
        b"[]",  # no object
        b'"x"',
        b'{"op":"ins"}',  # no "t"
        b'{"op":"zap","t":"a","r":1}',
        b'{"op":"zap","t":"a","r":1,"ts":0,"f":{}}',  # matched again without its "ts", missed
    ],
)
def test_a_refused_line_gives_the_one_corrupt_log_message(tmp_path, monkeypatch, line):
    monkeypatch.chdir(tmp_path)
    create_store("s.cmt", SCHEMA, MASTER).close()
    with open("s.cmt", "ab") as fh:
        fh.write(line + b"\n")
    with pytest.raises(CorruptLog) as caught:
        open_store("s.cmt", MASTER)
    assert str(caught.value) == "corrupt event at line 2 of 's.cmt': not a well-formed event"


# --- CRUD -------------------------------------------------------------------

def test_insert_get_round_trip(store):
    row_id = store.insert("uni_a", row("Alice", "555", "physics"))
    assert row_id == 1
    rec = store.get("uni_a", row_id)
    assert rec.fields == row("Alice", "555", "physics")
    assert rec.tenant == "uni_a"


def test_row_ids_monotonic(store):
    assert store.insert("uni_a", row()) == 1
    assert store.insert("uni_b", row()) == 2
    store.delete("uni_b", 2)
    assert store.insert("uni_b", row()) == 3  # deleted ids never reused


def test_insert_schema_mismatch(store):
    with pytest.raises(SchemaMismatch):
        store.insert("uni_a", {"name": "x", "contact": "y"})
    with pytest.raises(SchemaMismatch):
        store.insert("uni_a", {**row(), "extra": "z"})


@pytest.mark.parametrize(
    "value, reason",
    [("\ud800", "not valid UTF-8"), (5, "not a str but int"), (b"x", "not a str but bytes")],
    ids=["lone_surrogate", "int", "bytes"],
)
def test_a_value_that_is_not_utf8_text_is_invalid_schema(store, value, reason):
    rid = store.insert("uni_a", row())
    size = os.path.getsize(store.path)
    for write in (
        lambda: store.insert("uni_a", {**row(), "contact": value}),
        lambda: store.update("uni_a", rid, {**row(), "contact": value}),
    ):
        with pytest.raises(InvalidSchema, match=f"'contact' is {reason}") as refused:
            write()
        assert refused.value.exit_code == 2
    assert os.path.getsize(store.path) == size


def test_get_not_found(store):
    with pytest.raises(NotFound):
        store.get("uni_a", 999)


def test_cross_tenant_access_denied(store):
    rid = store.insert("uni_a", row("secret"))
    with pytest.raises(IsolationDenied):
        store.get("uni_b", rid)
    with pytest.raises(IsolationDenied):
        store.update("uni_b", rid, row())
    with pytest.raises(IsolationDenied):
        store.delete("uni_b", rid)


def test_list_filters_by_tenant(store):
    for i in range(3):
        store.insert("uni_a", row(name=f"a{i}"))
    for i in range(2):
        store.insert("uni_b", row(name=f"b{i}"))
    a_rows = store.list("uni_a")
    assert [r.fields["name"] for r in a_rows] == ["a0", "a1", "a2"]
    assert [r.row_id for r in a_rows] == sorted(r.row_id for r in a_rows)
    assert len(store.list("uni_b")) == 2
    assert store.list("uni_c") == []


def test_list_survives_a_row_deleted_while_it_decrypts(store, monkeypatch):
    store.insert("uni_a", row("first"))
    store.insert("uni_a", row("second"))
    decrypt_values = tenant_store.decrypt_values
    deleted = []

    def delete_row_2_then_decrypt(values, keys):
        if not deleted:
            store.delete("uni_a", 2)
            deleted.append(2)
        return decrypt_values(values, keys)

    monkeypatch.setattr(tenant_store, "decrypt_values", delete_row_2_then_decrypt)
    # the list reads the rows live when it starts
    assert [r.fields["name"] for r in store.list("uni_a")] == ["first", "second"]
    assert deleted == [2]
    assert [r.row_id for r in store.list("uni_a")] == [1]


def test_list_matches_get_row_for_row_on_the_lanes(store, monkeypatch):
    monkeypatch.setattr(aes_core, "use_lanes", lambda *_: True)
    lane_rounds, packed_rounds = aes_core._lane_rounds, aes_core._packed_rounds
    rounds, packed = [], []
    monkeypatch.setattr(aes_core, "_lane_rounds", lambda *a: rounds.append(a) or lane_rounds(*a))
    monkeypatch.setattr(aes_core, "_packed_rounds", lambda *a: packed.append(a) or packed_rounds(*a))
    rng = random.Random(7)

    def text():
        return "".join(rng.choice("aé€😀 z") for _ in range(rng.randint(0, 90)))

    own = []
    for _ in range(17):
        own.append(store.insert("uni_a", row(text(), text(), text())))
        store.insert("uni_b", row(text(), text(), text()))
    listed = store.list("uni_a")
    assert [r.row_id for r in listed] == own
    assert listed == [store.get("uni_a", rid) for rid in own]
    # the 51 MAC chains stepped in lockstep on the kernel, then the last
    # ones on the packed rounds (MAC steps encrypt; the decryption does not)
    assert [a for a in rounds if not a[2]]
    assert [a for a in packed if not a[3]]


def test_update_replaces_whole_row(store):
    rid = store.insert("uni_a", row("old"))
    store.update("uni_a", rid, row("new", "c2", "d2"))
    assert store.get("uni_a", rid).fields == row("new", "c2", "d2")


def test_update_deleted_row(store):
    rid = store.insert("uni_a", row())
    store.delete("uni_a", rid)
    with pytest.raises(NotFound):
        store.update("uni_a", rid, row())
    with pytest.raises(NotFound):
        store.delete("uni_a", rid)


@pytest.mark.parametrize("row_id", [True, 1.0])
def test_a_row_id_that_only_equals_an_int_is_not_found(tmp_path, row_id):
    # True and 1.0 equal live row 1; written, they would be a line that
    # replay refuses, and no later open would succeed
    path = str(tmp_path / "s.cmt")
    with create_store(path, SCHEMA, MASTER) as s:
        s.insert("uni_a", row())
        with open(path, "rb") as fh:
            before = fh.read()
        for call in (
            lambda: s.get("uni_a", row_id),
            lambda: s.update("uni_a", row_id, row("x")),
            lambda: s.delete("uni_a", row_id),
        ):
            with pytest.raises(NotFound):
                call()
    with open(path, "rb") as fh:
        assert fh.read() == before
    with open_store(path, MASTER) as s:
        assert s.get("uni_a", 1).fields == row()


def test_a_closed_handle_refuses_mutations_with_store_error(tmp_path):
    path = str(tmp_path / "s.cmt")
    s = create_store(path, SCHEMA, MASTER)
    rid = s.insert("uni_a", row("one"))
    s.close()
    # its lock is gone: another handle may change the rows it still holds
    with open_store(path, MASTER) as other:
        other.update("uni_a", rid, row("two"))
    size = os.path.getsize(path)
    for mutate in (
        lambda: s.insert("uni_a", row("next")),
        lambda: s.update("uni_a", rid, row("changed")),
        lambda: s.delete("uni_a", rid),
        lambda: s.get("uni_a", rid),
        lambda: s.list("uni_a"),
    ):
        with pytest.raises(StoreError, match="closed") as refused:
            mutate()
        assert refused.value.exit_code == 3
    assert os.path.getsize(path) == size


def test_a_store_path_that_is_not_a_regular_file_is_store_error(tmp_path):
    # replay reads the whole file: a FIFO would block it for good
    path = str(tmp_path / "s.cmt")
    os.mkfifo(path)
    refused = []

    def opener():
        try:
            open_store(path, MASTER)
        except StoreError as exc:
            refused.append(exc)

    thread = threading.Thread(target=opener, daemon=True)
    thread.start()
    thread.join(30)
    assert not thread.is_alive(), "open_store blocked on a FIFO"
    [exc] = refused
    assert str(exc) == f"not a regular file: {path!r}" and exc.exit_code == 3


def test_operations_without_master_key(tmp_path):
    path = str(tmp_path / "s.cmt")
    create_store(path, SCHEMA, MASTER).close()
    with open_store(path) as s:
        with pytest.raises(MissingKey):
            s.insert("uni_a", row())


# --- persistence -------------------------------------------------------------

def test_replay_equivalence(tmp_path):
    path = str(tmp_path / "s.cmt")
    with create_store(path, SCHEMA, MASTER) as s:
        ids = [s.insert("uni_a", row(name=f"r{i}")) for i in range(5)]
        s.update("uni_a", ids[1], row("updated"))
        s.delete("uni_a", ids[2])
        expected = [(r.row_id, r.fields) for r in s.list("uni_a")]
    with open_store(path, MASTER) as s:
        assert [(r.row_id, r.fields) for r in s.list("uni_a")] == expected


def test_monotonic_ids_across_restart(tmp_path):
    path = str(tmp_path / "s.cmt")
    with create_store(path, SCHEMA, MASTER) as s:
        s.insert("uni_a", row())
        s.insert("uni_a", row())
        s.delete("uni_a", 2)
    with open_store(path, MASTER) as s:
        assert s.insert("uni_a", row()) == 3


def test_create_store_fsyncs_its_directory(tmp_path, monkeypatch):
    fsync = os.fsync
    modes = []

    def recording_fsync(fd):
        modes.append(os.fstat(fd).st_mode)
        fsync(fd)

    monkeypatch.setattr(os, "fsync", recording_fsync)
    create_store(str(tmp_path / "s.cmt"), SCHEMA, MASTER).close()
    assert any(stat.S_ISDIR(mode) for mode in modes)


class _FailingLog:
    """The store's log file, but the next write puts only its first 10 bytes
    in the file and then fails as a full disk would."""

    def __init__(self, fh):
        self._fh = fh
        self.armed = True

    def write(self, data):
        if not self.armed:
            return self._fh.write(data)
        self.armed = False
        self._fh.write(data[:10])
        raise OSError(errno.ENOSPC, "No space left on device")

    def __getattr__(self, name):
        return getattr(self._fh, name)


@pytest.mark.parametrize("fault", ["write", "fsync"])
def test_failed_append_leaves_the_log_as_it_was(tmp_path, monkeypatch, fault):
    path = str(tmp_path / "s.cmt")
    with create_store(path, SCHEMA, MASTER) as s:
        s.insert("uni_a", row("kept"))
        with open(path, "rb") as fh:
            before = fh.read()
        if fault == "write":
            s._fh = _FailingLog(s._fh)
        else:
            fsync = os.fsync
            failures = [OSError(errno.EIO, "Input/output error")]

            def failing_fsync(fd):
                if failures:
                    raise failures.pop()
                fsync(fd)

            monkeypatch.setattr(os, "fsync", failing_fsync)
        with pytest.raises(OSError):
            s.insert("uni_a", row("lost"))
        with open(path, "rb") as fh:
            assert fh.read() == before
        assert s.insert("uni_b", row("next")) == 2
    with open_store(path, MASTER) as s:
        assert [r.fields["name"] for r in s.list("uni_a")] == ["kept"]
        assert [(r.row_id, r.fields["name"]) for r in s.list("uni_b")] == [(2, "next")]
    with open(path, "rb") as fh:
        assert fh.read().count(b'"r":2') == 1


class _FailingTruncate:
    """The store's log file, but cutting it fails."""

    def __init__(self, fh):
        self._fh = fh

    def truncate(self, size):
        raise OSError(errno.EIO, "Input/output error")

    def __getattr__(self, name):
        return getattr(self._fh, name)


def test_the_next_write_cuts_an_append_whose_cut_back_failed(tmp_path, monkeypatch):
    path = str(tmp_path / "s.cmt")
    with create_store(path, SCHEMA, MASTER) as s:
        rid = s.insert("uni_a", row("kept"))
        with open(path, "rb") as fh:
            before = fh.read()
        fsync = os.fsync
        failures = [OSError(errno.ENOSPC, "No space left on device")]

        def failing_fsync(fd):
            if failures:
                raise failures.pop()
            fsync(fd)

        monkeypatch.setattr(os, "fsync", failing_fsync)
        fh, s._fh = s._fh, _FailingTruncate(s._fh)
        with pytest.raises(OSError) as failed:
            s.insert("uni_a", row("lost"))
        assert failed.value.errno == errno.ENOSPC
        # the failed event stayed in the file whole
        with open(path, "rb") as log:
            failed_log = log.read()
        assert failed_log.startswith(before) and failed_log.count(b"\n") == before.count(b"\n") + 1
        # while cutting still fails, a write raises and appends nothing
        for mutate in (
            lambda: s.insert("uni_a", row("next")),
            lambda: s.update("uni_a", rid, row("changed")),
            lambda: s.delete("uni_a", rid),
        ):
            with pytest.raises(OSError):
                mutate()
            with open(path, "rb") as log:
                assert log.read() == failed_log
        # reads answer from the committed rows throughout
        assert s.get("uni_a", rid).fields["name"] == "kept"
        assert [r.fields["name"] for r in s.list("uni_a")] == ["kept"]
        # the next write cuts the failed event and reuses its row id
        s._fh = fh
        assert s.insert("uni_a", row("next")) == rid + 1
        with open(path, "rb") as log:
            after = log.read()
        assert after.startswith(before) and after.count(b"\n") == before.count(b"\n") + 1
    with open_store(path, MASTER) as s:
        assert [(r.row_id, r.fields["name"]) for r in s.list("uni_a")] == [(1, "kept"), (2, "next")]


def test_torn_write_recovery(tmp_path):
    path = str(tmp_path / "s.cmt")
    with create_store(path, SCHEMA, MASTER) as s:
        s.insert("uni_a", row("kept"))
        s.insert("uni_a", row("torn"))
        before = [(r.row_id, r.fields) for r in s.list("uni_a")]
    # chop the final line in half, simulating a crash mid-write
    with open(path, "r+b") as fh:
        data = fh.read()
        last_start = data.rstrip(b"\n").rfind(b"\n") + 1
        fh.truncate(last_start + (len(data) - last_start) // 2)
    with open_store(path, MASTER) as s:
        assert [(r.row_id, r.fields) for r in s.list("uni_a")] == before[:1]
        # the torn id was never durable, so reuse of id 2 is correct here
        assert s.insert("uni_a", row("after")) == 2
    # the insert went to the cut end of the file, leaving no hole behind it
    with open(path, "rb") as fh:
        assert b"\0" not in fh.read()
    with open_store(path, MASTER) as s:
        assert [r.fields["name"] for r in s.list("uni_a")] == ["kept", "after"]


# --- reopening from the last open's replay -------------------------------------

def _outcome(path):
    """What an open of `path` gives: the error's class and message, or the
    live rows and the largest row id."""
    try:
        s = open_store(str(path), MASTER)
    except CmtError as exc:
        return type(exc), str(exc)
    with s:
        return s._live, s._max_row_id


def _full_replay(path, monkeypatch):
    """`_outcome` of an open that starts from an empty memo."""
    with monkeypatch.context() as m:
        m.setattr(tenant_store, "_replayed", {})
        return _outcome(path)


def spy_on_replayed_lines(monkeypatch) -> list:
    """The lines replays read from now on: each complete line a replay's
    one `findall` over the log reads with `_event_pattern`, and, when a
    line misses it, each line the replay then reads one by one, without
    the "ts" of an older version."""
    lines = []
    pattern = tenant_store._event_pattern

    def spy(names):
        compiled = pattern(names)

        def findall(string, pos=0):
            lines.extend(string[pos:].split(b"\n")[:-1])
            return compiled.findall(string, pos)

        def match(line):
            lines.append(line[:-1])  # without the newline the replay added
            return compiled.match(line)

        return types.SimpleNamespace(findall=findall, match=match)

    monkeypatch.setattr(tenant_store, "_event_pattern", spy)
    return lines


@pytest.fixture
def lines_read(monkeypatch):
    """The lines replays read."""
    return spy_on_replayed_lines(monkeypatch)


@pytest.fixture
def replayed(tmp_path):
    """A store of three rows that one open has replayed, and its bytes."""
    path = tmp_path / "s.cmt"
    with create_store(str(path), SCHEMA, MASTER) as s:
        for name in ("a", "b", "c"):
            s.insert("uni_a", row(name))
    open_store(str(path), MASTER).close()
    return path, path.read_bytes()


def test_a_reopen_decodes_only_the_appended_lines(replayed, lines_read):
    path, _ = replayed
    with open_store(str(path), MASTER) as s:
        s.insert("uni_a", row("d"))
        s.insert("uni_b", row("e"))
    assert lines_read == []  # nothing was appended since the fixture's open
    with open_store(str(path), MASTER) as s:
        assert lines_read == path.read_bytes().split(b"\n")[4:6]
        assert [r.fields["name"] for r in s.list("uni_a")] == ["a", "b", "c", "d"]
        assert s.insert("uni_b", row("f")) == 6


def test_a_handles_mutations_stay_out_of_the_memo(replayed):
    path, before = replayed
    with open_store(str(path), MASTER) as s:
        s.delete("uni_a", 3)
        s.update("uni_a", 2, row("changed"))
        s.insert("uni_a", row("d"))
    path.write_bytes(before)  # the same inode, back to what the memo holds
    with open_store(str(path), MASTER) as s:
        assert [(r.row_id, r.fields["name"]) for r in s.list("uni_a")] == [
            (1, "a"), (2, "b"), (3, "c")]


def _entry(path):
    """The memo entry of the store file `path`."""
    info = os.stat(path)
    return tenant_store._replayed[(info.st_dev, info.st_ino)]


def test_a_memo_hit_handle_reads_the_entrys_row_map(replayed):
    path, _ = replayed
    entry = _entry(path)
    with open_store(str(path), MASTER) as s:
        assert _entry(path) is entry  # nothing appended: the entry itself
        assert s._live is entry[3]
        assert [r.fields["name"] for r in s.list("uni_a")] == ["a", "b", "c"]
        assert s.get("uni_a", 2).fields["name"] == "b"
        assert s._live is entry[3]  # reads copy nothing


@pytest.mark.parametrize("write", [
    lambda s: s.insert("uni_b", row("d")),
    lambda s: s.update("uni_a", 2, row("changed")),
    lambda s: s.delete("uni_a", 3),
], ids=["insert", "update", "delete"])
def test_a_handles_first_write_copies_the_entrys_row_map(replayed, write):
    path, before = replayed
    entry = _entry(path)
    rows = dict(entry[3])
    with open_store(str(path), MASTER) as s:
        assert s._live is entry[3]
        write(s)
        assert s._live is not entry[3]
        own = s._live
        s.insert("uni_c", row("e"))
        assert s._live is own  # only the first write copies
    assert entry[3] == rows and entry[0] == before
    assert _entry(path) is entry


def test_a_failed_first_write_copies_and_changes_nothing(replayed, monkeypatch):
    path, before = replayed
    entry = _entry(path)
    rows = dict(entry[3])
    fsync = os.fsync
    failures = [OSError(errno.EIO, "Input/output error")]

    def failing_fsync(fd):
        if failures:
            raise failures.pop()
        fsync(fd)

    with open_store(str(path), MASTER) as s:
        monkeypatch.setattr(os, "fsync", failing_fsync)
        with pytest.raises(OSError):
            s.delete("uni_a", 1)
        assert s._live is entry[3] and s._max_row_id == 3
        assert path.read_bytes() == before
        assert s.insert("uni_a", row("d")) == 4
        assert s._live is not entry[3]
    assert entry[3] == rows and entry[0] == before


def test_a_full_replay_handle_reads_the_replays_own_map(tmp_path, monkeypatch):
    monkeypatch.setattr(tenant_store, "_replayed", {})
    path = tmp_path / "s.cmt"
    with create_store(str(path), SCHEMA, MASTER) as s:
        s.insert("uni_a", row("a"))
    with open_store(str(path), MASTER) as s:
        assert s._live is _entry(path)[3]
        assert sorted(s._live) == [1]


@pytest.mark.parametrize("tail", [b"", b'{"op":"del","t":"uni_a"'], ids=["nothing", "torn"])
def test_a_replay_with_no_line_after_its_start_returns_the_start(replayed, tail):
    path, before = replayed
    start = tenant_store._replay(str(path), before, None)
    assert tenant_store._replay(str(path), before + tail, start) is start


def test_a_replay_with_no_torn_tail_holds_the_bytes_it_was_given(replayed):
    # the state's bytes cut at the last newline are a full-length slice, the
    # read bytes object itself: an open holds the file once, not a copy
    path, raw = replayed
    assert tenant_store._replay(str(path), raw, None)[0] is raw
    torn = raw + b'{"op":"del"'
    assert tenant_store._replay(str(path), torn, None)[0] == raw


@pytest.mark.parametrize("marker, caught", [(b'"op":"in', CorruptLog), (b'"name":"', AuthError)])
def test_a_flipped_byte_in_the_replayed_prefix_is_caught(replayed, marker, caught):
    path, before = replayed
    # the byte after the last event's marker: a bad op, or a value whose
    # first IV byte changed
    at = before.rindex(marker) + len(marker)
    path.write_bytes(before[:at] + (b"B" if before[at] == ord("A") else b"A") + before[at + 1 :])
    with pytest.raises(caught, match="line 4 " if caught is CorruptLog else None):
        with open_store(str(path), MASTER) as s:
            s.get("uni_a", 3)


def test_a_file_cut_short_of_the_prefix_replays_in_full(replayed, lines_read, monkeypatch):
    path, before = replayed
    path.write_bytes(before[: before.rstrip(b"\n").rindex(b"\n") + 1])  # drop row 3
    with open_store(str(path), MASTER) as s:
        assert sorted(s._live) == [1, 2]
        assert s.insert("uni_a", row("x")) == 3
    assert len(lines_read) == 2
    lines_read.clear()
    assert _outcome(path) == _full_replay(path, monkeypatch)
    assert len(lines_read) == 1 + 3  # the line appended since, then a full replay


def test_a_replaced_file_replays_in_full(replayed, lines_read):
    path, before = replayed
    other = path.with_name("other.cmt")
    other.write_bytes(before)
    os.replace(other, path)
    with open_store(str(path), MASTER) as s:
        assert sorted(s._live) == [1, 2, 3]
    assert len(lines_read) == 3


def test_a_corrupt_line_after_a_hit_names_its_line_in_the_file(replayed, lines_read):
    path, before = replayed
    with open(path, "ab") as fh:
        fh.write(b'{"op":"del","t":"uni_a","r":3}\n{"op":"del","t":"uni_a","r":0}\n')
    with pytest.raises(CorruptLog, match="at line 6 of"):
        open_store(str(path), MASTER)
    # only the two lines appended since, by the findall and then one by one
    assert set(lines_read) == set(path.read_bytes().split(b"\n")[4:6])
    # the failed open applied the delete to its own copy of the memo's rows
    path.write_bytes(before)
    with open_store(str(path), MASTER) as s:
        assert sorted(s._live) == [1, 2, 3]


def test_a_line_nested_too_deep_after_a_hit_is_corrupt_log(replayed, lines_read):
    path, _ = replayed
    with open(path, "a", encoding="ascii") as fh:
        fh.write(NESTED + "\n")
    with pytest.raises(CorruptLog, match="at line 5 of"):
        open_store(str(path), MASTER)
    assert lines_read == [NESTED.encode()] * 2  # by the findall, then on its own


def test_a_torn_tail_after_a_hit_is_left_out_as_in_a_full_replay(
    replayed, lines_read, monkeypatch, caplog
):
    path, _ = replayed
    with open_store(str(path), MASTER) as s:
        s.insert("uni_b", row("d"))
        s.delete("uni_a", 1)
    whole = path.read_bytes()
    with open(path, "ab") as fh:
        fh.write(b'{"op":"del","t":"uni_b"')
    torn = path.read_bytes()
    with open_store(str(path), MASTER) as s:
        assert sorted(s._live) == [2, 3, 4]
    assert len(lines_read) == 2
    assert "torn trailing write in" in caplog.text
    assert path.read_bytes() == torn  # an open writes nothing
    lines_read.clear()
    assert _outcome(path) == _full_replay(path, monkeypatch)
    assert len(lines_read) == 5  # none on the reopen: the memo's bytes leave the tail out
    with open_store(str(path), MASTER) as s:
        assert s.insert("uni_b", row("e")) == 5
    assert path.read_bytes().startswith(whole) and path.read_bytes().endswith(b"\n")
    assert _outcome(path) == _full_replay(path, monkeypatch)


def _assert_value_rows(s, path):
    """Every live row of `s` is (tenant, tuple of values in schema order),
    and its values are the base64 text, as ASCII bytes, of the "f" of the
    row's last event in the file."""
    last = {}
    for line in path.read_bytes().split(b"\n")[1:-1]:
        event = json.loads(line)
        last[event["r"]] = event
    assert set(s._live) == {r for r, event in last.items() if event["op"] != "del"}
    for row_id, live_row in s._live.items():
        assert type(live_row) is tuple and len(live_row) == 2
        tenant, values = live_row
        assert type(tenant) is str and type(values) is tuple
        assert [type(value) for value in values] == [bytes] * len(SCHEMA.field_names)
        event = last[row_id]
        assert tenant == event["t"]
        assert values == tuple(event["f"][name].encode("ascii") for name in SCHEMA.field_names)


def test_live_rows_are_value_tuples_in_schema_order_on_every_path(tmp_path, lines_read, monkeypatch):
    monkeypatch.setattr(tenant_store, "_replayed", {})
    path = tmp_path / "s.cmt"
    with create_store(str(path), SCHEMA, MASTER) as s:
        for name in ("a", "b", "c"):
            s.insert("uni_a", row(name, f"c-{name}", f"d-{name}"))
        s.insert("uni_b", row("e"))
        s.update("uni_a", 2, row("b2", "c2", "d2"))
        s.delete("uni_a", 3)
        _assert_value_rows(s, path)
    with open_store(str(path), MASTER) as s:  # a full replay
        assert len(lines_read) == 6
        _assert_value_rows(s, path)
        s.insert("uni_b", row("f"))
        s.update("uni_b", 4, row("e2", "c3", "d3"))
        _assert_value_rows(s, path)
    lines_read.clear()
    with open_store(str(path), MASTER) as s:  # a hit that replays two lines
        assert len(lines_read) == 2
        _assert_value_rows(s, path)
    with open(path, "ab") as fh:
        fh.write(b'{"op":"del","t":"uni_a","r":1')
    torn = path.read_bytes()
    lines_read.clear()
    with open_store(str(path), MASTER) as s:  # a hit that leaves a torn tail out
        assert lines_read == []
        assert path.read_bytes() == torn
        _assert_value_rows(s, path)
        s.insert("uni_a", row("g"))  # which cuts the tail
        assert path.read_bytes().endswith(b"\n")
        _assert_value_rows(s, path)


_TENANTS = ("uni_a", "uni_b", "uni_c")
_OPS = st.lists(st.tuples(st.sampled_from(["ins", "upd", "del"]), st.sampled_from(_TENANTS),
                          st.integers(0, 20)), max_size=12)


@given(ops=_OPS, data=st.data())
@settings(max_examples=50, deadline=None)
def test_a_replay_from_any_complete_prefix_ends_as_a_full_replay(ops, data):
    # the rule the memo relies on, at every line boundary, and the handle's
    # apply rule against the replay's
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "s.cmt")
        with create_store(path, SCHEMA, MASTER) as s:
            for op, tenant, pick in ops:
                rows = [r for r, (owner, _) in s._live.items() if owner == tenant]
                if op == "ins" or not rows:
                    s.insert(tenant, row(str(pick)))
                elif op == "upd":
                    s.update(tenant, rows[pick % len(rows)], row(str(pick), "u"))
                else:
                    s.delete(tenant, rows[pick % len(rows)])
            with open(path, "rb") as fh:
                raw = fh.read()
            full = tenant_store._replay(path, raw, None)
            assert (s._live, s._max_row_id) == full[3:5]
    ends = list(itertools.accumulate(len(line) + 1 for line in raw.split(b"\n")[:-1]))
    assert full[:2] == (raw, len(ends))
    for k in ends:
        prefix = tenant_store._replay(path, raw[:k], None)
        live = dict(prefix[3])
        assert tenant_store._replay(path, raw, prefix) == full
        assert prefix[3] == live  # the starting state is left as it was
    # a cut inside a line gives the state of the complete lines before it
    for start, end in zip(ends, ends[1:]):
        state = tenant_store._replay(path, raw[: data.draw(st.integers(start + 1, end - 1))], None)
        assert state == tenant_store._replay(path, raw[:start], None)
        assert state[0] == raw[:start]


def _lists_as_scanned(s):
    """Each tenant's `list` against a scan of the handle's whole row map."""
    for tenant in _TENANTS:
        scan = [row_id for row_id in sorted(s._live) if s._live[row_id][0] == tenant]
        listed = s.list(tenant)
        assert [r.row_id for r in listed] == scan
        assert [r.fields for r in listed] == [s.get(tenant, row_id).fields for row_id in scan]


def _reopened(s, path, kind):
    """Close the handle `s` and open `path` again: as it is ("reopen"), as a
    new inode, or rewound to the bytes of its memo entry."""
    s.close()
    with open(path, "rb") as fh:
        raw = fh.read()
    if kind == "new_inode":
        with open(path + ".new", "wb") as fh:
            fh.write(raw)
        os.replace(path + ".new", path)
    elif kind == "rewind":
        info = os.stat(path)
        entry = tenant_store._replayed.get((info.st_dev, info.st_ino))
        # an entry of an earlier file whose inode number this one reuses
        # may hold other bytes
        if entry is not None and raw.startswith(entry[0]):
            os.truncate(path, len(entry[0]))
    return open_store(path, MASTER)


@given(steps=st.lists(st.tuples(
    st.sampled_from(["ins", "upd", "del", "list", "reopen", "new_inode", "rewind"]),
    st.sampled_from(_TENANTS), st.integers(0, 20)), max_size=16))
@settings(max_examples=60, deadline=None)
def test_a_list_reads_what_a_scan_of_the_row_map_finds(steps):
    # the row index of a state, shared by every handle on it and filled at
    # its first list, with the rows each handle inserts or deletes since:
    # memo hits with and without appended lines, a new inode, and a memo
    # entry rewound to after a handle wrote
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(tenant_store, "_replayed", {}):
        path = os.path.join(tmp, "s.cmt")
        s = create_store(path, SCHEMA, MASTER)
        try:
            for kind, tenant, pick in steps:
                owned = [r for r in sorted(s._live) if s._live[r][0] == tenant]
                if kind == "ins" or (kind in ("upd", "del") and not owned):
                    s.insert(tenant, row(str(pick)))
                elif kind == "upd":
                    s.update(tenant, owned[pick % len(owned)], row(str(pick), "u"))
                elif kind == "del":
                    s.delete(tenant, owned[pick % len(owned)])
                elif kind == "list":
                    _lists_as_scanned(s)
                else:
                    s = _reopened(s, path, kind)
            _lists_as_scanned(s)
        finally:
            s.close()


class _CountingRows(dict):
    """A row map that counts its reads by key, as the benchmark's row-map
    probe counts them."""

    reads = 0

    def __getitem__(self, key):
        self.reads += 1
        return super().__getitem__(key)


def _listed_reads(s, tenant):
    """The row ids `s.list(tenant)` returns and the row-map reads it took."""
    s._live = _CountingRows(s._live)
    row_ids = [r.row_id for r in s.list(tenant)]
    return row_ids, s._live.reads


def test_a_list_reads_only_the_listing_tenants_rows(tmp_path, monkeypatch):
    # 200 tenants of 5 rows, every row holding the values of row 1: a scan of
    # the whole row map would read 1,000
    monkeypatch.setattr(tenant_store, "_replayed", {})
    path = tmp_path / "s.cmt"
    with create_store(str(path), SCHEMA, MASTER) as s:
        s.insert("uni_a", row("a"))
    first = path.read_bytes().split(b"\n")[1]
    with open(path, "ab") as fh:
        for row_id in range(2, 1001):
            tenant = b"uni_a" if row_id % 200 == 1 else b"t%03d" % (row_id % 200)
            fh.write(first.replace(b'"t":"uni_a","r":1,', b'"t":"%s","r":%d,' % (tenant, row_id)) + b"\n")
    with open_store(str(path), MASTER) as s:
        assert _listed_reads(s, "uni_a") == ([1, 201, 401, 601, 801], 5)
    with open_store(str(path), MASTER) as s:  # a memo hit: its index is built
        assert s._index["uni_a"] == [1, 201, 401, 601, 801] and len(s._index) == 200
        s.insert("uni_a", row("b"))
        s.delete("uni_a", 201)
        assert _listed_reads(s, "uni_a") == ([1, 401, 601, 801, 1001], 5)
    with open_store(str(path), MASTER) as s:  # two lines appended: a new state
        assert not s._index
        assert _listed_reads(s, "uni_a") == ([1, 401, 601, 801, 1001], 5)


@contextlib.contextmanager
def _warnings():
    """The messages `tenant_store` logs inside the block."""
    messages = []
    handler = logging.Handler()
    handler.emit = lambda record: messages.append(record.getMessage())
    logger = logging.getLogger(tenant_store.__name__)
    logger.addHandler(handler)
    try:
        yield messages
    finally:
        logger.removeHandler(handler)


class StoreAgainstAModel(RuleBasedStateMachine):
    """`Store` driven against a dict of row id -> (tenant, name): writes and
    reads over three tenants, reopens (a memo hit, a new inode, a cut last
    event, a torn chunk appended) and writes whose write, fsync, or fsync and
    cut-back fail. `tail` is what the file holds past the handle's last
    event: a torn chunk, or an event whose cut-back failed. An open and a
    read leave it in the file, and the next write cuts it and appends right
    after the last complete line. Only the error the model names, a
    CmtError, may escape an operation; an injected OSError is expected."""

    _names = st.text(st.characters(codec="utf-8"), max_size=6)
    _tenants = st.sampled_from(_TENANTS)
    _picks = st.integers(0, 30)

    def __init__(self):
        super().__init__()
        self._memo = tenant_store._replayed
        tenant_store._replayed = {}
        self._tmp = tempfile.TemporaryDirectory()
        self.path = os.path.join(self._tmp.name, "s.cmt")
        self.store = create_store(self.path, SCHEMA, MASTER)
        self.rows = {}
        self.max_row_id = 0
        self.history = []  # (rows, max_row_id) before each event in the file
        self.entry = None  # the open handle's memo entry and a copy of its rows
        self.tail = b""
        self.pending = None  # the event in `tail` whose cut-back failed

    def teardown(self):
        self.store.close()
        tenant_store._replayed = self._memo
        self._tmp.cleanup()

    def _read(self):
        with open(self.path, "rb") as fh:
            return fh.read()

    def _target(self, pick):
        ids = sorted(self.rows) + [self.max_row_id + 1]
        return ids[pick % len(ids)]

    def _refusal(self, tenant, row_id):
        """The error that a write or a get of `row_id` by `tenant` must
        raise, or None."""
        if row_id not in self.rows:
            return NotFound
        if self.rows[row_id][0] != tenant:
            return IsolationDenied
        return None

    def _committed(self, tenant, row_id, name):
        self.history.append((dict(self.rows), self.max_row_id))
        if name is None:
            del self.rows[row_id]
        else:
            self.rows[row_id] = (tenant, name)
        self.max_row_id = max(self.max_row_id, row_id)

    def _write(self, refusal, write, tenant, row_id, name):
        """Call `write`, which must raise `refusal` and leave the file as it
        was, or, with no refusal, cut `tail`, append one line and commit the
        event (`tenant`, `row_id`, `name`). What `write` returned."""
        before = self._read()
        if refusal:
            with pytest.raises(refusal):
                write()
            assert self._read() == before
            return None
        returned = write()
        after, kept = self._read(), before[: len(before) - len(self.tail)]
        assert after.startswith(kept) and after.count(b"\n") == kept.count(b"\n") + 1
        assert after.endswith(b"\n")
        self.tail, self.pending = b"", None
        self._committed(tenant, row_id, name)
        return returned

    def _close(self):
        self.store.close()
        if self.pending:  # an open replays the event whose cut-back failed
            self._committed(*self.pending)
            self.tail, self.pending = b"", None

    def _rule_breaking_line(self, kind, tenant, pick):
        """A well-formed event line that breaks a rule of the format by
        `kind`: a "del" of a row live under another tenant, an "upd" of a
        row that was inserted and deleted, an "ins" at or below the largest
        row id, or, when no row fits the kind, an "upd" of a row never
        inserted."""
        foreign = [r for r, (owner, _) in sorted(self.rows.items()) if owner != tenant]
        deleted = [r for r in range(1, self.max_row_id + 1) if r not in self.rows]
        event = {"op": "upd", "t": tenant, "r": self.max_row_id + 1 + pick}
        if kind == "foreign_del" and foreign:
            event.update(op="del", r=foreign[pick % len(foreign)])
        elif kind == "deleted_upd" and deleted:
            event["r"] = deleted[pick % len(deleted)]
        elif kind == "ins_not_above" and self.max_row_id:
            event.update(op="ins", r=1 + pick % self.max_row_id)
        if event["op"] != "del":
            event["f"] = {name: "A" * 64 for name in SCHEMA.field_names}  # 48 bytes each
        return json.dumps(event, separators=(",", ":")).encode("ascii")

    def _reopen(self):
        before = self._read()
        with _warnings() as warned:
            self.store = open_store(self.path, MASTER)
        assert self._read() == before  # an open writes nothing
        assert warned == ([f"torn trailing write in {self.path!r} ({len(self.tail)} bytes): "
                           "the next write cuts it"] if self.tail else [])
        full = tenant_store._replay(self.path, before, None)
        assert (self.store._live, self.store._max_row_id) == full[3:5]
        entry = _entry(self.path)
        assert self.store._live is entry[3]
        self.entry = entry, dict(entry[3])
        for tenant in _TENANTS:  # every committed event survived
            self.list_rows(tenant)

    @rule(tenant=_tenants, name=_names)
    def insert(self, tenant, name):
        row_id = self.max_row_id + 1
        write = functools.partial(self.store.insert, tenant, row(name))
        assert self._write(None, write, tenant, row_id, name) == row_id

    @rule(tenant=_tenants, pick=_picks, name=_names)
    def update(self, tenant, pick, name):
        row_id = self._target(pick)
        write = functools.partial(self.store.update, tenant, row_id, row(name))
        self._write(self._refusal(tenant, row_id), write, tenant, row_id, name)

    @rule(tenant=_tenants, pick=_picks)
    def delete(self, tenant, pick):
        row_id = self._target(pick)
        write = functools.partial(self.store.delete, tenant, row_id)
        self._write(self._refusal(tenant, row_id), write, tenant, row_id, None)

    @rule(tenant=_tenants, pick=_picks)
    def get(self, tenant, pick):
        row_id = self._target(pick)
        refusal = self._refusal(tenant, row_id)
        if refusal:
            with pytest.raises(refusal):
                self.store.get(tenant, row_id)
        else:
            assert self.store.get(tenant, row_id).fields == row(self.rows[row_id][1])

    @rule(tenant=_tenants)
    def list_rows(self, tenant):
        listed = [(r.row_id, r.fields) for r in self.store.list(tenant)]
        assert listed == [(row_id, row(name)) for row_id, (owner, name)
                          in sorted(self.rows.items()) if owner == tenant]
        assert listed == [(row_id, self.store.get(tenant, row_id).fields) for row_id, _ in listed]

    @rule()
    def reopen(self):
        self._close()
        self._reopen()

    @rule()
    def reopen_a_new_inode(self):
        self._close()
        other = self.path + ".new"
        with open(other, "wb") as fh:
            fh.write(self._read())
        os.replace(other, self.path)
        self._reopen()

    @precondition(lambda self: self.history or self.pending)
    @rule(at=st.integers(0, 10**6))
    def reopen_with_the_last_event_cut(self, at):
        self._close()
        raw = self._read()
        end = len(raw) - len(self.tail)  # the end of the last complete line
        start = raw.rindex(b"\n", 0, end - 1) + 1
        self.tail = raw[start : start + 1 + at % (end - 1 - start)]
        os.truncate(self.path, start + len(self.tail))
        self.rows, self.max_row_id = self.history.pop()
        self._reopen()

    @rule(chunk=st.binary(min_size=1, max_size=40).filter(lambda chunk: b"\n" not in chunk))
    def reopen_with_a_torn_chunk_appended(self, chunk):
        self._close()
        with open(self.path, "ab") as fh:
            fh.write(chunk)
        self.tail += chunk
        self._reopen()

    @rule(kind=st.sampled_from(["foreign_del", "never_inserted_upd", "deleted_upd", "ins_not_above"]),
          tenant=_tenants, pick=_picks)
    def reopen_with_a_rule_breaking_line_then_without_it(self, kind, tenant, pick):
        # put after the last complete line, before a torn tail, in place, so
        # that the file keeps its inode and the memo entry of an open of it
        # is a prefix: the first open below is a memo hit
        self._close()
        self._reopen()
        self.store.close()
        raw = self._read()
        end = len(raw) - len(self.tail)
        line = self._rule_breaking_line(kind, tenant, pick)
        with open(self.path, "r+b") as fh:
            fh.seek(end)
            fh.write(line + b"\n" + self.tail)
        bad, number = self._read(), raw.count(b"\n", 0, end) + 1
        refused = (f"^corrupt event at line {number} of {re.escape(repr(self.path))}: "
                   "(an insert not above every earlier row id|no live row of its tenant)$")
        assert bad.startswith(_entry(self.path)[0])
        with pytest.raises(CorruptLog, match=refused):
            open_store(self.path, MASTER)
        with mock.patch.object(tenant_store, "_replayed", {}), pytest.raises(CorruptLog, match=refused):
            open_store(self.path, MASTER)  # a full replay
        assert self._read() == bad  # a refused open writes nothing
        with open(self.path, "r+b") as fh:  # the line cut off again
            fh.write(raw)
            fh.truncate()
        self._reopen()

    @rule(fault=st.sampled_from(["write", "fsync", "fsync_and_cut"]),
          op=st.sampled_from(["ins", "upd", "del"]), tenant=_tenants, pick=_picks, name=_names)
    def write_that_fails(self, fault, op, tenant, pick, name):
        owned = [r for r, (owner, _) in self.rows.items() if owner == tenant]
        if op == "ins" or not owned:
            row_id, write = self.max_row_id + 1, functools.partial(self.store.insert, tenant, row(name))
        elif op == "upd":
            row_id = owned[pick % len(owned)]
            write = functools.partial(self.store.update, tenant, row_id, row(name))
        else:
            row_id, name = owned[pick % len(owned)], None
            write = functools.partial(self.store.delete, tenant, row_id)
        fh, live, before = self.store._fh, self.store._live, self._read()
        failing = {"write": _FailingLog, "fsync": lambda fh: fh, "fsync_and_cut": _FailingTruncate}
        self.store._fh = failing[fault](fh)
        try:
            fsync = os.fsync if fault == "write" else mock.Mock(side_effect=OSError(errno.EIO, "EIO"))
            with mock.patch.object(os, "fsync", fsync), pytest.raises(OSError):
                write()
        finally:
            self.store._fh = fh
        assert self.store._live is live  # nothing applied, nothing copied
        after = self._read()
        if fault != "fsync_and_cut":  # `tail` and the failed append were cut
            assert after == before[: len(before) - len(self.tail)]
            self.tail, self.pending = b"", None
        elif self.tail:  # cutting `tail` failed, so nothing was appended
            assert after == before
        else:  # the whole line stayed in the file, for the next write to cut
            assert after.startswith(before) and after.count(b"\n") == before.count(b"\n") + 1
            self.tail, self.pending = after[len(before) :], (tenant, row_id, name)

    @invariant()
    def the_file_holds_the_handles_events_then_the_tail(self):
        raw = self._read()
        assert raw[: self.store._end].endswith(b"\n") and raw[self.store._end :] == self.tail

    @invariant()
    def the_handle_holds_the_models_rows(self):
        assert {r: tenant for r, (tenant, _) in self.store._live.items()} == {
            r: tenant for r, (tenant, _) in self.rows.items()}
        assert self.store._max_row_id == self.max_row_id

    @invariant()
    def no_write_reaches_the_memo_entry(self):
        if self.entry is not None:
            entry, rows = self.entry
            assert _entry(self.path) is entry and entry[3] == rows


StoreAgainstAModel.TestCase.settings = settings(
    max_examples=50, stateful_step_count=30, deadline=None)
TestStoreAgainstAModel = StoreAgainstAModel.TestCase


def test_ciphertext_at_rest(tmp_path):
    path = str(tmp_path / "s.cmt")
    sentinels = [os.urandom(8).hex() for _ in range(20)]  # 16-char strings
    with create_store(path, SCHEMA, MASTER) as s:
        for sv in sentinels:
            s.insert("uni_a", row(name=sv, contact=sv, department=sv))
    with open(path, "rb") as fh:
        raw = fh.read()
    for sv in sentinels:
        assert sv.encode() not in raw
    # addressing data stays readable
    assert b"uni_a" in raw
    assert b'"name"' in raw


def test_wrong_master_key_fails_closed(tmp_path):
    path = str(tmp_path / "s.cmt")
    with create_store(path, SCHEMA, MASTER) as s:
        rid = s.insert("uni_a", row("secret"))
    with open_store(path, MasterKey(os.urandom(16))) as s:
        with pytest.raises(AuthError):
            s.get("uni_a", rid)


# --- derived keys: one memo per MasterKey object ----------------------------

def spy_on_derivation(monkeypatch) -> list:
    calls = []

    def spy(master, tenant):
        calls.append((master, tenant))
        return derive_tenant_keys(master, tenant)

    monkeypatch.setattr(tenant_store, "derive_tenant_keys", spy)
    return calls


def test_a_tenant_is_derived_once_across_handles(tmp_path, monkeypatch):
    calls = spy_on_derivation(monkeypatch)
    master, path = MasterKey(os.urandom(16)), str(tmp_path / "s.cmt")
    with create_store(path, SCHEMA, master) as s:
        rid = s.insert("uni_a", row("first"))
        assert s.get("uni_a", rid).fields["name"] == "first"
    with open_store(path, master) as s:
        assert s.get("uni_a", rid).fields["name"] == "first"
        assert [r.row_id for r in s.list("uni_a")] == [rid]
    assert calls == [(master, "uni_a")]
    assert list(master.derived) == ["uni_a"]


def test_the_memo_never_crosses_master_keys(tmp_path):
    right, path = MasterKey(os.urandom(16)), str(tmp_path / "s.cmt")
    with create_store(path, SCHEMA, right) as s:
        rid = s.insert("uni_a", row("secret"))
        assert s.get("uni_a", rid).fields["name"] == "secret"
    wrong = MasterKey(os.urandom(16))
    with open_store(path, wrong) as s:
        with pytest.raises(AuthError):
            s.get("uni_a", rid)
        with pytest.raises(AuthError):
            s.list("uni_a")
    wrong_keys, right_keys = wrong.derived["uni_a"], right.derived["uni_a"]
    assert key_of(wrong_keys.enc_schedule) != key_of(right_keys.enc_schedule)
    assert key_of(wrong_keys.mac_schedule) != key_of(right_keys.mac_schedule)


def test_another_master_key_object_of_the_same_key_derives_again(tmp_path, monkeypatch):
    calls = spy_on_derivation(monkeypatch)
    key, path = os.urandom(16), str(tmp_path / "s.cmt")
    first, second = MasterKey(key), MasterKey(key)
    with create_store(path, SCHEMA, first) as s:
        rid = s.insert("uni_a", row("again"))
    with open_store(path, second) as s:
        assert s.get("uni_a", rid).fields["name"] == "again"
    assert [m is first for m, _ in calls] == [True, False]
    assert [t for _, t in calls] == ["uni_a", "uni_a"]
    # same key, same derived keys, in a memo of each object's own
    assert list(first.derived) == list(second.derived) == ["uni_a"]
    keys, again = first.derived["uni_a"], second.derived["uni_a"]
    assert keys is not again
    assert key_of(keys.enc_schedule) == key_of(again.enc_schedule)
    assert key_of(keys.mac_schedule) == key_of(again.mac_schedule)


def test_a_verified_value_that_is_not_utf8_is_auth_error(tmp_path):
    # a CBC-MAC length extension of a two-block value verifies and unpads,
    # but its spliced blocks decrypt to bytes the store never writes
    path = str(tmp_path / "s.cmt")
    with create_store(path, SCHEMA, MASTER) as s:
        rid = s.insert("uni_a", row("a name of two AES blocks"))
        value = base64.b64decode(s._live[rid][1][0])  # "name", the schema's first field
    iv, ct, tag = value[:16], value[16:-16], value[-16:]
    forged = iv + ct + bytes(a ^ b for a, b in zip(iv, tag)) + ct + tag
    mac_schedule = derive_tenant_keys(MASTER, "uni_a").mac_schedule
    assert aes_core.cbc_macs([forged[:-16]], mac_schedule)[0] == tag
    with open(path, "rb") as fh:
        event = json.loads(fh.read().split(b"\n")[1])
    event["op"], event["f"]["name"] = "upd", base64.b64encode(forged).decode("ascii")
    with open(path, "a", encoding="ascii") as fh:  # as `cmt` spells it, so it reaches the read
        fh.write(json.dumps(event, separators=(",", ":")) + "\n")
    with open_store(path, MASTER) as s:
        with pytest.raises(AuthError, match="UTF-8"):
            s.get("uni_a", rid)
        with pytest.raises(AuthError, match="UTF-8"):
            s.list("uni_a")


def test_store_file_format(tmp_path):
    path = str(tmp_path / "s.cmt")
    with create_store(path, SCHEMA, MASTER) as s:
        rid = s.insert("uni_a", row())
        s.delete("uni_a", rid)
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    header = json.loads(lines[0])
    assert header == {"v": 1, "table": "student_entry", "fields": ["name", "contact", "department"]}
    ins = json.loads(lines[1])
    assert set(ins) == {"op", "t", "r", "f"}
    assert ins["op"] == "ins" and ins["t"] == "uni_a" and ins["r"] == 1
    assert set(ins["f"]) == {"name", "contact", "department"}
    dele = json.loads(lines[2])
    assert dele == {"op": "del", "t": "uni_a", "r": 1}


# --- randomized interleaving --------------------------------------------------

def test_isolation_under_random_interleaving(tmp_path):
    rng = random.Random(1234)
    tenants = [f"tenant_{i}" for i in range(4)]
    shadow = {t: {} for t in tenants}  # tenant -> row_id -> fields
    owner = {}  # row_id -> tenant
    with create_store(str(tmp_path / "s.cmt"), SCHEMA, MASTER) as s:
        for step in range(300):
            t = rng.choice(tenants)
            action = rng.choice(["insert", "get", "update", "delete", "list", "steal"])
            if action == "insert":
                fields = row(name=f"{t}:{step}")
                rid = s.insert(t, fields)
                assert rid not in owner
                owner[rid] = t
                shadow[t][rid] = fields
            elif action == "get" and shadow[t]:
                rid = rng.choice(list(shadow[t]))
                assert s.get(t, rid).fields == shadow[t][rid]
            elif action == "update" and shadow[t]:
                rid = rng.choice(list(shadow[t]))
                fields = row(name=f"{t}:upd{step}")
                s.update(t, rid, fields)
                shadow[t][rid] = fields
            elif action == "delete" and shadow[t]:
                rid = rng.choice(list(shadow[t]))
                s.delete(t, rid)
                del shadow[t][rid]
            elif action == "list":
                got = {r.row_id: r.fields for r in s.list(t)}
                assert got == shadow[t]
            elif action == "steal":
                victims = [r for r, o in owner.items() if o != t and r in shadow[o]]
                if victims:
                    rid = rng.choice(victims)
                    with pytest.raises(IsolationDenied):
                        s.get(t, rid)


# --- fuzzed log lines ---------------------------------------------------------

@functools.cache
def _fuzz_base():
    """The header and event lines of a small valid store."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "s.cmt")
        with create_store(path, SCHEMA, MASTER) as s:
            for i in range(3):
                s.insert("uni_a", row(f"a{i}" * (1 + 20 * i), "c", "d"))
            s.insert("uni_b", row("b", "é" * 30, "d"))
            s.update("uni_a", 2, row("updated"))
            s.delete("uni_b", 4)
            s.insert("uni_b", row("b2"))
        with open(path, "rb") as fh:
            header, *events = fh.read().split(b"\n")[:-1]
    return header, tuple(events)


_POS = st.integers(0, 10**4)
_MISSING = object()
_ODD_VALUES = [_MISSING, None, 0, -1, 2**70, 1.5, True, "", "x", "uni_b", [], {}, {"name": 1}]
_LINE_EDITS = st.tuples(
    st.integers(0, 50),
    st.one_of(
        st.tuples(st.just("byte"), _POS, st.integers(0, 255)),
        st.tuples(st.just("cut"), _POS),
        st.tuples(st.just("splice"), _POS, st.integers(0, 50), _POS),
        st.tuples(st.just("drop")),
        st.tuples(st.just("copy"), st.integers(0, 50)),
        st.tuples(st.just("key"), st.integers(0, 50), st.sampled_from(_ODD_VALUES)),
    ),
)


def _edit(lines, at, edit):
    i = at % len(lines)
    line = lines[i]
    if edit[0] == "byte":
        # a byte edit of a line an earlier cut emptied writes that one byte
        pos = edit[1] % max(len(line), 1)
        lines[i] = line[:pos] + bytes([edit[2]]) + line[pos + 1 :]
    elif edit[0] == "cut":
        lines[i] = line[: edit[1] % (len(line) + 1)]
    elif edit[0] == "splice":
        other = lines[edit[2] % len(lines)]
        lines[i] = line[: edit[1] % (len(line) + 1)] + other[edit[3] % (len(other) + 1) :]
    elif edit[0] == "drop":
        del lines[i]
    elif edit[0] == "key":
        # one key of a parseable event removed or given a value of another
        # type, spelled as `cmt` writes a line
        try:
            event = json.loads(line)
        except ValueError:
            return
        if not isinstance(event, dict) or not event:
            return
        key = sorted(event)[edit[1] % len(event)]
        if edit[2] is _MISSING:
            del event[key]
        else:
            event[key] = edit[2]
        lines[i] = json.dumps(event, separators=(",", ":")).encode()
    else:
        lines.insert(edit[1] % (len(lines) + 1), line)


@given(edits=st.lists(_LINE_EDITS, min_size=1, max_size=4), torn=st.booleans(), lanes=st.booleans())
@example(edits=[(0, ("cut", 0)), (0, ("byte", 0, 0))], torn=False, lanes=False)
@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_fuzzed_log_lines_raise_only_cmt_errors(tmp_path, monkeypatch, edits, torn, lanes):
    # mutated, cut, spliced, dropped and repeated event lines: opening the
    # store, and then reading every row it replayed, fails only as a CmtError
    header, events = _fuzz_base()
    lines = list(events)
    for at, edit in edits:
        if lines:
            _edit(lines, at, edit)
    path = tmp_path / "fuzz.cmt"
    data = b"\n".join([header] + lines) + (b"" if torn else b"\n")
    # one inode across the examples: an open may start from what the open
    # of an earlier example replayed, and must end as a full replay does
    path.write_bytes(data)
    outcome = _outcome(path)
    path.write_bytes(data)
    assert outcome == _full_replay(path, monkeypatch)
    _replays_alike(data)
    monkeypatch.setattr(aes_core, "use_lanes", lambda *_: lanes)
    try:
        s = open_store(str(path), MASTER)
    except CmtError:
        return
    with s:
        for row_id, (tenant, _) in sorted(s._live.items()):
            for read in (lambda: s.get(tenant, row_id), lambda: s.list(tenant)):
                try:
                    read()
                except CmtError:
                    pass


# --- the replay against its reference -------------------------------------------

def _replayed_rows(raw):
    """What `_replay` makes of the store file `raw`: its live rows, each
    value decoded from base64, and its largest row id; or CorruptLog and
    the number of the line it names."""
    try:
        live, max_row_id = tenant_store._replay("s.cmt", raw, None)[3:5]
    except CorruptLog as exc:
        return CorruptLog, int(re.search(r"at line (\d+) of", str(exc))[1])
    return {r: (t, tuple(map(base64.b64decode, vs))) for r, (t, vs) in live.items()}, max_row_id


def _reference_rows(raw):
    """`_replayed_rows` of `raw`, each line read by `replay_reference`."""
    header, *lines = raw.split(b"\n")
    names = tuple(json.loads(header)["fields"])
    rows, max_row_id = {}, 0
    for number, line in enumerate(lines[:-1], start=2):  # the last is torn or empty
        try:
            event = replay_reference.decode_event(line, names)
            max_row_id = replay_reference.apply_event(rows, max_row_id, event)
        except (ValueError, TypeError, RecursionError):
            return CorruptLog, number
    return rows, max_row_id


def _replays_alike(raw):
    """`_replay` reads the store file `raw` as the reference does: with the
    same rows, or refusing the same line."""
    assert _replayed_rows(raw) == _reference_rows(raw), raw


def _one_event(*lines):
    """The store file of the fuzz base's header and the event `lines`."""
    return b"\n".join([_fuzz_base()[0], *lines, b""])


# bytes that JSON or strict base64 treat specially, inserted anywhere
_TOKENS = [
    b" ", b"\t", b"\r", b"\xef\xbb\xbf", b"=", b"====", b"AAAA", "é".encode(), b"\x00",
    b"}", b"{}", b"\\u0041",
]
_INSERTS = st.tuples(
    st.integers(0, 50), st.tuples(st.just("insert"), _POS, st.sampled_from(_TOKENS))
)


def _edited_log(edits):
    """The fuzz base's store file with `edits`, each a line edit or a token
    inserted into a line."""
    header, events = _fuzz_base()
    lines = list(events)
    for at, edit in edits:
        if not lines:
            break
        if edit[0] == "insert":
            i = at % len(lines)
            pos = edit[1] % (len(lines[i]) + 1)
            lines[i] = lines[i][:pos] + edit[2] + lines[i][pos:]
        else:
            _edit(lines, at, edit)
    return b"\n".join([header, *lines, b""])


@given(edits=st.lists(st.one_of(_LINE_EDITS, _INSERTS), min_size=1, max_size=4))
@settings(max_examples=200, deadline=None)
def test_decoder_agrees_with_reference_on_edited_lines(edits):
    # each edited line alone, and after the fuzz base's events, where an
    # update or a delete names a live row: what cmt reads, the reference
    # reads alike
    header, *lines, _ = _edited_log(edits).split(b"\n")
    for line in lines:
        _replays_alike(_one_event(line))
        _replays_alike(_one_event(*_fuzz_base()[1], line))


_BLANKS = ["", " ", "\t", "\r", " \t\r "]


def _spelled(value, rng):
    """`value` as JSON text, spelled as `rng` draws: an object's keys in any
    order, JSON whitespace around each token and any character of a string
    as a \\u escape. Every character past ASCII is escaped."""
    def blank():
        return rng.choice(_BLANKS)

    if isinstance(value, dict):
        items = list(value.items())
        rng.shuffle(items)
        return "{%s}" % ",".join(f"{blank()}{_spelled(key, rng)}{blank()}:{blank()}"
                                 f"{_spelled(item, rng)}{blank()}" for key, item in items)
    if isinstance(value, list):
        return "[%s]" % ",".join(blank() + _spelled(item, rng) + blank() for item in value)
    if isinstance(value, str):
        return '"%s"' % "".join("\\u%04x" % ord(c) if ord(c) < 0x10000 and rng.random() < 0.3
                                else json.dumps(c)[1:-1] for c in value)
    return json.dumps(value)


def _respelled(line, rng):
    """`line` with the meaning json reads in it, spelled as `_spelled`
    draws and with a "ts" added; a line json reads as no object is left as
    it is."""
    try:
        event = json.loads(line.decode("utf-8"))
    except (ValueError, RecursionError):
        return line
    if not isinstance(event, dict):
        return line
    event["ts"] = rng.randrange(2**31)
    return _spelled(event, rng).encode("ascii")


def _stamped(line, rng):
    """`line` with a "ts" as earlier versions wrote it, right after the
    first `"r":` and its digits, if it holds one."""
    return re.sub(rb'("r":[0-9]+)', rb'\1,"ts":%d' % rng.randrange(2**31), line, count=1)


@given(edits=st.lists(st.one_of(_LINE_EDITS, _INSERTS), max_size=4), seed=st.integers(0, 2**32))
@settings(max_examples=100, deadline=None)
def test_a_log_respelled_line_by_line_replays_as_the_reference_reads_it(edits, seed):
    # a log with every event line respelled, and with every event line
    # given an older version's "ts": the reference reads each alike, and
    # the "ts" changes neither the rows nor the refused line
    rng = random.Random(seed)
    header, *lines, torn = _edited_log(edits).split(b"\n")
    raw = b"\n".join([header, *lines, torn])
    respelled = b"\n".join([header, *(_respelled(line, rng) for line in lines), torn])
    stamped = b"\n".join([header, *(_stamped(line, rng) for line in lines), torn])
    _replays_alike(respelled)
    _replays_alike(stamped)
    assert _replayed_rows(stamped) == _replayed_rows(raw)


def _written_log(ops) -> bytes:
    """The store file that a store writes for `ops` (see `_OPS`)."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "s.cmt")
        with create_store(path, SCHEMA, MASTER) as s:
            for op, tenant, pick in ops:
                rows = [r for r, (owner, _) in s._live.items() if owner == tenant]
                if op == "ins" or not rows:
                    s.insert(tenant, row(str(pick)))
                elif op == "upd":
                    s.update(tenant, rows[pick % len(rows)], row(str(pick), "u"))
                else:
                    s.delete(tenant, rows[pick % len(rows)])
        with open(path, "rb") as fh:
            return fh.read()


def _replay_paths(raw, line_by_line=False):
    """A full `_replay` of `raw`: the state but its bytes, or the message of
    its CorruptLog; and the lines it read one by one. With `line_by_line`
    the replay's `findall` finds nothing, so it reads every line one by
    one."""
    pattern, one_by_one = tenant_store._event_pattern, []

    def spy(names):
        compiled = pattern(names)

        def match(line):
            one_by_one.append(line)
            return compiled.match(line)

        findall = (lambda string, pos=0: []) if line_by_line else compiled.findall
        return types.SimpleNamespace(findall=findall, match=match)

    with mock.patch.object(tenant_store, "_event_pattern", spy):
        try:
            outcome = tenant_store._replay("s.cmt", raw, None)[1:]
        except CorruptLog as exc:
            outcome = str(exc)
    return outcome, one_by_one


@given(ops=_OPS, drops=st.lists(st.tuples(st.integers(0, 50), st.booleans(), st.integers(0, 10**4)),
                                max_size=4),
       torn=st.booleans(), seed=st.integers(0, 2**32))
@settings(max_examples=50, deadline=None)
def test_the_findall_and_the_line_by_line_replay_read_a_log_alike(ops, drops, torn, seed):
    # a log a store writes, with lines given an older version's "ts" (True)
    # and lines cut short (False) dropped in: the replay reads it as the
    # line-by-line path does, and as its findall path reads the log as
    # written
    rng = random.Random(seed)
    header, *lines, _ = _written_log(ops).split(b"\n")
    tail = lines[-1][: len(lines[-1]) // 2] if torn and lines else b""
    mixed, broken = list(lines), set()
    for at, stamp, cut in drops:
        if not lines:
            break
        i = at % len(lines)
        if stamp:
            mixed[i] = _stamped(lines[i], rng)
            broken.discard(i)
        else:  # no prefix of an event line is a JSON object
            mixed[i] = lines[i][: cut % len(lines[i])]
            broken.add(i)
    as_written, one_by_one = _replay_paths(b"\n".join([header, *lines, tail]))
    assert one_by_one == [] and as_written[0] == len(lines) + 1
    outcome, _ = _replay_paths(b"\n".join([header, *mixed, tail]))
    assert outcome == _replay_paths(b"\n".join([header, *mixed, tail]), line_by_line=True)[0]
    if broken:
        assert isinstance(outcome, str)
        assert outcome.startswith(f"corrupt event at line {min(broken) + 2} of 's.cmt': ")
    else:
        assert outcome == as_written


def _base_lines():
    """An insert event, the base64 of its first value, and the delete of
    the inserted row, as `Store` writes it."""
    _, events = _fuzz_base()
    ins = events[0]
    b64 = json.loads(ins)["f"]["name"].encode()
    return ins, b64, b'{"op":"del","t":"uni_a","r":1}'



_REFUSED = {
    "object then object": lambda ins, b64, dele: ins + dele,
    "object then text": lambda ins, b64, dele: ins + b" x",
    "split first half": lambda ins, b64, dele: ins[: len(ins) // 2],
    "split second half": lambda ins, b64, dele: ins[len(ins) // 2 :],
    "leading BOM": lambda ins, b64, dele: b"\xef\xbb\xbf" + ins,
    "BOM after space": lambda ins, b64, dele: b" \xef\xbb\xbf" + ins,
    # one character for one: only the character's range is wrong
    "non-ASCII in base64": lambda ins, b64, dele: ins.replace(b64, b64[:8] + "é".encode() + b64[9:]),
    "AAAA==== value": lambda ins, b64, dele: ins.replace(b64, b"AAAA===="),
    "padding inside a value": lambda ins, b64, dele: ins.replace(b64, b64[:4] + b"==" + b64[4:]),
    "empty line": lambda ins, b64, dele: b"",
    # the header lists name, contact and department
    "field not in the header": lambda ins, b64, dele: ins.replace(b'"contact"', b'"zzz"'),
    "field missing": lambda ins, b64, dele: ins.replace(b'"name":"' + b64 + b'",', b""),
    "extra field": lambda ins, b64, dele: ins.replace(b'"f":{', b'"f":{"zzz":"' + b64 + b'",'),
    "row id 0": lambda ins, b64, dele: ins.replace(b'"r":1,', b'"r":0,'),
    "row id with a leading zero": lambda ins, b64, dele: ins.replace(b'"r":1,', b'"r":01,'),
    "row id 1.0": lambda ins, b64, dele: ins.replace(b'"r":1,', b'"r":1.0,'),
    "insert without f": lambda ins, b64, dele: ins[: ins.index(b',"f":')] + b"}",
    # lines json reads, which earlier versions opened and no `cmt` writes
    "non-ASCII tenant": lambda ins, b64, dele: ins.replace(b"uni_a", "é".encode()),
    "tenant holding a quote": lambda ins, b64, dele: ins.replace(b"uni_a", b'a\\"b'),
    "= after whole quads": lambda ins, b64, dele: ins.replace(b64, b64 + b"="),
    "a 17-digit row id": lambda ins, b64, dele: ins.replace(b'"r":1,', b'"r":10000000000000000,'),
    "* in base64": lambda ins, b64, dele: ins.replace(b64, b"*" + b64),
    # 64 bytes or 80, their pad bits set: base64 that `b2a_base64` never writes
    "pad bits before == set": lambda ins, b64, dele: ins.replace(b64, b64 + b"A" * 21 + b"B=="),
    "pad bits before = set": lambda ins, b64, dele: ins.replace(b64, b64 + b"A" * 42 + b"B="),
}

# lines json reads as an event `Store` writes, spelled otherwise
_RESPELLED = {
    "escaped tenant": lambda ins, b64, dele: ins.replace(b'"t":"uni_a"', b'"t":"uni\\u005fa"'),
    "escaped value character": lambda ins, b64, dele: ins.replace(
        b64, b"\\u%04x" % b64[0] + b64[1:]),
    "keys in another order": lambda ins, b64, dele: ins.replace(
        b'{"op":"ins","t":"uni_a",', b'{"t":"uni_a","op":"ins",'),
    "JSON whitespace between tokens": lambda ins, b64, dele: ins.replace(b',"r":1,', b', "r": 1, '),
    "a delete with f": lambda ins, b64, dele: dele[:-1] + b',"f":{}}',
    "a ts before r": lambda ins, b64, dele: ins.replace(b'"r":1,', b'"ts":0,"r":1,'),
    "a ts after f": lambda ins, b64, dele: ins[:-1] + b',"ts":0}',
    "two ts": lambda ins, b64, dele: ins.replace(b'"r":1,', b'"r":1,"ts":0,"ts":0,'),
    "a ts with a space": lambda ins, b64, dele: ins.replace(b'"r":1,', b'"r":1,"ts": 0,'),
    "a ts with a leading zero": lambda ins, b64, dele: ins.replace(b'"r":1,', b'"r":1,"ts":01,'),
    "a float ts": lambda ins, b64, dele: ins.replace(b'"r":1,', b'"r":1,"ts":1.0,'),
    "a true ts": lambda ins, b64, dele: ins.replace(b'"r":1,', b'"r":1,"ts":true,'),
    "a text ts": lambda ins, b64, dele: ins.replace(b'"r":1,', b'"r":1,"ts":"0",'),
}


@pytest.mark.parametrize("case", list(_REFUSED))
def test_decoder_agrees_with_reference_on_refused_lines(case):
    raw = _one_event(_REFUSED[case](*_base_lines()))
    assert _replayed_rows(raw) == _reference_rows(raw) == (CorruptLog, 2)


@pytest.mark.parametrize("case", list(_RESPELLED))
def test_a_respelled_line_is_corrupt_log_and_left_untouched(tmp_path, case):
    # one spelling per line: json reads each as it reads a line `cmt`
    # writes, and the replay refuses it as the reference does
    ins, b64, dele = _base_lines()
    line = _RESPELLED[case](ins, b64, dele)
    # a delete follows the insert of its row
    lines = (ins, line) if case == "a delete with f" else (line,)
    raw = _one_event(*lines)
    assert _replayed_rows(raw) == _reference_rows(raw) == (CorruptLog, len(lines) + 1)
    path = tmp_path / "s.cmt"
    path.write_bytes(raw)
    with pytest.raises(CorruptLog) as caught:
        open_store(str(path), MASTER)
    assert str(caught.value) == f"corrupt event at line {len(lines) + 1} of {str(path)!r}: not a well-formed event"
    assert path.read_bytes() == raw


@pytest.mark.parametrize("ts", [b"0", b"1700000000", b"-1", b"9" * 30])
def test_an_older_versions_ts_after_r_replays_as_the_line_without_it(ts):
    ins, _, dele = _base_lines()
    stamped = [line.replace(b'"r":1', b'"r":1,"ts":' + ts) for line in (ins, dele)]
    for lines in ([ins], [ins, dele]):
        raw = _one_event(*stamped[: len(lines)])
        assert _replayed_rows(raw)[0] is not CorruptLog
        assert _replayed_rows(raw) == _reference_rows(raw) == _replayed_rows(_one_event(*lines))


@pytest.mark.parametrize(
    "before, after", [(b" ", b""), (b"\t", b"\r"), (b"", b" \t"), (b" \t\r ", b"\r \t")]
)
def test_decoder_agrees_with_reference_around_whitespace(before, after):
    # JSON whitespace around a line `cmt` writes: refused alike
    ins, _, dele = _base_lines()
    for lines in ([ins], [ins, dele]):  # a delete replays after the insert of its row
        raw = _one_event(*lines[:-1], before + lines[-1] + after)
        assert _replayed_rows(raw) == _reference_rows(raw) == (CorruptLog, len(lines) + 1)


@given(tenant=st.one_of(st.text(st.characters(min_codepoint=0x20, max_codepoint=0x7E), max_size=70),
                        st.from_regex(r"[a-z0-9_-]{0,70}", fullmatch=True)),
       delete=st.booleans())
@settings(max_examples=200, deadline=None)
def test_an_event_replays_if_and_only_if_its_tenant_is_valid(tenant, delete):
    # the event pattern reads `validate_tenant_id`'s rule: an event names
    # only a tenant a caller can name. A delete follows the insert of its
    # row under the same tenant, which is refused first.
    ins, _, dele = _base_lines()
    lines = []
    for line in (ins, dele) if delete else (ins,):
        event = json.loads(line)
        event["t"] = tenant
        lines.append(json.dumps(event, separators=(",", ":")).encode())
    raw = _one_event(*lines)
    try:
        validate_tenant_id(tenant)
    except InvalidTenantId:
        assert _replayed_rows(raw) == (CorruptLog, 2)
    else:
        assert _replayed_rows(raw)[0] is not CorruptLog
    _replays_alike(raw)


@pytest.mark.parametrize(
    "respell",
    [lambda line: line.decode("ascii").encode("utf-16-le"), lambda line: b"\xef\xbb\xbf" + line],
    ids=["utf-16-le", "utf-8_bom"],
)
def test_an_event_json_loads_would_read_from_bytes_is_corrupt(tmp_path, respell):
    # given the bytes, json.loads would detect UTF-16 and skip a BOM; the
    # replay reads only the bytes `cmt` writes
    path = tmp_path / "s.cmt"
    with create_store(str(path), SCHEMA, MASTER) as s:
        s.insert("uni_a", row("a"))
        s.insert("uni_a", row("b"))
    lines = path.read_bytes().split(b"\n")
    assert json.loads(respell(lines[2])) == json.loads(lines[2])
    lines[2] = respell(lines[2])
    path.write_bytes(b"\n".join(lines))
    with pytest.raises(CorruptLog, match="^corrupt event at line 3 of "):
        open_store(str(path), MASTER)


@functools.cache
def _two_rows_one_deleted():
    """The lines of a store whose row 1 of uni_a is live and whose row 2 of
    uni_a was deleted."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "s.cmt")
        with create_store(path, SCHEMA, MASTER) as s:
            s.insert("uni_a", row("a"))
            s.insert("uni_a", row("b"))
            s.delete("uni_a", 2)
        with open(path, "rb") as fh:
            return fh.read().split(b"\n")[:-1]


# after `_two_rows_one_deleted`: (op, tenant, row id) of an event that breaks
# a rule of the format, and the reason the replay gives
_RULE_BREAKING = {
    "delete under another tenant": (b"del", b"uni_b", 1, "no live row of its tenant"),
    "delete of a deleted row": (b"del", b"uni_a", 2, "no live row of its tenant"),
    "update under another tenant": (b"upd", b"uni_b", 1, "no live row of its tenant"),
    "update of a deleted row": (b"upd", b"uni_a", 2, "no live row of its tenant"),
    "update of a row never inserted": (b"upd", b"uni_a", 3, "no live row of its tenant"),
    "insert of the largest row id": (b"ins", b"uni_a", 2, "an insert not above every earlier row id"),
    "insert below the largest row id": (b"ins", b"uni_b", 1, "an insert not above every earlier row id"),
}


@pytest.mark.parametrize("case", list(_RULE_BREAKING))
@pytest.mark.parametrize("ts", [False, True], ids=["as_written", "respelled"])
def test_an_event_that_breaks_a_rule_is_corrupt_log_naming_its_line(tmp_path, monkeypatch, case, ts):
    # the rules hold on the findall's path and, for a line spelled with a
    # "ts", on the line-by-line path, and the reference reads them alike
    monkeypatch.setattr(tenant_store, "_replayed", {})
    lines = _two_rows_one_deleted()
    op, tenant, row_id, reason = _RULE_BREAKING[case]
    line = b'{"op":"%s","t":"%s","r":%d' % (op, tenant, row_id) + (b',"ts":0' if ts else b"")
    line += b"}" if op == b"del" else lines[1][lines[1].index(b',"f":') :]
    path = tmp_path / "s.cmt"
    path.write_bytes(b"\n".join([*lines, line, b""]))
    with pytest.raises(CorruptLog) as caught:
        open_store(str(path), MASTER)
    assert str(caught.value) == f"corrupt event at line 5 of {str(path)!r}: {reason}"
    assert _replayed_rows(path.read_bytes()) == _reference_rows(path.read_bytes()) == (CorruptLog, 5)


def test_an_insert_past_the_last_16_digit_row_id_is_refused(tmp_path, monkeypatch):
    # the event pattern takes row ids of up to 16 digits, so the insert
    # after row 9999999999999999 is refused, encrypts nothing and writes
    # nothing
    path = tmp_path / "s.cmt"
    with create_store(str(path), SCHEMA, MASTER) as s:
        s.insert("uni_a", row("a"))
    first = path.read_bytes().split(b"\n")[1]
    with open(path, "ab") as fh:
        fh.write(first.replace(b'"r":1,', b'"r":9999999999999999,') + b"\n")
    before = path.read_bytes()
    rows = [(1, "a"), (9999999999999999, "a")]
    encrypted = []
    encrypt = tenant_store.encrypt_value
    monkeypatch.setattr(tenant_store, "encrypt_value",
                        lambda *args: encrypted.append(args) or encrypt(*args))
    with open_store(str(path), MASTER) as s:
        with pytest.raises(StoreError, match=r"is full: its last row id is 9999999999999999$"):
            s.insert("uni_a", row("c"))
        assert encrypted == []
        assert [(r.row_id, r.fields["name"]) for r in s.list("uni_a")] == rows
    assert path.read_bytes() == before
    monkeypatch.setattr(tenant_store, "_replayed", {})
    with open_store(str(path), MASTER) as s:  # a full replay
        assert [(r.row_id, r.fields["name"]) for r in s.list("uni_a")] == rows


# --- the event pattern against the writer and the length rule ----------------

@pytest.mark.parametrize("fields", [1, 3, 32])
def test_every_line_a_store_writes_takes_the_event_pattern(tmp_path, monkeypatch, fields):
    # a `_commit` that drifts off the pattern would write lines no open
    # reads
    schema = TableSchema("t", [f"f{i}" for i in range(fields)])
    names = schema.field_names
    sizes = [0, 15, 16, 17, 47, 48]  # values of 48, 48, 64, 64, 80 and 96 bytes
    path = tmp_path / "s.cmt"
    written = {}
    with create_store(str(path), schema, MASTER) as s:
        for tenant in ("a", "t" * 64):
            for k in range(len(sizes) + 2):
                texts = {name: "x" * sizes[(i + k) % len(sizes)] for i, name in enumerate(names)}
                if k == len(sizes) + 1:
                    texts[names[0]] = "m" * MAX_FIELD_BYTES
                row_id = s.insert(tenant, texts)
                texts = {name: text[:-1] + "u" for name, text in texts.items()}
                if k % 2:
                    s.update(tenant, row_id, texts)
                    written[row_id] = (tenant, texts)
                else:
                    s.delete(tenant, row_id)
        assert {r: (t, s.get(t, r).fields) for r, (t, _) in written.items()} == written
    lines = path.read_bytes().split(b"\n")[1:-1]
    assert [line[7:10] for line in lines] == [b"ins", b"del", b"ins", b"upd"] * 8
    match = tenant_store._event_pattern(names).fullmatch
    assert [line for line in lines if match(line + b"\n") is None] == []
    outcome = _full_replay(path, monkeypatch)
    assert sorted(outcome[0]) == sorted(written)
    assert _replayed_rows(path.read_bytes()) == _reference_rows(path.read_bytes())


_WRITER_SCHEMAS = {
    "1_field": TableSchema("t", ("a",)),
    "32_long_names": TableSchema("t" * 64, tuple(f"{i:02d}" + "f" * 62 for i in range(32))),
}


def _every_kind_of_line(path: str, schema: TableSchema) -> None:
    """Create a store of `schema` at `path` and write through one handle
    each kind of line: inserts, updates and deletes, of empty plaintexts
    too, under tenants holding "-" and "_", and at a 16-digit row id."""
    names = schema.field_names
    with create_store(path, schema, MASTER) as s:
        for tenant in ("a-b_c", "-", "_", "t" * 64):
            row_id = s.insert(tenant, dict.fromkeys(names, ""))
            s.update(tenant, row_id, {name: "x" * i for i, name in enumerate(names)})
            s.delete(tenant, row_id)
            s.insert(tenant, dict.fromkeys(names, "é"))
        s._max_row_id = 10**16 - 2  # the next insert takes the last 16-digit row id
        row_id = s.insert("uni_a", dict.fromkeys(names, ""))
        s.update("uni_a", row_id, dict.fromkeys(names, ""))
        s.delete("uni_a", row_id)


@pytest.mark.parametrize("schema", list(_WRITER_SCHEMAS.values()), ids=list(_WRITER_SCHEMAS))
def test_every_line_a_store_writes_is_the_compact_json_of_what_json_reads_in_it(tmp_path, schema):
    # the writer formats bytes; json is the oracle of the one spelling
    path = tmp_path / "s.cmt"
    _every_kind_of_line(str(path), schema)
    raw = path.read_bytes()
    lines = raw.split(b"\n")
    assert lines.pop() == b""
    assert [line for line in lines if line != json.dumps(json.loads(line), separators=(",", ":")).encode()] == []
    header, *events = map(json.loads, lines)
    assert header == {"v": 1, "table": schema.table_name, "fields": list(schema.field_names)}
    assert [e["op"] for e in events] == ["ins", "upd", "del", "ins"] * 4 + ["ins", "upd", "del"]
    assert events[-1]["r"] == 10**16 - 1
    assert [list(e) for e in events] == [["op", "t", "r"] + ["f"] * (e["op"] != "del") for e in events]
    assert all(list(e["f"]) == list(schema.field_names) for e in events if "f" in e)
    assert _replayed_rows(raw)[0] is not CorruptLog
    assert _replayed_rows(raw) == _reference_rows(raw)


def test_a_store_written_with_seeded_ivs_has_the_bytes_json_spelled(tmp_path, monkeypatch):
    # the sha256 of each store as `json.dumps(..., separators=(",", ":"))`
    # wrote it, before the writer formatted bytes
    monkeypatch.setattr(os, "urandom", random.Random(44).randbytes)
    digests = {}
    for name, schema in _WRITER_SCHEMAS.items():
        path = tmp_path / f"{name}.cmt"
        _every_kind_of_line(str(path), schema)
        digests[name] = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digests == {
        "1_field": "fef54820d05b8ece55e6be80e70a0e601d2b152d895d5d2dc418293ae051a163",
        "32_long_names": "f04464fa44bce8618cb9a5ad00715ac7b428689f51b97042a591b01bc0dad52d",
    }


@pytest.mark.parametrize("fields", [3, 32])
def test_a_schemas_event_pattern_is_compiled_once(fields):
    names = tuple(f"f{i}" for i in range(fields))
    assert tenant_store._event_pattern(names) is tenant_store._event_pattern(names)


def _strict_value(spelling: bytes) -> bool:
    """Whether strict base64 decodes `spelling` to bytes `check_value` takes."""
    try:
        check_value(binascii.a2b_base64(spelling, strict_mode=True))
    except ValueError:  # binascii.Error is one
        return False
    return True


_ALPHABET = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"


def _spellings(n: int, rng: random.Random):
    """The base64 of n random bytes, and spellings of it that strict base64
    refuses or, for non-zero pad bits, takes."""
    good = base64.b64encode(rng.randbytes(n))
    body = good.rstrip(b"=")
    pad = good[len(body):]
    yield good
    yield body + pad[:-1]  # padding missing
    yield good + b"="  # one "=" too many
    yield good + b"=="
    for at in {0, len(body) // 2, max(len(body) - 1, 0)}:
        yield body[:at] + b"=" + body[at:] + pad  # padding inside
        yield body[:at] + b"==" + body[at:] + pad
        for bad in (b"-", b"_", b"*", b".", b" ", b"\n", b"\x00", b'"', b"\\", "é".encode()):
            yield good[:at] + bad + good[at + 1 :]  # one byte outside the alphabet
            yield good[:at] + bad + good[at:]
    if pad:  # the last character's low bit, a pad bit, set
        yield body[:-1] + bytes([_ALPHABET[_ALPHABET.index(body[-1]) | 1]]) + pad


def test_the_value_pattern_is_the_length_rule_spelled_in_base64():
    # the pattern's value spelling and `check_value`'s length rule are two
    # spellings of one rule: a line the pattern takes must hold values
    # strict base64 decodes to a length `check_value` takes, spelled as
    # `b2a_base64` spells them, and each value `Store` writes must match
    match = tenant_store._event_pattern(("f",)).fullmatch
    rng = random.Random(30)
    for n in range(401):
        assert _strict_value(base64.b64encode(bytes(n))) == (n >= 48 and n % 16 == 0)
        for spelling in _spellings(n, rng):
            matched = match(b'{"op":"ins","t":"a","r":1,"f":{"f":"%s"}}\n' % spelling) is not None
            # strict base64 takes "=" after whole quads and pad bits set,
            # which `Store` never writes and the pattern refuses
            canonical = _strict_value(spelling) and base64.b64encode(base64.b64decode(spelling)) == spelling
            assert matched == canonical, spelling
