"""Record store tests: CRUD, isolation, replay, crash recovery, at-rest scan."""

import errno
import functools
import json
import os
import random
import stat
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cmt.errors import (
    AlreadyExists,
    AuthError,
    CmtError,
    CorruptHeader,
    CorruptLog,
    InvalidSchema,
    IsolationDenied,
    MissingKey,
    NotFound,
    SchemaMismatch,
    StoreError,
    StoreLocked,
    VersionMismatch,
)
from cmt import aes_core, crypto_codec, tenant_store
from cmt.key_service import MasterKey
from cmt.tenant_store import TableSchema, create_store, open_store

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


def test_open_bad_header(tmp_path):
    path = str(tmp_path / "s.cmt")
    with open(path, "w") as fh:
        fh.write("not json\n")
    with pytest.raises(CorruptHeader):
        open_store(path, MASTER)


def test_open_version_mismatch(tmp_path):
    path = str(tmp_path / "s.cmt")
    with open(path, "w") as fh:
        fh.write('{"v":99,"table":"t","fields":["a"]}\n')
    with pytest.raises(VersionMismatch):
        open_store(path, MASTER)


def test_advisory_lock_blocks_second_handle(tmp_path):
    path = str(tmp_path / "s.cmt")
    with create_store(path, SCHEMA, MASTER):
        with pytest.raises(StoreLocked):
            open_store(path, MASTER)
    # released on close
    open_store(path, MASTER).close()


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
    monkeypatch.setattr(crypto_codec, "_use_lanes", lambda blocks: True)
    encrypt_lanes = aes_core.encrypt_lanes
    steps = []
    monkeypatch.setattr(aes_core, "encrypt_lanes", lambda *a: steps.append(1) or encrypt_lanes(*a))
    rng = random.Random(7)

    def text():
        return "".join(rng.choice("aé€😀 z") for _ in range(rng.randint(0, 90)))

    own = []
    for _ in range(12):
        own.append(store.insert("uni_a", row(text(), text(), text())))
        store.insert("uni_b", row(text(), text(), text()))
    listed = store.list("uni_a")
    assert [r.row_id for r in listed] == own
    assert listed == [store.get("uni_a", rid) for rid in own]
    assert steps  # the 36 MAC chains stepped in lockstep


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


def test_failed_rollback_refuses_every_later_mutation(tmp_path, monkeypatch):
    path = str(tmp_path / "s.cmt")
    with create_store(path, SCHEMA, MASTER) as s:
        rid = s.insert("uni_a", row("kept"))
        fsync = os.fsync
        failures = [OSError(errno.ENOSPC, "No space left on device")]

        def failing_fsync(fd):
            if failures:
                raise failures.pop()
            fsync(fd)

        monkeypatch.setattr(os, "fsync", failing_fsync)
        s._fh = _FailingTruncate(s._fh)
        with pytest.raises(OSError) as failed:
            s.insert("uni_a", row("lost"))
        assert failed.value.errno == errno.ENOSPC
        size = os.path.getsize(path)
        for mutate in (
            lambda: s.insert("uni_a", row("next")),
            lambda: s.update("uni_a", rid, row("changed")),
            lambda: s.delete("uni_a", rid),
        ):
            with pytest.raises(StoreError, match="reopen the store") as refused:
                mutate()
            assert refused.value.exit_code == 3
        # nothing was appended after the failed event; reads still answer
        assert os.path.getsize(path) == size
        assert s.get("uni_a", rid).fields["name"] == "kept"


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
        assert s.insert("uni_a", row()) == 2


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
    assert ins["op"] == "ins" and ins["t"] == "uni_a" and ins["r"] == 1
    assert set(ins["f"]) == {"name", "contact", "department"}
    dele = json.loads(lines[2])
    assert dele["op"] == "del" and "f" not in dele


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
        pos = edit[1] % len(line)
        lines[i] = line[:pos] + bytes([edit[2]]) + line[pos + 1 :]
    elif edit[0] == "cut":
        lines[i] = line[: edit[1] % (len(line) + 1)]
    elif edit[0] == "splice":
        other = lines[edit[2] % len(lines)]
        lines[i] = line[: edit[1] % (len(line) + 1)] + other[edit[3] % (len(other) + 1) :]
    elif edit[0] == "drop":
        del lines[i]
    elif edit[0] == "key":
        # one key of a parseable event removed or given a value of another type
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
        lines[i] = json.dumps(event).encode()
    else:
        lines.insert(edit[1] % (len(lines) + 1), line)


@given(edits=st.lists(_LINE_EDITS, min_size=1, max_size=4), torn=st.booleans(), lanes=st.booleans())
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
    path.write_bytes(b"\n".join([header] + lines) + (b"" if torn else b"\n"))
    monkeypatch.setattr(crypto_codec, "_use_lanes", lambda blocks: lanes)
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
