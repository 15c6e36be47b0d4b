"""Master key loading and per-tenant derivation tests.

The derivation oracle reimplements the whole construction on top of the
`cryptography` library so both the CBC-MAC and the constant-block
expansion get an independent check.
"""

import contextlib
import copy
import os
import pickle
import threading

import pytest
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

from aes_reference import key_of
from cmt.errors import InvalidTenantId, MalformedKey, MissingKey
from cmt.key_service import (
    MASTER_KEY_ENV,
    MasterKey,
    TenantKeySet,
    derive_tenant_keys,
    load_master_key,
    validate_tenant_id,
)

HEX_KEY = "000102030405060708090a0b0c0d0e0f"


def derive_oracle(master: bytes, tenant_id: str):
    """Same construction, built entirely from library primitives."""
    def ecb(key, block):
        enc = Cipher(algorithms.AES(key), modes.ECB()).encryptor()
        return enc.update(block) + enc.finalize()

    data = tenant_id.encode("utf-8")
    n = 16 - len(data) % 16
    data += bytes([n]) * n
    tag = bytes(16)
    for i in range(0, len(data), 16):
        tag = ecb(master, bytes(a ^ b for a, b in zip(data[i : i + 16], tag)))
    return ecb(tag, b"\x01" * 16), ecb(tag, b"\x02" * 16)


@contextlib.contextmanager
def a_fifo_held_open(path: str, text: str):
    """A FIFO at `path` whose writer sends `text` and then holds the pipe
    open until the block ends, as a slow or hostile key source would."""
    os.mkfifo(path)
    release = threading.Event()

    def writer():
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
            fh.flush()
            release.wait(60)

    thread = threading.Thread(target=writer, daemon=True)
    thread.start()
    try:
        yield
    finally:
        release.set()
        fd = os.open(path, os.O_RDONLY | os.O_NONBLOCK)  # frees a writer no reader opened
        thread.join(60)
        os.close(fd)


# --- loading -------------------------------------------------------------

def test_load_from_env(monkeypatch):
    monkeypatch.setenv(MASTER_KEY_ENV, HEX_KEY)
    assert load_master_key().key == bytes(range(16))


def test_load_from_file_takes_precedence(tmp_path, monkeypatch):
    monkeypatch.setenv(MASTER_KEY_ENV, "ff" * 16)
    path = tmp_path / "master.key"
    path.write_text(HEX_KEY + "\n")  # trailing newline tolerated
    assert load_master_key(key_file=str(path)).key == bytes(range(16))


def test_load_malformed(monkeypatch):
    monkeypatch.setenv(MASTER_KEY_ENV, "xyz")
    with pytest.raises(MalformedKey):
        load_master_key()


def test_load_missing(monkeypatch, tmp_path):
    monkeypatch.delenv(MASTER_KEY_ENV, raising=False)
    with pytest.raises(MissingKey):
        load_master_key()
    with pytest.raises(MissingKey):
        load_master_key(key_file=str(tmp_path / "absent"))


def test_a_key_file_longer_than_1024_characters_is_refused(tmp_path):
    path = tmp_path / "master.key"
    path.write_text(HEX_KEY + " " * (1024 - 32))
    assert load_master_key(key_file=str(path)).key == bytes(range(16))
    path.write_text(HEX_KEY + " " * (1025 - 32))
    with pytest.raises(MalformedKey) as refused:
        load_master_key(key_file=str(path))
    assert refused.value.exit_code == 3


def test_a_key_fifo_whose_writer_holds_it_open_is_refused(tmp_path):
    # a read to EOF would block for as long as the writer holds the pipe.
    # A device such as /dev/zero stays untested: on a regression its read
    # would fill memory
    path = str(tmp_path / "master.key")
    refused = []

    def loader():
        try:
            load_master_key(key_file=path)
        except MalformedKey as exc:
            refused.append(exc)

    with a_fifo_held_open(path, HEX_KEY + "\n" * 10_000):
        thread = threading.Thread(target=loader, daemon=True)
        thread.start()
        thread.join(30)
        assert not thread.is_alive(), "load_master_key blocked on a FIFO"
    [exc] = refused
    assert str(exc) == "master key must be 32 hex characters" and exc.exit_code == 3


def test_master_key_length_enforced():
    with pytest.raises(MalformedKey):
        MasterKey(b"too short")


# --- tenant id validation ------------------------------------------------

@pytest.mark.parametrize("tenant", ["a", "uni_a", "x" * 64, "t-1_b2"])
def test_valid_tenant_ids(tenant):
    validate_tenant_id(tenant)  # raises InvalidTenantId for a bad one


@pytest.mark.parametrize("tenant", ["", "UPPER", "x" * 65, "sp ace", "dot.", "ünï", "uni_a\n", "\nuni_a"])
def test_invalid_tenant_ids(tenant):
    # the message names the rule
    with pytest.raises(InvalidTenantId) as refused:
        validate_tenant_id(tenant)
    assert str(refused.value) == f"tenant id must match [a-z0-9_-]{{1,64}}, got {tenant!r}"


# --- derivation ----------------------------------------------------------

def test_derivation_matches_oracle():
    master = MasterKey(bytes.fromhex(HEX_KEY))
    for tenant in ("alpha", "beta", "uni_a", "a" * 64):
        keys = derive_tenant_keys(master, tenant)
        enc, mac = derive_oracle(master.key, tenant)
        assert key_of(keys.enc_schedule) == enc
        assert key_of(keys.mac_schedule) == mac


def fields(record) -> tuple:
    """What a key record holds: a master's key bytes and schedule, a key
    set's two schedules (round key 0 of each is its key). Records compare
    by identity, so tests compare these."""
    if isinstance(record, MasterKey):
        return record.key, record.schedule
    return record.enc_schedule, record.mac_schedule


def test_derivation_deterministic():
    master = MasterKey(os.urandom(16))
    first = derive_tenant_keys(master, "alpha")
    for _ in range(50):
        again = derive_tenant_keys(master, "alpha")
        assert fields(again) == fields(first)


def test_keys_survive_copy_and_pickle():
    master = MasterKey(os.urandom(16))
    keys = derive_tenant_keys(master, "alpha")
    for record in (master, keys):
        for twin in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
            assert type(twin) is type(record) and twin is not record
            assert fields(twin) == fields(record)
    again = TenantKeySet(key_of(keys.enc_schedule), key_of(keys.mac_schedule))
    assert fields(keys) == fields(again)


def test_copy_and_pickle_of_a_master_start_with_an_empty_memo():
    master = MasterKey(os.urandom(16))
    tenants = {t: derive_tenant_keys(master, t) for t in ("alpha", "beta")}
    master.derived.update(tenants)  # as a store fills it
    for twin in (copy.copy(master), copy.deepcopy(master), pickle.loads(pickle.dumps(master))):
        assert fields(twin) == fields(master) and twin is not master
        assert twin.derived == {}
    assert master.derived == tenants  # the original keeps its own
    data = pickle.dumps(master)
    for keys in tenants.values():
        assert key_of(keys.enc_schedule) not in data and key_of(keys.mac_schedule) not in data


def test_neither_key_record_offers_a_tuple_view():
    # a tuple view (keys[:2], tuple(master), master._asdict()) would print
    # the raw key bytes past the redacted repr
    master = MasterKey(bytes(range(16)))
    keys = derive_tenant_keys(master, "alpha")
    for record in (master, keys):
        assert not isinstance(record, tuple)
        assert not hasattr(record, "_replace") and not hasattr(record, "_asdict")
        with pytest.raises(TypeError):
            record[0]
        with pytest.raises(TypeError):
            tuple(record)
        assert "redacted" in repr(record)


def test_distinct_tenants_distinct_keys():
    master = MasterKey(bytes.fromhex(HEX_KEY))
    a = derive_tenant_keys(master, "alpha")
    b = derive_tenant_keys(master, "beta")
    assert key_of(a.enc_schedule) != key_of(b.enc_schedule)
    assert key_of(a.mac_schedule) != key_of(b.mac_schedule)


def test_enc_and_mac_keys_differ():
    master = MasterKey(os.urandom(16))
    for tenant in ("alpha", "beta", "gamma"):
        keys = derive_tenant_keys(master, tenant)
        assert key_of(keys.enc_schedule) != key_of(keys.mac_schedule)


def test_no_collisions_across_many_tenants():
    master = MasterKey(os.urandom(16))
    seen = set()
    for i in range(1000):
        seen.add(key_of(derive_tenant_keys(master, f"tenant_{i}").enc_schedule))
    assert len(seen) == 1000


def test_master_key_bit_flips_change_derivation():
    base = bytearray(os.urandom(16))
    reference = key_of(derive_tenant_keys(MasterKey(bytes(base)), "alpha").enc_schedule)
    rnd = os.urandom(100)
    for r in rnd:
        bit = r % 128
        flipped = bytearray(base)
        flipped[bit // 8] ^= 1 << (bit % 8)
        flipped_keys = derive_tenant_keys(MasterKey(bytes(flipped)), "alpha")
        assert key_of(flipped_keys.enc_schedule) != reference


def test_repr_shows_no_key_material():
    master = MasterKey(bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c"))
    keys = derive_tenant_keys(master, "alpha")
    master.derived["alpha"] = keys  # a master whose memo holds a tenant
    enc_key, mac_key = key_of(keys.enc_schedule), key_of(keys.mac_schedule)
    secrets = [
        (master, [master.key, enc_key, mac_key],
         [master.schedule, keys.enc_schedule, keys.mac_schedule]),
        (master.schedule, [master.key], [master.schedule]),
        (keys, [enc_key, mac_key], [keys.enc_schedule, keys.mac_schedule]),
        (keys.enc_schedule, [enc_key], [keys.enc_schedule]),
        (keys.mac_schedule, [mac_key], [keys.mac_schedule]),
    ]
    for record, key_bytes, schedules in secrets:
        # every key-derived value of every field: 32-bit expansion words and
        # 128-bit round keys of both directions
        values = set()
        for schedule in schedules:
            for field in schedule:
                assert field and all(type(v) is int for v in field)
                values.update(field)
        for text in (repr(record), str(record), f"{record}", f"{record!r}", repr([record])):
            assert "redacted" in text
            for key in key_bytes:
                assert repr(key)[2:-1] not in text and key.hex() not in text
            for v in values:
                raw = v.to_bytes(4 if v < 2**32 else 16, "big")
                assert str(v) not in text and f"{v:x}" not in text
                assert raw.hex() not in text and repr(raw)[2:-1] not in text
