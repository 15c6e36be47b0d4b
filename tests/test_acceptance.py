"""Acceptance suite: one test per criterion, one PASS line printed each.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines. Every tolerance is exact (bit-for-bit or zero violations) except
the throughput floor, which is >= 1 MB/s.
"""

import os
import random
import re
import subprocess
import sys

import pytest

import aes_reference
from cmt import aes_core
from cmt.crypto_codec import decrypt_value, encrypt_value
from cmt.errors import AuthError, IsolationDenied
from cmt.key_service import MASTER_KEY_ENV, MasterKey, TenantKeySet
from cmt.selftest import run_selftest
from cmt.tenant_store import TableSchema, create_store, open_store

HEX_KEY = "000102030405060708090a0b0c0d0e0f"
SCHEMA = TableSchema("student_entry", ("name", "contact", "department"))


def report(line: str) -> None:
    print(f"\n{line}")


def test_criterion_1_cipher_example_kat():
    key = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
    pt = bytes.fromhex("3243f6a8885a308d313198a2e0370734")
    ct = bytes.fromhex("3925841d02dc09fbdc118597196a0b32")
    ks = aes_core.expand_key(key)
    assert aes_core.encrypt_block(pt, ks) == ct
    assert aes_core.decrypt_block(ct, ks) == pt
    report("PASS 1: cipher-example KAT, bit-exact both directions")


def test_criterion_2_example_vectors_kat():
    key = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
    pt = bytes.fromhex("00112233445566778899aabbccddeeff")
    ct = bytes.fromhex("69c4e0d86a7b0430d8cdb78070b4c55a")
    ks = aes_core.expand_key(key)
    assert aes_core.encrypt_block(pt, ks) == ct
    assert aes_core.decrypt_block(ct, ks) == pt
    w4 = aes_core.expand_key(bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")).enc_words[4]
    assert w4.to_bytes(4, "big") == bytes.fromhex("a0fafe17")
    report("PASS 2: example-vectors KAT and key-expansion w[4]")


def test_criterion_3_structural_cipher_properties():
    assert sorted(aes_core.SBOX) == list(range(256))
    assert all(aes_core.INV_SBOX[aes_core.SBOX[i]] == i for i in range(256))
    rnd = random.Random(42)
    pairs = [
        (aes_reference.sub_bytes, aes_reference.inv_sub_bytes),
        (aes_reference.shift_rows, aes_reference.inv_shift_rows),
        (aes_reference.mix_columns, aes_reference.inv_mix_columns),
    ]
    for _ in range(10000):
        s = [rnd.randrange(256) for _ in range(16)]
        for fwd, inv in pairs:
            assert inv(fwd(s)) == s
    for _ in range(10000):
        key, block = rnd.randbytes(16), rnd.randbytes(16)
        ks = aes_core.expand_key(key)
        assert aes_core.decrypt_block(aes_core.encrypt_block(block, ks), ks) == block
    report("PASS 3: S-box permutation, transform inverses, 10k random round trips")


def test_criterion_4_codec():
    rnd = random.Random(43)
    keys = TenantKeySet(enc_key=rnd.randbytes(16), mac_key=rnd.randbytes(16))
    for n in range(1025):
        p = rnd.randbytes(n)
        cv = encrypt_value(p, keys)
        assert len(cv.to_bytes()) == 32 + 16 * ((n + 1 + 15) // 16)
        assert decrypt_value(cv, keys) == p
    target = encrypt_value(b"criterion four secret", keys)
    for _ in range(1000):
        wrong = TenantKeySet(enc_key=rnd.randbytes(16), mac_key=rnd.randbytes(16))
        with pytest.raises(AuthError):
            decrypt_value(target, wrong)
    report("PASS 4: round trip lengths 0..1024, 1000/1000 wrong keys rejected, length formula")


def test_criterion_5_isolation_property(tmp_path):
    rnd = random.Random(44)
    tenants = [f"tenant_{i}" for i in range(8)]
    shadow = {t: {} for t in tenants}
    owner = {}
    cross_denials = 0
    with create_store(str(tmp_path / "iso.cmt"), SCHEMA, MasterKey(bytes.fromhex(HEX_KEY))) as s:
        for step in range(1000):
            t = rnd.choice(tenants)
            action = rnd.choice(["insert", "get", "update", "delete", "list", "cross"])
            if action == "insert":
                fields = {"name": f"{t}:{step}", "contact": "c", "department": "d"}
                rid = s.insert(t, fields)
                owner[rid] = t
                shadow[t][rid] = fields
            elif action == "get" and shadow[t]:
                rid = rnd.choice(list(shadow[t]))
                assert s.get(t, rid).fields == shadow[t][rid]
            elif action == "update" and shadow[t]:
                rid = rnd.choice(list(shadow[t]))
                fields = {"name": f"{t}:u{step}", "contact": "c", "department": "d"}
                s.update(t, rid, fields)
                shadow[t][rid] = fields
            elif action == "delete" and shadow[t]:
                rid = rnd.choice(list(shadow[t]))
                s.delete(t, rid)
                del shadow[t][rid]
            elif action == "list":
                assert {r.row_id: r.fields for r in s.list(t)} == shadow[t]
            elif action == "cross":
                victims = [r for r, o in owner.items() if o != t and r in shadow[o]]
                if victims:
                    with pytest.raises(IsolationDenied):
                        s.get(t, rnd.choice(victims))
                    cross_denials += 1
    assert cross_denials > 0
    # the same violation surfaces as exit code 5 at the CLI
    path = str(tmp_path / "cli_iso.cmt")
    env = {**os.environ, MASTER_KEY_ENV: HEX_KEY}
    def cmt(*args):
        return subprocess.run([sys.executable, "-m", "cmt.cli", *args],
                              capture_output=True, text=True, env=env)
    assert cmt("--store", path, "init", "--table", "student_entry",
               "--fields", "name,contact,department").returncode == 0
    assert cmt("--store", path, "--tenant", "uni_a", "insert", "--set", "name=x",
               "--set", "contact=y", "--set", "department=z").returncode == 0
    denied = cmt("--store", path, "--tenant", "uni_b", "get", "--row", "1")
    assert denied.returncode == 5 and denied.stdout == ""
    report(f"PASS 5: 1000 interleaved ops over 8 tenants, {cross_denials} cross-tenant "
           "accesses all denied, CLI exit 5")


def test_criterion_6_ciphertext_at_rest(tmp_path):
    rnd = random.Random(45)
    path = str(tmp_path / "rest.cmt")
    sentinels = [rnd.randbytes(6).hex() for _ in range(100)]  # 12-char strings
    with create_store(path, SCHEMA, MasterKey(bytes.fromhex(HEX_KEY))) as s:
        for sv in sentinels:
            s.insert("uni_a", {"name": sv, "contact": sv, "department": sv})
    with open(path, "rb") as fh:
        raw = fh.read()
    leaks = sum(1 for sv in sentinels if sv.encode() in raw)
    assert leaks == 0
    report("PASS 6: 0/100 sentinel plaintexts found in the store file")


def test_criterion_7_student_entry_flow(tmp_path):
    path = str(tmp_path / "studententry.cmt")
    env = {**os.environ, MASTER_KEY_ENV: HEX_KEY}

    def cmt(*args):
        # each call is a fresh process, so insert -> get crosses a restart
        return subprocess.run([sys.executable, "-m", "cmt.cli", *args],
                              capture_output=True, text=True, env=env)

    assert cmt("--store", path, "init", "--table", "student_entry",
               "--fields", "name,contact,department").returncode == 0
    ins = cmt("--store", path, "--tenant", "uni_a", "insert",
              "--set", "name=Asha", "--set", "contact=98765", "--set", "department=cs")
    assert ins.returncode == 0 and ins.stdout.strip() == "1"
    for _ in range(2):  # twice: the second read is after yet another restart
        got = cmt("--store", path, "--tenant", "uni_a", "get", "--row", "1")
        assert got.returncode == 0
        assert got.stdout == "row=1\nname=Asha\ncontact=98765\ndepartment=cs\n"
    report("PASS 7: init/insert/get Student Entry flow survives process restarts")


def test_criterion_8_torn_write_recovery(tmp_path):
    path = str(tmp_path / "torn.cmt")
    master = MasterKey(bytes.fromhex(HEX_KEY))
    with create_store(path, SCHEMA, master) as s:
        s.insert("uni_a", {"name": "durable", "contact": "c", "department": "d"})
        before = [(r.row_id, r.fields) for r in s.list("uni_a")]
        s.insert("uni_a", {"name": "torn", "contact": "c", "department": "d"})
    with open(path, "r+b") as fh:
        data = fh.read()
        last_start = data.rstrip(b"\n").rfind(b"\n") + 1
        fh.truncate(last_start + (len(data) - last_start) // 2)
    with open_store(path, master) as s:
        assert [(r.row_id, r.fields) for r in s.list("uni_a")] == before
    report("PASS 8: store truncated mid-final-line reopens to the pre-write state")


def test_criterion_9_performance_smoke(capsys):
    lines = []
    assert run_selftest(report=lines.append)
    throughput = next(l for l in lines if "throughput" in l)
    mbps = float(re.search(r"([\d.]+) MB/s", throughput).group(1))
    assert mbps >= 1.0
    report(f"PASS 9: selftest green, block encryption at {mbps:.1f} MB/s (floor 1 MB/s)")
