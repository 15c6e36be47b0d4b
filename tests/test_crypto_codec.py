"""Codec tests: padding, CBC against a library reference, round trips,
tamper detection, and the serialized-length formula."""

import base64
import json
import os
import random
import subprocess
import sys

import pytest
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from aes_reference import key_of
from cmt import aes_core
from cmt.aes_core import KERNEL_MIN_LANES, PACKED_MIN_LANES
from cmt.crypto_codec import (
    check_value,
    decrypt_value,
    decrypt_values,
    encrypt_value,
    pad,
)
from cmt.errors import AuthError, CorruptLog, FieldTooLarge
from cmt.key_service import TenantKeySet
from cmt.tenant_store import TableSchema, create_store, open_store


def random_keys() -> TenantKeySet:
    return TenantKeySet(enc_key=os.urandom(16), mac_key=os.urandom(16))


def spy(monkeypatch, module, name):
    """Count the calls to module.name; returns the list of calls."""
    calls = []
    fn = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *a: calls.append(a) or fn(*a))
    return calls


# --- padding -------------------------------------------------------------

def test_pad_five_bytes():
    assert pad(b"hello") == b"hello" + b"\x0b" * 11


def test_pad_empty():
    assert pad(b"") == b"\x10" * 16


def test_pad_block_aligned_adds_full_block():
    assert pad(b"x" * 16) == b"x" * 16 + b"\x10" * 16


def padded_value(padded: bytes, keys: TenantKeySet) -> bytes:
    """A value whose ciphertext is the CBC encryption of `padded` as it
    stands, so its tag verifies whatever padding it holds."""
    iv = os.urandom(16)
    message = iv + aes_core.encrypt_cbc(padded, keys.enc_schedule, iv)
    return message + aes_core.cbc_macs([message], keys.mac_schedule)[0]


@pytest.mark.parametrize("lanes", [False, True])
def test_decrypt_values_rejects_inconsistent_padding(lanes, monkeypatch):
    monkeypatch.setattr(aes_core, "use_lanes", lambda *_: lanes)
    keys = random_keys()
    for last in (b"\x03\x02\x03", b"\x00", b"\x11", b"\xff", b"\x0f" + b"\x10" * 15):
        value = padded_value(bytes(16 * 2 - len(last)) + last, keys)
        with pytest.raises(AuthError, match="padding"):
            decrypt_values([value] * KERNEL_MIN_LANES, keys)


def test_decrypt_values_rejects_bad_lengths():
    with pytest.raises(ValueError):
        decrypt_values([b""], random_keys())
    with pytest.raises(ValueError):
        decrypt_values([b"123"], random_keys())


@given(st.binary(min_size=0, max_size=200))
def test_pad_decrypt_values_round_trip(data):
    padded = pad(data)
    assert len(padded) % 16 == 0
    assert decrypt_values([padded_value(padded, BATCH_KEYS)], BATCH_KEYS) == [data]


# --- CBC against library reference ----------------------------------------

def library_value(plaintext: bytes, enc_key: bytes, keys: TenantKeySet) -> bytes:
    """A value whose CBC ciphertext the library made, tagged by the codec."""
    iv = os.urandom(16)
    enc = Cipher(algorithms.AES(enc_key), modes.CBC(iv)).encryptor()
    ct = enc.update(pad(plaintext)) + enc.finalize()
    return iv + ct + aes_core.cbc_macs([iv + ct], keys.mac_schedule)[0]


def test_cbc_matches_library():
    for blocks in (1, 2, 9, 257):
        key, iv = os.urandom(16), os.urandom(16)
        data = os.urandom(16 * blocks)
        ks = aes_core.expand_key(key)
        enc = Cipher(algorithms.AES(key), modes.CBC(iv)).encryptor()
        expected = enc.update(data) + enc.finalize()
        assert aes_core.encrypt_cbc(data, ks, iv) == expected
        # the chain's decryption of every block on its own, against ECB
        dec = Cipher(algorithms.AES(key), modes.ECB()).decryptor()
        assert aes_core.decrypt_blocks(expected, ks) == dec.update(expected) + dec.finalize()
        keys = TenantKeySet(enc_key=key, mac_key=os.urandom(16))
        assert decrypt_value(library_value(data, key, keys), keys) == data
    for misaligned in (os.urandom(15), os.urandom(17), os.urandom(16 * 9 - 1)):
        with pytest.raises(ValueError):
            aes_core.encrypt_cbc(misaligned, ks, iv)
        with pytest.raises(ValueError):
            aes_core.decrypt_blocks(misaligned, ks)


@pytest.mark.parametrize(
    "blocks",
    [1, PACKED_MIN_LANES - 1, PACKED_MIN_LANES, KERNEL_MIN_LANES - 1, KERNEL_MIN_LANES, 257],
)
def test_cbc_decrypt_matches_library_on_every_path(blocks, monkeypatch):
    # with the kernel loaded, below PACKED_MIN_LANES blocks the per-block
    # chain runs, from it the packed rounds, from KERNEL_MIN_LANES the kernel
    aes_core._lanes()
    rounds = spy(monkeypatch, aes_core, "_lane_rounds")
    packed = spy(monkeypatch, aes_core, "_packed_rounds")
    key = os.urandom(16)
    keys = TenantKeySet(enc_key=key, mac_key=os.urandom(16))
    data = os.urandom(16 * blocks - 1)
    assert decrypt_value(library_value(data, key, keys), keys) == data
    kernel_calls = [a for a in rounds if a[2]]  # the kernel's decryptions run backward
    packed_calls = [a for a in packed if a[3]]  # and so do the packed rounds'
    assert len(kernel_calls) == (blocks >= KERNEL_MIN_LANES)
    assert len(packed_calls) == (PACKED_MIN_LANES <= blocks < KERNEL_MIN_LANES)


def test_codec_uses_the_cached_key_schedules(monkeypatch):
    keys = random_keys()
    calls = []
    expand_key = aes_core.expand_key
    monkeypatch.setattr(aes_core, "expand_key", lambda key: calls.append(key) or expand_key(key))
    for n in (0, 20, 16 * KERNEL_MIN_LANES, 2500):
        p = os.urandom(n)
        assert decrypt_value(encrypt_value(p, keys), keys) == p
    assert calls == []


def library_cbc_mac(key: bytes, message: bytes) -> bytes:
    """The last block of the library's AES-CBC of `message` under a zero IV."""
    enc = Cipher(algorithms.AES(key), modes.CBC(bytes(16))).encryptor()
    return (enc.update(message) + enc.finalize())[-16:]


def test_cbc_mac_is_last_cbc_block():
    # a value's tag is the library's CBC-MAC of IV || ct under the MAC key
    keys = random_keys()
    for n in (0, 20, 160):
        value = encrypt_value(os.urandom(n), keys)
        assert value[-16:] == library_cbc_mac(key_of(keys.mac_schedule), value[:-16])


# --- value layout ------------------------------------------------------------

@pytest.mark.parametrize(
    "b64",
    [
        base64.b64encode(bytes(47)).decode(),
        base64.b64encode(bytes(49)).decode(),
        base64.b64encode(bytes(32)).decode(),  # an IV and a tag around no ciphertext
        "not base64!",
    ],
    ids=["47 bytes", "49 bytes", "empty ciphertext", "undecodable"],
)
def test_value_length_rule(tmp_path, b64):
    # the codec refuses the value, in check_value and in decrypt_values
    # (binascii.Error, which b64decode raises, is a ValueError)
    with pytest.raises(ValueError):
        check_value(base64.b64decode(b64, validate=True))
    with pytest.raises(ValueError):
        decrypt_values([base64.b64decode(b64, validate=True)], random_keys())
    # and a store whose log holds it does not open
    path = str(tmp_path / "s.cmt")
    create_store(path, TableSchema("t", ("name",))).close()
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps({"op": "ins", "t": "x", "r": 1, "ts": 1, "f": {"name": b64}}) + "\n")
    with pytest.raises(CorruptLog, match="line 2 "):
        open_store(path)


# --- encrypt/decrypt -------------------------------------------------------

def test_round_trip_identity():
    keys = random_keys()
    for n in (0, 1, 15, 16, 17, 31, 32, 1024):
        p = os.urandom(n)
        assert decrypt_value(encrypt_value(p, keys), keys) == p


@given(st.binary(min_size=0, max_size=2000))
@settings(max_examples=50, deadline=None)
def test_round_trip_property(data):
    keys = TenantKeySet(enc_key=b"\x0a" * 16, mac_key=b"\x0b" * 16)
    assert decrypt_value(encrypt_value(data, keys), keys) == data


# --- batches ---------------------------------------------------------------

BATCH_KEYS = TenantKeySet(enc_key=b"\x0c" * 16, mac_key=b"\x0d" * 16)


def verify(values, lanes):
    """The index of the first of the whole values whose tag under
    BATCH_KEYS is not its own, tagged as `decrypt_values` tags them, or
    None if every tag verifies."""
    tags = aes_core.cbc_macs([v[:-16] for v in values], BATCH_KEYS.mac_schedule, lanes)
    return next((i for i, (tag, v) in enumerate(zip(tags, values)) if tag != v[-16:]), None)


@pytest.mark.parametrize("lanes", [False, True])
@given(st.lists(st.binary(max_size=300), max_size=40))
@settings(max_examples=25, deadline=None)
def test_decrypt_values_equals_one_by_one(lanes, plaintexts):
    values = [encrypt_value(p, BATCH_KEYS) for p in plaintexts]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(aes_core, "use_lanes", lambda *_: lanes)
        batch = decrypt_values(values, BATCH_KEYS)
    assert batch == [decrypt_value(v, BATCH_KEYS) for v in values] == plaintexts


@pytest.mark.parametrize("lanes", [False, True])
@pytest.mark.parametrize(
    "count",
    [PACKED_MIN_LANES - 1, PACKED_MIN_LANES, KERNEL_MIN_LANES - 1, KERNEL_MIN_LANES, KERNEL_MIN_LANES + 1],
)
def test_mac_chains_step_in_lockstep_by_width(count, lanes, monkeypatch):
    # lengths 0..299 B: the lanes drop out at different steps, pass from the
    # kernel to the packed rounds, and the longest chains finish on the
    # scalar chain
    plaintexts = [os.urandom((37 * i) % 300) for i in range(1, count + 1)]
    values = [encrypt_value(p, BATCH_KEYS) for p in plaintexts]
    monkeypatch.setattr(aes_core, "use_lanes", lambda *_: lanes)
    rounds = spy(monkeypatch, aes_core, "_lane_rounds")
    packed = spy(monkeypatch, aes_core, "_packed_rounds")
    assert decrypt_values(values, BATCH_KEYS) == plaintexts
    steps = [a for a in rounds if not a[2]]  # MAC steps encrypt; the decryption does not
    assert bool(steps) == (lanes and count >= KERNEL_MIN_LANES)
    assert bool([a for a in packed if not a[3]]) == (count >= PACKED_MIN_LANES)


@pytest.mark.parametrize("lanes", [False, True])
@pytest.mark.parametrize("forged", ["first", "middle", "last"])
@pytest.mark.parametrize("count", [2, 12, KERNEL_MIN_LANES - 1, KERNEL_MIN_LANES + 2])
def test_one_forged_tag_refuses_the_batch_before_any_decryption(count, forged, lanes, monkeypatch):
    # narrow batches, whose MAC chains step and whose blocks decrypt on the
    # packed rounds, and wide ones, on the kernel when `lanes` is set
    values = [encrypt_value(os.urandom(20 * i), BATCH_KEYS) for i in range(count)]
    at = {"first": 0, "middle": count // 2, "last": count - 1}[forged]
    genuine = values[at]
    forgery = bytearray(genuine)
    forgery[-1] ^= 0x80  # the tag's last byte
    values[at] = bytes(forgery)
    monkeypatch.setattr(aes_core, "use_lanes", lambda *_: lanes)
    # what each engine decrypts with: the scalar chain, the lane kernel and
    # the packed rounds (whose MAC steps encrypt and whose decryption runs
    # backward)
    chain = spy(monkeypatch, aes_core, "decrypt_blocks")
    rounds = spy(monkeypatch, aes_core, "_lane_rounds")
    packed = spy(monkeypatch, aes_core, "_packed_rounds")
    with pytest.raises(AuthError):
        decrypt_values(values, BATCH_KEYS)
    assert chain == [a for a in rounds if a[2]] == [a for a in packed if a[3]] == []
    assert verify(values, lanes) == at
    # the spies see the decryption of the same batch once every tag verifies,
    # on the one engine its block count calls for
    values[at] = genuine
    assert verify(values, lanes) is None
    decrypt_values(values, BATCH_KEYS)
    blocks = sum(len(v) // 16 - 2 for v in values)
    kernel = lanes and blocks >= KERNEL_MIN_LANES
    assert blocks >= PACKED_MIN_LANES
    calls = (len(chain), len([a for a in rounds if a[2]]), len([a for a in packed if a[3]]))
    assert calls == ((0, 1, 0) if kernel else (0, 0, 1))


@pytest.mark.parametrize("lanes", [False, True])
def test_a_verified_value_with_bad_padding_is_auth_error(lanes, monkeypatch):
    # a CBC-MAC length extension of a one-block value: the chain restarts at
    # IV ^ tag, so the tag verifies, and the last block decrypts to the
    # padded plaintext XOR the tag, whose padding is invalid for these keys
    with monkeypatch.context() as mp:
        mp.setattr(os, "urandom", bytes)  # an all-zero IV
        value = encrypt_value(b"x", BATCH_KEYS)
    iv, ct, tag = value[:16], value[16:-16], value[-16:]
    forged = iv + ct + bytes(a ^ b for a, b in zip(iv, tag)) + ct + tag
    assert aes_core.cbc_macs([forged[:-16]], BATCH_KEYS.mac_schedule)[0] == tag
    monkeypatch.setattr(aes_core, "use_lanes", lambda *_: lanes)
    with pytest.raises(AuthError, match="padding"):
        decrypt_values([padded_value(bytes(a ^ b for a, b in zip(pad(b"x"), tag)), BATCH_KEYS)],
                       BATCH_KEYS)
    with pytest.raises(AuthError, match="padding"):
        decrypt_values([forged] * KERNEL_MIN_LANES, BATCH_KEYS)


def length_extension(value: bytes) -> bytes:
    """The CBC-MAC length extension of a value: its message, then IV ^ tag
    and its ciphertext again, under its own tag, which verifies."""
    iv, ct, tag = value[:16], value[16:-16], value[-16:]
    return iv + ct + bytes(a ^ b for a, b in zip(iv, tag)) + ct + tag


def pkcs7_valid(padded: bytes) -> bool:
    n = padded[-1]
    return 1 <= n <= 16 and padded[-n:] == bytes([n]) * n


@given(
    st.lists(st.binary(max_size=300), min_size=10, max_size=400, unique=True),
    st.binary(max_size=15),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=20, deadline=None)
def test_both_engines_agree_on_a_batch_and_refuse_a_forgery_in_it(plaintexts, short, seed):
    # 10-400 values, so the lanes step the MACs and the kernel decrypts. The
    # length extension of a one-block value verifies, and its last block
    # decrypts to the padded plaintext XOR the tag, IV ^ tag coming before it
    rng = random.Random(seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(os, "urandom", rng.randbytes)  # seeded IVs
        values = [encrypt_value(p, BATCH_KEYS) for p in plaintexts]
        forgery = length_extension(encrypt_value(short, BATCH_KEYS))
    assume(not pkcs7_valid(aes_core.decrypt_cbc([forgery[-48:-16]], BATCH_KEYS.enc_schedule)[0]))
    at = rng.randrange(len(values) + 1)
    forged = values[:at] + [forgery] + values[at:]
    for lanes in (True, False):
        assert verify(forged, lanes) is None
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(aes_core, "use_lanes", lambda *_: lanes)
            assert decrypt_values(values, BATCH_KEYS) == plaintexts
            with pytest.raises(AuthError, match="padding"):
                decrypt_values(forged, BATCH_KEYS)


def test_numpy_is_loaded_once_the_chain_has_paid_for_it():
    # a fresh process: the kernel's work runs on the chain until that work
    # reaches IMPORT_BLOCKS blocks, and the next call loads numpy
    script = (
        "import sys\n"
        "from cmt.aes_core import IMPORT_BLOCKS\n"
        "from cmt.crypto_codec import decrypt_value, encrypt_value\n"
        "from cmt.key_service import TenantKeySet\n"
        "keys = TenantKeySet(enc_key=bytes(16), mac_key=bytes(16))\n"
        "cv = encrypt_value(bytes(1024), keys)\n"
        "calls = 0\n"
        "while 'numpy' not in sys.modules:\n"
        "    assert decrypt_value(cv, keys) == bytes(1024)\n"
        "    calls += 1\n"
        "print(calls, IMPORT_BLOCKS)\n"
    )
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    calls, import_blocks = map(int, result.stdout.split())
    # 1,024 B pad to 65 blocks: each call before the import ran 65 on the chain
    assert calls == -(-import_blocks // 65) + 1


def test_narrow_batches_never_load_numpy():
    # a fresh process: 400 B pad to 26 blocks, a decryption below
    # KERNEL_MIN_LANES that runs on the packed rounds and is no kernel work,
    # so twice IMPORT_BLOCKS blocks of it neither count nor buy numpy
    script = (
        "import sys\n"
        "from cmt import aes_core\n"
        "from cmt.aes_core import IMPORT_BLOCKS, KERNEL_MIN_LANES\n"
        "from cmt.crypto_codec import decrypt_value, encrypt_value\n"
        "from cmt.key_service import TenantKeySet\n"
        "keys = TenantKeySet(enc_key=bytes(16), mac_key=bytes(16))\n"
        "cv = encrypt_value(bytes(400), keys)\n"
        "assert len(cv) // 16 - 2 == 26 < KERNEL_MIN_LANES\n"
        "for _ in range(2 * IMPORT_BLOCKS // 26):\n"
        "    assert decrypt_value(cv, keys) == bytes(400)\n"
        "print('numpy' in sys.modules, aes_core._rented_blocks)\n"
    )
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["False", "0"]


def test_a_batch_that_costs_the_import_loads_numpy_at_once():
    # a fresh process: a batch of IMPORT_BLOCKS blocks or more would cost
    # the chain more than the import, so it does not run there first
    script = (
        "import sys\n"
        "from cmt.aes_core import IMPORT_BLOCKS\n"
        "from cmt.crypto_codec import MAX_FIELD_BYTES\n"
        "from cmt.crypto_codec import decrypt_values, encrypt_value\n"
        "from cmt.key_service import TenantKeySet\n"
        "keys = TenantKeySet(enc_key=bytes(16), mac_key=bytes(16))\n"
        "plains = [bytes([i]) * MAX_FIELD_BYTES for i in range(2)]\n"
        "values = [encrypt_value(p, keys) for p in plains]\n"
        "print(sum(len(v) // 16 - 2 for v in values), IMPORT_BLOCKS, 'numpy' in sys.modules)\n"
        "assert decrypt_values(values, keys) == plains\n"
        "print('numpy' in sys.modules)\n"
    )
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    first, after = result.stdout.splitlines()
    blocks, import_blocks, loaded = first.split()
    assert int(blocks) == 8194 >= int(import_blocks)
    assert (loaded, after) == ("False", "True")


def test_a_batch_decides_once_for_its_macs_and_its_decryption():
    # a fresh process: KERNEL_MIN_LANES (48) values of 2,000 B give 48 x 127
    # MAC lane blocks and 48 x 126 decryption blocks, each under
    # IMPORT_BLOCKS and together over it, so the one batch buys the kernel
    # for both
    script = (
        "import sys\n"
        "from cmt.aes_core import IMPORT_BLOCKS, KERNEL_MIN_LANES\n"
        "from cmt.crypto_codec import decrypt_values, encrypt_value\n"
        "from cmt.key_service import TenantKeySet\n"
        "keys = TenantKeySet(enc_key=bytes(16), mac_key=bytes(16))\n"
        "plains = [bytes([i]) * 2000 for i in range(KERNEL_MIN_LANES)]\n"
        "values = [encrypt_value(p, keys) for p in plains]\n"
        "print(IMPORT_BLOCKS, KERNEL_MIN_LANES, 'numpy' in sys.modules)\n"
        "assert decrypt_values(values, keys) == plains\n"
        "print('numpy' in sys.modules)\n"
    )
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    first, after = result.stdout.splitlines()
    import_blocks, lanes, loaded = first.split()
    assert int(lanes) == 48
    assert 48 * 126 < 48 * 127 < int(import_blocks) <= 48 * (127 + 126)
    assert (loaded, after) == ("False", "True")


def test_empty_plaintext_sizes():
    cv = encrypt_value(b"", random_keys())
    assert len(cv[16:-16]) == 16
    assert len(cv) == 48


def test_serialized_length_formula():
    keys = random_keys()
    for n in (0, 1, 15, 16, 17, 100, 255, 256, 1024):
        cv = encrypt_value(os.urandom(n), keys)
        assert len(cv) == 32 + 16 * ((n + 1 + 15) // 16)


def test_fresh_iv_per_encryption():
    keys = random_keys()
    a = encrypt_value(b"same plaintext", keys)
    b = encrypt_value(b"same plaintext", keys)
    assert a[:16] != b[:16]
    assert a[16:-16] != b[16:-16]


def test_field_size_cap():
    keys = random_keys()
    encrypt_value(b"x" * 65536, keys)  # at the cap: fine
    with pytest.raises(FieldTooLarge):
        encrypt_value(b"x" * 65537, keys)


def test_wrong_keys_always_auth_error():
    keys = random_keys()
    cv = encrypt_value(b"tenant A data", keys)
    for _ in range(100):
        with pytest.raises(AuthError):
            decrypt_value(cv, random_keys())


def test_tampering_detected():
    keys = random_keys()
    cv = encrypt_value(b"some protected bytes", keys)
    # the first byte of the IV, of the ciphertext and of the tag
    for victim in (0, 16, len(cv) - 16):
        raw = bytearray(cv)
        raw[victim] ^= 0x01
        with pytest.raises(AuthError):
            decrypt_value(bytes(raw), keys)


def test_ciphertext_never_contains_plaintext():
    keys = random_keys()
    for _ in range(200):
        p = os.urandom(16)
        assert p not in encrypt_value(p, keys)
