"""Codec tests: padding, CBC against a library reference, round trips,
tamper detection, and the serialized-length formula."""

import os
import subprocess
import sys

import pytest
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes
from hypothesis import given, settings
from hypothesis import strategies as st

from cmt import aes_core, crypto_codec
from cmt.crypto_codec import (
    LANE_MIN_BLOCKS,
    CipherValue,
    cbc_encrypt,
    cbc_mac,
    decrypt_value,
    decrypt_values,
    encrypt_value,
    pad,
    unpad,
)
from cmt.errors import AuthError, FieldTooLarge, PaddingError
from cmt.key_service import TenantKeySet


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


def test_unpad_rejects_inconsistent_padding():
    block = b"\x00" * 13 + b"\x03\x02\x03"
    with pytest.raises(PaddingError):
        unpad(block)


def test_unpad_rejects_bad_lengths():
    with pytest.raises(PaddingError):
        unpad(b"")
    with pytest.raises(PaddingError):
        unpad(b"123")


@given(st.binary(min_size=0, max_size=200))
def test_pad_unpad_round_trip(data):
    padded = pad(data)
    assert len(padded) % 16 == 0
    assert unpad(padded) == data


# --- CBC against library reference ----------------------------------------

def library_value(plaintext: bytes, enc_key: bytes, keys: TenantKeySet) -> CipherValue:
    """A value whose CBC ciphertext the library made, tagged by the codec."""
    iv = os.urandom(16)
    enc = Cipher(algorithms.AES(enc_key), modes.CBC(iv)).encryptor()
    ct = enc.update(pad(plaintext)) + enc.finalize()
    return CipherValue(iv=iv, ct=ct, tag=cbc_mac(iv + ct, keys.mac_schedule))


def test_cbc_matches_library():
    key, iv = os.urandom(16), os.urandom(16)
    data = os.urandom(16 * 9)
    ks = aes_core.expand_key(key)
    enc = Cipher(algorithms.AES(key), modes.CBC(iv)).encryptor()
    expected = enc.update(data) + enc.finalize()
    assert cbc_encrypt(data, ks, iv) == expected
    keys = TenantKeySet(enc_key=key, mac_key=os.urandom(16))
    assert decrypt_value(library_value(data, key, keys), keys) == data


@pytest.mark.parametrize("blocks", [1, LANE_MIN_BLOCKS - 1, LANE_MIN_BLOCKS, 257])
def test_cbc_decrypt_matches_library_on_both_paths(blocks, monkeypatch):
    # below LANE_MIN_BLOCKS the per-block chain runs, from it the lane kernel
    monkeypatch.setattr(crypto_codec, "_use_lanes", lambda blocks: True)
    kernel_calls = spy(monkeypatch, aes_core, "decrypt_ecb")
    key = os.urandom(16)
    keys = TenantKeySet(enc_key=key, mac_key=os.urandom(16))
    data = os.urandom(16 * blocks - 1)
    assert decrypt_value(library_value(data, key, keys), keys) == data
    assert len(kernel_calls) == (blocks >= LANE_MIN_BLOCKS)


def test_codec_uses_the_cached_key_schedules(monkeypatch):
    keys = random_keys()
    calls = []
    expand_key = aes_core.expand_key
    monkeypatch.setattr(aes_core, "expand_key", lambda key: calls.append(key) or expand_key(key))
    for n in (0, 20, 16 * LANE_MIN_BLOCKS, 2500):
        p = os.urandom(n)
        assert decrypt_value(encrypt_value(p, keys), keys) == p
    assert calls == []


def test_cbc_mac_is_last_cbc_block():
    key = os.urandom(16)
    data = os.urandom(16 * 5)
    ks = aes_core.expand_key(key)
    assert cbc_mac(data, ks) == cbc_encrypt(data, ks, bytes(16))[-16:]


# --- CipherValue structure -------------------------------------------------

def test_cipher_value_serialization_round_trip():
    cv = CipherValue(iv=os.urandom(16), ct=os.urandom(48), tag=os.urandom(16))
    assert CipherValue.from_bytes(cv.to_bytes()) == cv


def test_cipher_value_rejects_bad_shapes():
    with pytest.raises(ValueError):
        CipherValue(iv=b"short", ct=os.urandom(16), tag=os.urandom(16))
    with pytest.raises(ValueError):
        CipherValue(iv=os.urandom(16), ct=b"", tag=os.urandom(16))


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


@pytest.mark.parametrize("lanes", [False, True])
@given(st.lists(st.binary(max_size=300), max_size=40))
@settings(max_examples=25, deadline=None)
def test_decrypt_values_equals_one_by_one(lanes, plaintexts):
    values = [encrypt_value(p, BATCH_KEYS) for p in plaintexts]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(crypto_codec, "_use_lanes", lambda blocks: lanes)
        batch = decrypt_values(values, BATCH_KEYS)
    assert batch == [decrypt_value(v, BATCH_KEYS) for v in values] == plaintexts


@pytest.mark.parametrize("lanes", [False, True])
@pytest.mark.parametrize("count", [LANE_MIN_BLOCKS - 1, LANE_MIN_BLOCKS, LANE_MIN_BLOCKS + 1])
def test_mac_chains_step_in_lockstep_from_lane_min_blocks(count, lanes, monkeypatch):
    # lengths 0..299 B: the lanes drop out at different steps and the longest
    # chains finish on the scalar chain
    plaintexts = [os.urandom((37 * i) % 300) for i in range(1, count + 1)]
    values = [encrypt_value(p, BATCH_KEYS) for p in plaintexts]
    monkeypatch.setattr(crypto_codec, "_use_lanes", lambda blocks: lanes)
    steps = spy(monkeypatch, aes_core, "encrypt_lanes")
    assert decrypt_values(values, BATCH_KEYS) == plaintexts
    assert bool(steps) == (lanes and count >= LANE_MIN_BLOCKS)


@pytest.mark.parametrize("lanes", [False, True])
@pytest.mark.parametrize("forged", ["first", "middle", "last"])
def test_one_forged_tag_refuses_the_batch_before_any_decryption(forged, lanes, monkeypatch):
    values = [encrypt_value(os.urandom(20 * i), BATCH_KEYS) for i in range(9)]
    at = {"first": 0, "middle": 4, "last": 8}[forged]
    tag = bytearray(values[at].tag)
    tag[-1] ^= 0x80
    values[at] = CipherValue(iv=values[at].iv, ct=values[at].ct, tag=bytes(tag))
    monkeypatch.setattr(crypto_codec, "_use_lanes", lambda blocks: lanes)
    blocks = spy(monkeypatch, aes_core, "decrypt_block")
    kernel = spy(monkeypatch, aes_core, "decrypt_ecb")
    with pytest.raises(AuthError):
        decrypt_values(values, BATCH_KEYS)
    assert blocks == kernel == []


def test_numpy_is_loaded_once_the_chain_has_paid_for_it():
    # a fresh process: the kernel's work runs on the chain until that work
    # reaches IMPORT_BLOCKS blocks, and the next call loads numpy
    script = (
        "import sys\n"
        "from cmt.crypto_codec import IMPORT_BLOCKS, decrypt_value, encrypt_value\n"
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


def test_empty_plaintext_sizes():
    cv = encrypt_value(b"", random_keys())
    assert len(cv.ct) == 16
    assert len(cv.to_bytes()) == 48


def test_serialized_length_formula():
    keys = random_keys()
    for n in (0, 1, 15, 16, 17, 100, 255, 256, 1024):
        cv = encrypt_value(os.urandom(n), keys)
        assert len(cv.to_bytes()) == 32 + 16 * ((n + 1 + 15) // 16)


def test_fresh_iv_per_encryption():
    keys = random_keys()
    a = encrypt_value(b"same plaintext", keys)
    b = encrypt_value(b"same plaintext", keys)
    assert a.iv != b.iv
    assert a.ct != b.ct


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
    for victim in ("iv", "ct", "tag"):
        raw = bytearray(getattr(cv, victim))
        raw[0] ^= 0x01
        mutated = CipherValue(**{**cv.__dict__, victim: bytes(raw)})
        with pytest.raises(AuthError):
            decrypt_value(mutated, keys)


def test_ciphertext_never_contains_plaintext():
    keys = random_keys()
    for _ in range(200):
        p = os.urandom(16)
        assert p not in encrypt_value(p, keys).to_bytes()
