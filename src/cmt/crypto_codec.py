"""Authenticated encryption of variable-length field values.

Encrypt-then-MAC over CBC: fresh random IV per value, PKCS#7 padding,
CBC encryption under the tenant's encryption key, then a CBC-MAC tag
(zero IV, last block kept) over IV || ciphertext under the separate MAC
key. The tag is always verified before any decryption happens, so the
only failure a caller ever sees for wrong keys or tampering is AuthError.
"""

import hmac
import os
from dataclasses import dataclass
from typing import Callable

from . import aes_core
from .errors import AuthError, FieldTooLarge, PaddingError

BLOCK_SIZE = aes_core.BLOCK_SIZE
MAX_FIELD_BYTES = 65536


def pad(data: bytes) -> bytes:
    """PKCS#7: append n bytes of value n, n in 1..16."""
    n = BLOCK_SIZE - (len(data) % BLOCK_SIZE)
    return data + bytes([n]) * n


def unpad(data: bytes) -> bytes:
    if len(data) == 0 or len(data) % BLOCK_SIZE != 0:
        raise PaddingError("padded data must be a positive multiple of 16")
    n = data[-1]
    if n < 1 or n > BLOCK_SIZE or data[-n:] != bytes([n]) * n:
        raise PaddingError("invalid PKCS#7 padding")
    return data[:-n]


# CBC decryption of a value of at least this many blocks runs on the
# multi-lane kernel; below it the per-block chain is faster. Measured on
# `cbc_decrypt` itself: the kernel's fixed cost is about 70 us and a block
# on the chain about 12 us, so the kernel wins from 7 blocks on.
LANE_MIN_BLOCKS = 7


def _xor(a: bytes, b: bytes) -> bytes:
    return (int.from_bytes(a, "big") ^ int.from_bytes(b, "big")).to_bytes(len(a), "big")


def cbc_encrypt(data: bytes, schedule: aes_core.KeySchedule, iv: bytes) -> bytes:
    if len(data) % BLOCK_SIZE != 0:
        raise ValueError("CBC input must be block-aligned")
    out = []
    prev = iv
    for i in range(0, len(data), BLOCK_SIZE):
        prev = aes_core.encrypt_block(_xor(data[i : i + BLOCK_SIZE], prev), schedule)
        out.append(prev)
    return b"".join(out)


def cbc_decrypt(data: bytes, schedule: aes_core.KeySchedule, iv: bytes) -> bytes:
    """Decrypt every block independently, then XOR with the blocks before
    them (IV first): no block's decryption waits on another's."""
    if len(data) % BLOCK_SIZE != 0:
        raise ValueError("CBC input must be block-aligned")
    if len(data) >= LANE_MIN_BLOCKS * BLOCK_SIZE:
        plain = aes_core.decrypt_ecb(data, schedule)
    else:
        plain = b"".join(
            aes_core.decrypt_block(data[i : i + BLOCK_SIZE], schedule)
            for i in range(0, len(data), BLOCK_SIZE)
        )
    return _xor(plain, (iv + data)[: len(data)])


def cbc_mac(data: bytes, schedule: aes_core.KeySchedule) -> bytes:
    """CBC-MAC with zero IV over block-aligned input; last block is the tag."""
    if len(data) == 0 or len(data) % BLOCK_SIZE != 0:
        raise ValueError("CBC-MAC input must be a positive multiple of 16")
    return cbc_encrypt(data, schedule, bytes(BLOCK_SIZE))[-BLOCK_SIZE:]


@dataclass(frozen=True)
class CipherValue:
    """Self-contained encrypted field value: IV || ciphertext || tag."""

    iv: bytes
    ct: bytes
    tag: bytes

    def __post_init__(self):
        if len(self.iv) != BLOCK_SIZE or len(self.tag) != BLOCK_SIZE:
            raise ValueError("iv and tag must be 16 bytes")
        if len(self.ct) < BLOCK_SIZE or len(self.ct) % BLOCK_SIZE != 0:
            raise ValueError("ciphertext must be a positive multiple of 16")

    def to_bytes(self) -> bytes:
        return self.iv + self.ct + self.tag

    @classmethod
    def from_bytes(cls, raw: bytes) -> "CipherValue":
        if len(raw) < 3 * BLOCK_SIZE or len(raw) % BLOCK_SIZE != 0:
            raise ValueError("serialized CipherValue has invalid length")
        return cls(raw[:BLOCK_SIZE], raw[BLOCK_SIZE:-BLOCK_SIZE], raw[-BLOCK_SIZE:])


def encrypt_value(plaintext: bytes, keys, rng: Callable[[int], bytes] = os.urandom) -> CipherValue:
    """Encrypt one field value under a TenantKeySet, whose key schedules
    were expanded when it was built."""
    if len(plaintext) > MAX_FIELD_BYTES:
        raise FieldTooLarge(f"field of {len(plaintext)} bytes exceeds cap of {MAX_FIELD_BYTES}")
    iv = rng(BLOCK_SIZE)
    ct = cbc_encrypt(pad(plaintext), keys.enc_schedule, iv)
    tag = cbc_mac(iv + ct, keys.mac_schedule)
    return CipherValue(iv=iv, ct=ct, tag=tag)


def decrypt_value(value: CipherValue, keys) -> bytes:
    """Verify the tag, then decrypt. Tag failure raises AuthError before
    any block is decrypted."""
    expected = cbc_mac(value.iv + value.ct, keys.mac_schedule)
    if not hmac.compare_digest(expected, value.tag):
        raise AuthError("authentication tag mismatch")
    padded = cbc_decrypt(value.ct, keys.enc_schedule, value.iv)
    try:
        return unpad(padded)
    except PaddingError as exc:
        # unreachable after a valid tag unless the codec itself is broken
        raise AssertionError("padding invalid despite valid tag") from exc
