"""Authenticated encryption of variable-length field values.

Encrypt-then-MAC over CBC: fresh random IV per value, PKCS#7 padding,
CBC encryption under the tenant's encryption key, then a CBC-MAC tag
(`aes_core.cbc_macs`: zero IV, last block kept) over IV || ciphertext
under the separate MAC key. A value is the bytes IV || ciphertext || tag,
and this module alone knows that layout: `check_value` is its one length
rule. The tag is always verified before any decryption happens, and a
value whose tag verifies but whose padding does not is refused too, so the
only failure a caller ever sees for wrong keys or tampering is AuthError.

`decrypt_values` verifies and decrypts a batch, such as every value a
`list` returns: all tags are checked before any block is decrypted. It
hands the batch's messages IV || ciphertext once to `aes_core.use_lanes`,
which decides whether the whole batch runs on the multi-lane kernel or on
the scalar chain; `aes_core.cbc_macs` then tags them and
`aes_core.decrypt_cbc` decrypts them. `decrypt_value` is a batch of one.
This module holds the value layout, the tag comparison and the padding;
CBC, CBC-MAC and the choice of engine are `aes_core`'s.
"""

import os
from collections.abc import Sequence

# hmac.compare_digest's own constant-time fallback, without loading OpenSSL
from _operator import _compare_digest as compare_digest

from . import aes_core
from .errors import AuthError, FieldTooLarge

BLOCK_SIZE = aes_core.BLOCK_SIZE
MAX_FIELD_BYTES = 65536


def pad(data: bytes) -> bytes:
    """PKCS#7: append n bytes of value n, n in 1..16."""
    n = BLOCK_SIZE - (len(data) % BLOCK_SIZE)
    return data + bytes([n]) * n


def unpad(data: bytes) -> bytes:
    if len(data) == 0 or len(data) % BLOCK_SIZE != 0:
        raise ValueError("padded data must be a positive multiple of 16")
    n = data[-1]
    if n < 1 or n > BLOCK_SIZE or data[-n:] != bytes([n]) * n:
        raise ValueError("invalid PKCS#7 padding")
    return data[:-n]


def check_value(raw: bytes) -> bytes:
    """`raw` if its length is that of a value, IV || ciphertext || tag with
    a ciphertext of one block or more; ValueError otherwise."""
    if len(raw) < 3 * BLOCK_SIZE or len(raw) % BLOCK_SIZE != 0:
        raise ValueError(f"a value of {len(raw)} bytes is not IV || ciphertext || tag")
    return raw


def encrypt_value(plaintext: bytes, keys) -> bytes:
    """IV || ciphertext || tag of one field value under a TenantKeySet,
    whose key schedules were expanded when it was built."""
    if len(plaintext) > MAX_FIELD_BYTES:
        raise FieldTooLarge(f"field of {len(plaintext)} bytes exceeds cap of {MAX_FIELD_BYTES}")
    iv = os.urandom(BLOCK_SIZE)
    message = iv + aes_core.encrypt_cbc(pad(plaintext), keys.enc_schedule, iv)
    return message + aes_core.cbc_macs([message], keys.mac_schedule)[0]


def decrypt_values(values: Sequence[bytes], keys) -> list[bytes]:
    """Verify every tag, then decrypt every value. A tag failure raises
    AuthError before any block of the batch is decrypted, and so does a
    value whose tag verifies but whose padding is invalid: CBC-MAC tags of
    different lengths are not independent, so a forger can build one.
    A value of a length `check_value` refuses raises ValueError."""
    messages = [check_value(v)[:-BLOCK_SIZE] for v in values]
    # one decision: the MAC steps and the decryption may buy the kernel together
    lanes = aes_core.use_lanes(messages)
    tags = aes_core.cbc_macs(messages, keys.mac_schedule, lanes)
    for value, tag in zip(values, tags):
        if not compare_digest(tag, value[-BLOCK_SIZE:]):
            raise AuthError("authentication tag mismatch")
    plains = aes_core.decrypt_cbc(messages, keys.enc_schedule, lanes)
    try:
        return list(map(unpad, plains))
    except ValueError:
        raise AuthError("a value whose tag verifies has invalid padding") from None


def decrypt_value(value: bytes, keys) -> bytes:
    """decrypt_values of one value."""
    return decrypt_values([value], keys)[0]
