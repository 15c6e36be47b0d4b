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
counts the batch's work for the multi-lane kernel (the steps of its MAC
chains while at least `aes_core.LANE_MIN_BLOCKS` of them are running, and
the CBC decryption of all its ciphertexts in one call) and asks
`aes_core.use_lanes` once whether the whole batch runs on the kernel or on
the scalar chain. `decrypt_value` is a batch of one.
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


def _xor(a: bytes, b: bytes) -> bytes:
    return (int.from_bytes(a) ^ int.from_bytes(b)).to_bytes(len(a))


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
    return message + aes_core.cbc_macs([message], keys.mac_schedule, 0)[0]


def decrypt_values(values: Sequence[bytes], keys) -> list[bytes]:
    """Verify every tag, then decrypt every value. A tag failure raises
    AuthError before any block of the batch is decrypted, and so does a
    value whose tag verifies but whose padding is invalid: CBC-MAC tags of
    different lengths are not independent, so a forger can build one.
    A value of a length `check_value` refuses raises ValueError.

    The values are independent: their MAC chains step side by side as the
    kernel's lanes while at least LANE_MIN_BLOCKS of them are running, and
    all their ciphertexts are CBC-decrypted in one call, since no block's
    decryption waits on another's (NIST SP 800-38A section 6.2)."""
    messages = [check_value(v)[:-BLOCK_SIZE] for v in values]
    data = b"".join([m[BLOCK_SIZE:] for m in messages])
    blocks = len(data) // BLOCK_SIZE
    lane_blocks = blocks if blocks >= aes_core.LANE_MIN_BLOCKS else 0
    steps = 0
    if len(values) >= aes_core.LANE_MIN_BLOCKS:
        sizes = [len(m) // BLOCK_SIZE for m in messages]
        steps = sorted(sizes, reverse=True)[aes_core.LANE_MIN_BLOCKS - 1]
        lane_blocks += sum(min(n, steps) for n in sizes)
    # one decision: the MAC steps and the decryption may buy the kernel together
    lanes = lane_blocks > 0 and aes_core.use_lanes(lane_blocks)
    tags = aes_core.cbc_macs(messages, keys.mac_schedule, steps if lanes else 0)
    for value, tag in zip(values, tags):
        if not compare_digest(tag, value[-BLOCK_SIZE:]):
            raise AuthError("authentication tag mismatch")
    schedule = keys.enc_schedule
    if lanes:
        plain = aes_core.decrypt_ecb(data, schedule)
    else:
        plain = aes_core.decrypt_blocks(data, schedule)
    # CBC: each block XORed with the one before it in IV || ct
    plain = _xor(plain, b"".join([m[:-BLOCK_SIZE] for m in messages]))
    out, end = [], 0
    try:
        for m in messages:
            start, end = end, end + len(m) - BLOCK_SIZE
            out.append(unpad(plain[start:end]))
    except ValueError:
        raise AuthError("a value whose tag verifies has invalid padding") from None
    return out


def decrypt_value(value: bytes, keys) -> bytes:
    """decrypt_values of one value."""
    return decrypt_values([value], keys)[0]
