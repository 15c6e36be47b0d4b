"""Authenticated encryption of variable-length field values.

Encrypt-then-MAC over CBC: fresh random IV per value, PKCS#7 padding, CBC
encryption under the tenant's encryption key, then a CBC-MAC tag
(`aes_core.cbc_macs`: zero IV, last block kept) over IV || ciphertext
under the separate MAC key. A value is the bytes IV || ciphertext || tag,
and this module alone knows that layout: `check_value` is its length rule.
`tenant_store` spells the same rule once more, in base64, in the pattern
that reads every log line; a test holds the two spellings equal on every
base64 spelling of lengths 0 to 400 bytes, save "=" after whole quads,
which strict base64 takes and the pattern refuses. The tag is
always verified before any decryption happens, and a value whose tag
verifies but whose padding does not is refused too, so the only failure a
caller ever sees for wrong keys or tampering is AuthError.

`decrypt_values` verifies and decrypts a batch, such as every value a
`list` returns: all tags are checked before any block is decrypted. It
checks the batch against `check_value`'s length rule in one pass, and
hands the batch's messages IV || ciphertext once to `aes_core.use_lanes`,
which decides whether the multi-lane kernel may run the whole batch; the
engine each step runs on is `aes_core`'s choice by width. It then tags
those messages with `aes_core.cbc_macs`
and compares the whole batch's tags with the stored ones in one
constant-time comparison, the package's one tag check.
`aes_core.decrypt_cbc` decrypts them, and one more pass checks and strips
the PKCS#7 padding of every plaintext against `_PADDING`, the padding
each last byte calls for. `decrypt_value` is a batch of one.
This module holds the value layout, the length rule, the tag comparison
and the padding; CBC, CBC-MAC and the choice of engine are `aes_core`'s.
"""

import os

# hmac.compare_digest's own constant-time fallback, without loading OpenSSL
from _operator import _compare_digest as compare_digest

from . import aes_core
from .errors import AuthError, FieldTooLarge

BLOCK_SIZE = aes_core.BLOCK_SIZE
MAX_FIELD_BYTES = 65536
MIN_VALUE_BYTES = 3 * BLOCK_SIZE  # an IV, one ciphertext block and a tag

# The PKCS#7 padding that a padded plaintext's last byte n calls for: n
# bytes of value n, for n in 1..16. Any other n is invalid, and its entry is
# one byte other than n, which no plaintext ending in n ends with. `pad`
# appends an entry and `decrypt_values` checks against one.
_PADDING = [bytes([n]) * n if 1 <= n <= BLOCK_SIZE else bytes([n ^ 1]) for n in range(256)]


def pad(data: bytes) -> bytes:
    """PKCS#7: append `_PADDING[n]`, for the n in 1..16 that makes whole blocks."""
    return data + _PADDING[BLOCK_SIZE - len(data) % BLOCK_SIZE]


def check_value(raw: bytes) -> None:
    """ValueError unless the length of `raw` is that of a value, IV ||
    ciphertext || tag with a ciphertext of one block or more."""
    if len(raw) < MIN_VALUE_BYTES or len(raw) % BLOCK_SIZE != 0:
        raise ValueError(f"a value of {len(raw)} bytes is not IV || ciphertext || tag")


def encrypt_value(plaintext: bytes, keys) -> bytes:
    """IV || ciphertext || tag of one field value under a TenantKeySet,
    whose key schedules were expanded when it was built."""
    if len(plaintext) > MAX_FIELD_BYTES:
        raise FieldTooLarge(f"field of {len(plaintext)} bytes exceeds cap of {MAX_FIELD_BYTES}")
    iv = os.urandom(BLOCK_SIZE)
    message = iv + aes_core.encrypt_cbc(pad(plaintext), keys.enc_schedule, iv)
    return message + aes_core.cbc_macs([message], keys.mac_schedule)[0]


def decrypt_values(values: list[bytes], keys) -> list[bytes]:
    """Verify every tag, then decrypt every value. A tag failure raises
    AuthError before any block of the batch is decrypted, and so does a
    value whose tag verifies but whose padding is invalid: CBC-MAC tags of
    different lengths are not independent, so a forger can build one.
    A value of a length `check_value` refuses raises ValueError.

    The length rule and the padding are each checked in one pass over the
    batch: a padded plaintext ending in byte n must end with `_PADDING[n]`."""
    if any([len(v) < MIN_VALUE_BYTES or len(v) % BLOCK_SIZE for v in values]):
        for value in values:
            check_value(value)  # raises, naming the length
    messages = [v[:-BLOCK_SIZE] for v in values]
    # one decision: the MAC steps and the decryption may buy the kernel together
    lanes = aes_core.use_lanes(messages)
    tags = aes_core.cbc_macs(messages, keys.mac_schedule, lanes)
    # one constant-time comparison of the whole batch's tags
    if not compare_digest(b"".join(tags), b"".join([v[-BLOCK_SIZE:] for v in values])):
        raise AuthError("authentication tag mismatch")
    out = []
    for plain in aes_core.decrypt_cbc(messages, keys.enc_schedule, lanes):
        padding = _PADDING[plain[-1]]
        if not plain.endswith(padding):
            raise AuthError("a value whose tag verifies has invalid padding")
        out.append(plain[: -len(padding)])
    return out


def decrypt_value(value: bytes, keys) -> bytes:
    """decrypt_values of one value."""
    return decrypt_values([value], keys)[0]
