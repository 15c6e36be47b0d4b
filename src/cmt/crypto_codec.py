"""Authenticated encryption of variable-length field values.

Encrypt-then-MAC over CBC: fresh random IV per value, PKCS#7 padding,
CBC encryption under the tenant's encryption key, then a CBC-MAC tag
(zero IV, last block kept) over IV || ciphertext under the separate MAC
key. The tag is always verified before any decryption happens, so the
only failure a caller ever sees for wrong keys or tampering is AuthError.

`decrypt_values` verifies and decrypts a batch, such as every value a
`list` returns: all tags are checked before any block is decrypted. The
batch's MAC chains step in lockstep as lanes of the multi-lane kernel while
at least LANE_MIN_BLOCKS of them are running, and its ciphertexts are
CBC-decrypted in one call; smaller work runs on the per-block chain.
`decrypt_value` is a batch of one. The kernel needs numpy, whose import
costs as much as thousands of chain blocks: until numpy is loaded, work the
kernel would take runs on the chain, and the kernel is loaded once that
work reaches IMPORT_BLOCKS blocks (rent or buy). A one-shot `cmt list`,
one batch, therefore never imports numpy, and a one-shot `cmt get` only for
a row of more than IMPORT_BLOCKS blocks.
"""

import hmac
import os
from dataclasses import dataclass
from typing import Callable, List, Sequence

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


# Work of at least this many blocks runs on the multi-lane kernel, once it
# is loaded; below it the per-block chain is faster. Measured on CBC
# decryption (the kernel's fixed cost about 70 us, a block on the chain
# about 12 us) and on lockstep CBC-MAC steps (a step of 7 lanes took 0.93
# times as long as 7 chain blocks, of 6 lanes 1.08 times): the kernel wins
# from 7 blocks on.
LANE_MIN_BLOCKS = 7

# The kernel's numpy import, counted in chain blocks. Until numpy is loaded,
# work the kernel would take runs on the chain; once the blocks run that way
# reach this count, the kernel is loaded (rent or buy: a process then spends
# at most about twice what the better choice in hindsight would have cost).
# Measured three times: numpy import and table build 71 ms of thread CPU
# time (median of 9 fresh processes each), the chain 15.5-22.6 us a block
# and the kernel 1.1-1.4, so the import pays for itself after 3,300-4,900
# blocks. 5,000 errs toward buying late, which spares the processes that
# stop soon after the count and would never repay the import.
IMPORT_BLOCKS = 5000

_chain_blocks = 0  # blocks the kernel would have taken, run on the chain instead


def _use_lanes(blocks: int) -> bool:
    """Whether `blocks` blocks of work the kernel would take run there."""
    global _chain_blocks  # a lost update between threads only delays the import
    if aes_core.lanes_loaded() or _chain_blocks >= IMPORT_BLOCKS:
        return True
    _chain_blocks += blocks
    return False


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


def _cbc_macs(messages: List[bytes], schedule: aes_core.KeySchedule, steps: int) -> List[bytes]:
    """CBC-MAC of every message. The first `steps` blocks run on the kernel
    with one lane per message that is still running, longest messages first,
    so the running lanes are always a prefix; the rest runs on the chain."""
    if not steps:
        return [cbc_mac(m, schedule) for m in messages]
    import numpy as np

    tags = [b""] * len(messages)
    order = sorted(range(len(messages)), key=lambda i: len(messages[i]), reverse=True)
    sizes = [len(messages[i]) // BLOCK_SIZE for i in order]
    blocks = np.frombuffer(b"".join([messages[i] for i in order]), dtype=np.uint8)
    blocks = blocks.reshape(-1, BLOCK_SIZE)
    firsts = np.cumsum([0] + sizes[:-1])
    running = len(order)
    state = np.zeros((running, BLOCK_SIZE), dtype=np.uint8)
    for j in range(steps):
        while sizes[running - 1] == j:  # this message's tag is its state
            running -= 1
            tags[order[running]] = state[running].tobytes()
        state = aes_core.encrypt_lanes(state[:running] ^ blocks[firsts[:running] + j], schedule)
    for lane, i in enumerate(order[:running]):
        rest, start = messages[i][steps * BLOCK_SIZE :], state[lane].tobytes()
        tags[i] = cbc_encrypt(rest, schedule, start)[-BLOCK_SIZE:] if rest else start
    return tags


def decrypt_values(values: Sequence[CipherValue], keys) -> List[bytes]:
    """Verify every tag, then decrypt every value. A tag failure raises
    AuthError before any block of the batch is decrypted.

    The values are independent: their MAC chains step side by side as the
    kernel's lanes while at least LANE_MIN_BLOCKS of them are running, and
    all their ciphertexts are CBC-decrypted in one call, since no block's
    decryption waits on another's (NIST SP 800-38A section 6.2)."""
    messages = [v.iv + v.ct for v in values]
    data = b"".join([v.ct for v in values])
    blocks = len(data) // BLOCK_SIZE
    lane_blocks = blocks if blocks >= LANE_MIN_BLOCKS else 0
    steps = 0
    if len(values) >= LANE_MIN_BLOCKS:
        sizes = [len(m) // BLOCK_SIZE for m in messages]
        steps = sorted(sizes, reverse=True)[LANE_MIN_BLOCKS - 1]
        lane_blocks += sum(min(n, steps) for n in sizes)
    lanes = lane_blocks > 0 and _use_lanes(lane_blocks)
    tags = _cbc_macs(messages, keys.mac_schedule, steps if lanes else 0)
    for value, tag in zip(values, tags):
        if not hmac.compare_digest(tag, value.tag):
            raise AuthError("authentication tag mismatch")
    schedule = keys.enc_schedule
    if lanes:
        plain = aes_core.decrypt_ecb(data, schedule)
    else:
        plain = b"".join(
            aes_core.decrypt_block(data[i : i + BLOCK_SIZE], schedule)
            for i in range(0, len(data), BLOCK_SIZE)
        )
    # CBC: each block XORed with the one before it in IV || ct
    plain = _xor(plain, b"".join([m[:-BLOCK_SIZE] for m in messages]))
    out, end = [], 0
    try:
        for value in values:
            start, end = end, end + len(value.ct)
            out.append(unpad(plain[start:end]))
    except PaddingError as exc:
        # unreachable after a valid tag unless the codec itself is broken
        raise AssertionError("padding invalid despite valid tag") from exc
    return out


def decrypt_value(value: CipherValue, keys) -> bytes:
    """decrypt_values of one value."""
    return decrypt_values([value], keys)[0]
