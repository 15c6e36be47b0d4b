"""Authenticated encryption of variable-length field values.

Encrypt-then-MAC over CBC: fresh random IV per value, PKCS#7 padding,
CBC encryption under the tenant's encryption key, then a CBC-MAC tag
(zero IV, last block kept) over IV || ciphertext under the separate MAC
key. A value is the bytes IV || ciphertext || tag, and this module alone
knows that layout: `check_value` is its one length rule. The tag is always
verified before any decryption happens, and a value whose tag verifies but
whose padding does not is refused too, so the only failure a caller ever
sees for wrong keys or tampering is AuthError.

`decrypt_values` verifies and decrypts a batch, such as every value a
`list` returns: all tags are checked before any block is decrypted. The
batch's MAC chains step in lockstep as lanes of the multi-lane kernel while
at least LANE_MIN_BLOCKS of them are running, and its ciphertexts are
CBC-decrypted in one call; smaller work runs on the scalar chain.
`decrypt_value` is a batch of one. The kernel needs numpy, whose import
costs as much as thousands of chain blocks: until numpy is loaded, work the
kernel would take runs on the chain, and the kernel is loaded for a batch
of at least IMPORT_BLOCKS such blocks, or once the blocks run on the chain
instead have reached that count (rent or buy). A one-shot `cmt get` or
`cmt list` therefore imports numpy only if the work it would hand the
kernel comes to IMPORT_BLOCKS blocks or more.
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


# Work of at least this many blocks runs on the multi-lane kernel, once it
# is loaded; below it the chain is faster. Measured in 61 alternating pairs
# of thread CPU time, three runs: CBC decryption of 9 blocks took 0.98-1.04
# times as long on the kernel as on the chain, of 10 blocks 0.90-0.94, and
# a lockstep CBC-MAC step of 9 lanes 0.96-1.04 times as long as 9 chain
# blocks, of 10 lanes 0.87-0.94 (a chain block 10-16 us, a kernel call on
# 10 blocks 85-155 us): the kernel wins from 10 blocks on.
LANE_MIN_BLOCKS = 10

# The kernel's numpy import, counted in chain blocks. Until numpy is loaded,
# work the kernel would take runs on the chain; a batch this large, or any
# batch once the blocks run that way reach this count, loads the kernel (rent
# or buy: a process then spends at most about twice what the better choice
# in hindsight would have cost, and a batch that alone costs the purchase
# buys at once).
# Measured three times: numpy import and table build 95-96 ms of thread CPU
# time (median of 9 fresh processes each), the chain 17.1-17.7 us a block
# and the kernel 1.3, so the import pays for itself after 5,800-6,100
# blocks. 6,500 errs toward buying late, which spares the processes that
# stop soon after the count and would never repay the import.
IMPORT_BLOCKS = 6500

_chain_blocks = 0  # blocks the kernel would have taken, run on the chain instead


def _use_lanes(blocks: int) -> bool:
    """Whether `blocks` blocks of work the kernel would take run there."""
    global _chain_blocks  # a lost update between threads only delays the import
    if aes_core.lanes_loaded() or _chain_blocks >= IMPORT_BLOCKS or blocks >= IMPORT_BLOCKS:
        return True
    _chain_blocks += blocks
    return False


def _xor(a: bytes, b: bytes) -> bytes:
    return (int.from_bytes(a, "big") ^ int.from_bytes(b, "big")).to_bytes(len(a), "big")


def cbc_mac(data: bytes, schedule: aes_core.KeySchedule) -> bytes:
    """CBC-MAC with zero IV over block-aligned input; last block is the tag."""
    if len(data) == 0 or len(data) % BLOCK_SIZE != 0:
        raise ValueError("CBC-MAC input must be a positive multiple of 16")
    return aes_core.encrypt_cbc(data, schedule, bytes(BLOCK_SIZE))[-BLOCK_SIZE:]


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
    return message + cbc_mac(message, keys.mac_schedule)


def _cbc_macs(messages: list[bytes], schedule: aes_core.KeySchedule, steps: int) -> list[bytes]:
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
        tags[i] = aes_core.encrypt_cbc(rest, schedule, start)[-BLOCK_SIZE:] if rest else start
    return tags


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
    lane_blocks = blocks if blocks >= LANE_MIN_BLOCKS else 0
    steps = 0
    if len(values) >= LANE_MIN_BLOCKS:
        sizes = [len(m) // BLOCK_SIZE for m in messages]
        steps = sorted(sizes, reverse=True)[LANE_MIN_BLOCKS - 1]
        lane_blocks += sum(min(n, steps) for n in sizes)
    lanes = lane_blocks > 0 and _use_lanes(lane_blocks)
    tags = _cbc_macs(messages, keys.mac_schedule, steps if lanes else 0)
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
