"""Known-answer and sanity self-test suite, exposed via `cmt selftest`.

Needs no store and no master key, and no package beyond the standard
library. Covers the published AES-128 vectors, S-box structure, codec
round trips, agreement of the engines with the scalar cipher, and a loose
throughput bound on the CBC decryption of stored values, timed on the
multi-lane kernel if it loads and on the packed rounds if not; the line
that reports it names the engine. The timed decryption's own output is
checked too, at its first and last blocks and across the first boundary
between two packed chunks, against one-block decryptions on the chain.
"""

import os
import time

from . import aes_core
from .crypto_codec import decrypt_value, encrypt_value
from .errors import AuthError
from .key_service import TenantKeySet

# published AES-128 known-answer vectors
KAT_CIPHER_KEY = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
KAT_CIPHER_PT = bytes.fromhex("3243f6a8885a308d313198a2e0370734")
KAT_CIPHER_CT = bytes.fromhex("3925841d02dc09fbdc118597196a0b32")

KAT_VECTORS_KEY = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
KAT_VECTORS_PT = bytes.fromhex("00112233445566778899aabbccddeeff")
KAT_VECTORS_CT = bytes.fromhex("69c4e0d86a7b0430d8cdb78070b4c55a")

# w[4] of the key expansion for KAT_CIPHER_KEY
KAT_EXPANSION_W4 = bytes.fromhex("a0fafe17")

THROUGHPUT_BUFFER_BYTES = 16 * 1024 * 1024
THROUGHPUT_FLOOR_MBPS = 1.0


def _check_sbox() -> bool:
    if sorted(aes_core.SBOX) != list(range(256)):
        return False
    if any(aes_core.INV_SBOX[aes_core.SBOX[i]] != i for i in range(256)):
        return False
    return aes_core.SBOX[0x00] == 0x63 and aes_core.SBOX[0x53] == 0xED


def _check_kat(key: bytes, pt: bytes, ct: bytes) -> bool:
    # a one-block CBC message under a zero IV, on the functions that carry data
    ks, iv = aes_core.expand_key(key), bytes(aes_core.BLOCK_SIZE)
    return aes_core.encrypt_cbc(pt, ks, iv) == ct and aes_core.decrypt_cbc([iv + ct], ks) == [pt]


def _check_key_expansion() -> bool:
    k0, k1 = aes_core.expand_key(KAT_CIPHER_KEY).enc_keys[:2]
    w4 = (k1 >> 96).to_bytes(4, "big")  # round key 1 begins with w[4]
    return k0.to_bytes(16, "big") == KAT_CIPHER_KEY and w4 == KAT_EXPANSION_W4


def _check_codec_round_trip() -> bool:
    keys = TenantKeySet(enc_key=os.urandom(16), mac_key=os.urandom(16))
    for n in (0, 1, 15, 16, 17, 100, 1024):
        p = os.urandom(n)
        if decrypt_value(encrypt_value(p, keys), keys) != p:
            return False
    wrong = TenantKeySet(enc_key=os.urandom(16), mac_key=os.urandom(16))
    try:
        decrypt_value(encrypt_value(b"secret", keys), wrong)
    except AuthError:
        return True
    return False


def _check_throughput() -> bool:
    ks = aes_core.expand_key(os.urandom(16))
    buf = os.urandom(THROUGHPUT_BUFFER_BYTES)  # one message: an IV, then its ciphertext
    lanes = aes_core.use_lanes([buf])  # so wide a batch loads the kernel, if it can
    # every engine must agree with the scalar cipher before we trust the
    # timed one's speed. Chains of 1..KERNEL_MIN_LANES + 2 blocks and of
    # PLACED_MIN_BLOCKS: with `lanes` the kernel steps the MACs while
    # KERNEL_MIN_LANES or more run, the packed rounds while PACKED_MIN_LANES
    # or more do and the chain the last ones, one chain ending at every step
    # before, at and after both handovers; without it the packed rounds take
    # the kernel's steps. The batch decrypts on the kernel, and on the
    # packed rounds without `lanes`; each message alone on the engine its
    # block count calls for. The reference is the chain: CBC encryption, on
    # the row tables and on the placed tables, and one-block decryptions.
    sizes = [*range(1, aes_core.KERNEL_MIN_LANES + 3), aes_core.PLACED_MIN_BLOCKS]
    messages = [os.urandom(16 * n) for n in sizes]
    macs = [aes_core.encrypt_cbc(m, ks, bytes(16))[-16:] for m in messages]
    plains = [
        b"".join([aes_core.decrypt_cbc([m[i : i + 32]], ks)[0] for i in range(0, len(m) - 16, 16)])
        for m in messages
    ]
    for flag in {lanes, False}:
        if aes_core.cbc_macs(messages, ks, flag) != macs or aes_core.decrypt_cbc(messages, ks, flag) != plains:
            return False
    if [aes_core.decrypt_cbc([m], ks, lanes)[0] for m in messages] != plains:
        return False
    start = time.perf_counter()
    plain = aes_core.decrypt_cbc([buf], ks, lanes)[0]
    elapsed = time.perf_counter() - start
    mbps = THROUGHPUT_BUFFER_BYTES / (1024 * 1024) / elapsed
    engine = "the multi-lane kernel" if lanes else "the packed rounds"
    print(f"  throughput: {mbps:.1f} MB/s over {THROUGHPUT_BUFFER_BYTES // (1024 * 1024)} MB on {engine}")
    # and the timed output itself: its first and last blocks, and both sides
    # of the first boundary between two packed chunks, each decrypted alone
    ends = (0, 16 * aes_core.PACKED_MAX_LANES - 16, 16 * aes_core.PACKED_MAX_LANES, len(plain) - 16)
    right = all(aes_core.decrypt_cbc([buf[o : o + 32]], ks) == [plain[o : o + 16]] for o in ends)
    return right and mbps >= THROUGHPUT_FLOOR_MBPS


def run_selftest() -> bool:
    """Run every check, print one pass/fail line each, return overall result."""
    checks = [
        ("sbox-permutation", _check_sbox),
        ("kat-cipher-example", lambda: _check_kat(KAT_CIPHER_KEY, KAT_CIPHER_PT, KAT_CIPHER_CT)),
        ("kat-example-vectors", lambda: _check_kat(KAT_VECTORS_KEY, KAT_VECTORS_PT, KAT_VECTORS_CT)),
        ("key-expansion-w4", _check_key_expansion),
        ("codec-round-trip", _check_codec_round_trip),
        ("block-throughput", _check_throughput),
    ]
    ok = True
    for name, check in checks:
        try:
            passed = check()
        except Exception as exc:  # a crashing check is a failing check
            print(f"  {name} raised: {exc}")
            passed = False
        print(f"{'pass' if passed else 'FAIL'} {name}")
        ok = ok and passed
    return ok
