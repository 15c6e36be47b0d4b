"""AES-128 block cipher built from first principles.

No crypto libraries: GF(2^8) arithmetic, a computed S-box, Rijndael key
expansion, and one cipher core in two shapes that share a key schedule:

- `encrypt_block`/`decrypt_block` take one 16-byte block and run one round
  function on four 32-bit column words, each round four T-table lookups
  per column (Daemen & Rijmen, *The Design of Rijndael*, section 4.2).
  Decryption is the equivalent inverse cipher (FIPS-197 section 5.3.5):
  with the state's columns 1 and 3 exchanged it is the encryption round
  code with the inverse tables and pre-mixed round keys.
- `encrypt_ecb`/`decrypt_ecb` run the same rounds on an (n, 16) numpy array
  of states, all lanes in lockstep. numpy is imported on their first call,
  so a program that never takes this path never loads it.

A block is read as four big-endian column words: input byte i sits at row
i % 4 of column i // 4. The tables are indexed by secret bytes, so the
cipher leaks through cache timing; constant-time hardening is a non-goal.
"""

import struct
from dataclasses import dataclass
from typing import List

BLOCK_SIZE = 16
KEY_SIZE = 16
NUM_ROUNDS = 10

# GF(2^8) reduction polynomial x^8 + x^4 + x^3 + x + 1
_POLY = 0x11B


def gf_mul(a: int, b: int) -> int:
    """Multiply two field elements, shift-and-reduce."""
    result = 0
    while b:
        if b & 1:
            result ^= a
        a <<= 1
        if a & 0x100:
            a ^= _POLY
        b >>= 1
    return result


def _gf_inv(a: int) -> int:
    # a^254 = a^-1 in GF(2^8); square-and-multiply keeps this independent
    # of any table.
    if a == 0:
        return 0
    result = 1
    power = a
    exp = 254
    while exp:
        if exp & 1:
            result = gf_mul(result, power)
        power = gf_mul(power, power)
        exp >>= 1
    return result


def _build_sbox() -> List[int]:
    box = []
    for a in range(256):
        x = _gf_inv(a)
        # standard affine transform over GF(2)
        y = 0
        for bit in range(8):
            b = (
                (x >> bit)
                ^ (x >> ((bit + 4) % 8))
                ^ (x >> ((bit + 5) % 8))
                ^ (x >> ((bit + 6) % 8))
                ^ (x >> ((bit + 7) % 8))
                ^ (0x63 >> bit)
            ) & 1
            y |= b << bit
        box.append(y)
    return box


SBOX = _build_sbox()
INV_SBOX = [0] * 256
for _i, _v in enumerate(SBOX):
    INV_SBOX[_v] = _i

# spot-check against published values; catches transcription/derivation bugs
if SBOX[0x00] != 0x63 or SBOX[0x53] != 0xED:
    raise AssertionError("S-box self-check failed")
if sorted(SBOX) != list(range(256)):
    raise AssertionError("S-box is not a permutation")

RCON = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36]


def _round_tables(box: List[int], mix: tuple) -> tuple:
    """T0..T3: byte x in row r -> the column word box[x] contributes after
    the mix, whose matrix has `mix` as its first column (what a byte in row 0
    gives rows 0..3). Row r's table is row 0's rotated right by 8r bits."""
    t0 = [
        (gf_mul(s, mix[0]) << 24) | (gf_mul(s, mix[1]) << 16)
        | (gf_mul(s, mix[2]) << 8) | gf_mul(s, mix[3])
        for s in box
    ]
    tables = [t0]
    for _ in range(3):
        tables.append([((w >> 8) | (w << 24)) & 0xFFFFFFFF for w in tables[-1]])
    return tuple(tables)


_TE = _round_tables(SBOX, (0x02, 0x01, 0x01, 0x03))  # MixColumns
_TD = _round_tables(INV_SBOX, (0x0E, 0x09, 0x0D, 0x0B))  # InvMixColumns

_WORDS = struct.Struct(">4I")


@dataclass(frozen=True)
class KeySchedule:
    """An AES-128 key expanded once for both directions.

    `enc_words` are the 44 words of the key expansion. `dec_words` are the
    44 round-key words of the equivalent inverse cipher, in the order
    decryption uses them, with InvMixColumns applied to rounds 1..9 and
    words 1 and 3 of every round exchanged (see `decrypt_block`).
    """

    enc_words: tuple
    dec_words: tuple


def _sub_rot_word(w: int) -> int:
    # SubWord(RotWord(w))
    return (
        (SBOX[(w >> 16) & 0xFF] << 24) | (SBOX[(w >> 8) & 0xFF] << 16)
        | (SBOX[w & 0xFF] << 8) | SBOX[w >> 24]
    )


def _inv_mix_word(w: int) -> int:
    # the tables apply INV_SBOX first, so feed them SBOX[b] to mix b itself
    td0, td1, td2, td3 = _TD
    return (
        td0[SBOX[w >> 24]] ^ td1[SBOX[(w >> 16) & 0xFF]]
        ^ td2[SBOX[(w >> 8) & 0xFF]] ^ td3[SBOX[w & 0xFF]]
    )


def _swap_columns(words) -> tuple:
    """Exchange words 1 and 3 of every round key; its own inverse."""
    return tuple(words[i ^ 2 if i & 1 else i] for i in range(len(words)))


def expand_key(key: bytes) -> KeySchedule:
    """Rijndael key expansion: 16-byte key -> 44 words, plus the decryption
    words of the equivalent inverse cipher."""
    if len(key) != KEY_SIZE:
        raise ValueError(f"key must be {KEY_SIZE} bytes, got {len(key)}")
    w = list(_WORDS.unpack(key))
    for i in range(4, 4 * (NUM_ROUNDS + 1)):
        t = w[i - 1]
        if i % 4 == 0:
            t = _sub_rot_word(t) ^ (RCON[i // 4 - 1] << 24)
        w.append(w[i - 4] ^ t)
    dec = w[40:44]
    for r in range(NUM_ROUNDS - 1, 0, -1):
        dec += [_inv_mix_word(x) for x in w[4 * r : 4 * r + 4]]
    dec += w[0:4]
    return KeySchedule(tuple(w), _swap_columns(dec))


def _columns(block: bytes) -> tuple:
    if len(block) != BLOCK_SIZE:
        raise ValueError(f"block must be {BLOCK_SIZE} bytes, got {len(block)}")
    return _WORDS.unpack(block)


def _rounds(s0: int, s1: int, s2: int, s3: int, rk: tuple, tables: tuple, box: List[int]) -> tuple:
    """Initial key add, 9 T-table rounds (SubBytes, ShiftRows and MixColumns
    in one lookup per byte) and a final round of S-box lookups on four
    column words; column c reads row r from column (c + r) % 4."""
    t0, t1, t2, t3 = tables
    s0 ^= rk[0]
    s1 ^= rk[1]
    s2 ^= rk[2]
    s3 ^= rk[3]
    for k in range(4, 4 * NUM_ROUNDS, 4):
        s0, s1, s2, s3 = (
            t0[s0 >> 24] ^ t1[(s1 >> 16) & 0xFF] ^ t2[(s2 >> 8) & 0xFF] ^ t3[s3 & 0xFF] ^ rk[k],
            t0[s1 >> 24] ^ t1[(s2 >> 16) & 0xFF] ^ t2[(s3 >> 8) & 0xFF] ^ t3[s0 & 0xFF] ^ rk[k + 1],
            t0[s2 >> 24] ^ t1[(s3 >> 16) & 0xFF] ^ t2[(s0 >> 8) & 0xFF] ^ t3[s1 & 0xFF] ^ rk[k + 2],
            t0[s3 >> 24] ^ t1[(s0 >> 16) & 0xFF] ^ t2[(s1 >> 8) & 0xFF] ^ t3[s2 & 0xFF] ^ rk[k + 3],
        )
    return (
        ((box[s0 >> 24] << 24) | (box[(s1 >> 16) & 0xFF] << 16) | (box[(s2 >> 8) & 0xFF] << 8) | box[s3 & 0xFF]) ^ rk[40],
        ((box[s1 >> 24] << 24) | (box[(s2 >> 16) & 0xFF] << 16) | (box[(s3 >> 8) & 0xFF] << 8) | box[s0 & 0xFF]) ^ rk[41],
        ((box[s2 >> 24] << 24) | (box[(s3 >> 16) & 0xFF] << 16) | (box[(s0 >> 8) & 0xFF] << 8) | box[s1 & 0xFF]) ^ rk[42],
        ((box[s3 >> 24] << 24) | (box[(s0 >> 16) & 0xFF] << 16) | (box[(s1 >> 8) & 0xFF] << 8) | box[s2 & 0xFF]) ^ rk[43],
    )


def encrypt_block(block: bytes, schedule: KeySchedule) -> bytes:
    """Encrypt one 16-byte block."""
    c0, c1, c2, c3 = _columns(block)
    o0, o1, o2, o3 = _rounds(c0, c1, c2, c3, schedule.enc_words, _TE, SBOX)
    return _WORDS.pack(o0, o1, o2, o3)


def decrypt_block(block: bytes, schedule: KeySchedule) -> bytes:
    """Exact inverse of encrypt_block. Its rows shift right, reading column
    (c - r) % 4; with columns 1 and 3 exchanged that is (c + r) % 4 again,
    the order in which `dec_words` are stored."""
    c0, c1, c2, c3 = _columns(block)
    o0, o3, o2, o1 = _rounds(c0, c3, c2, c1, schedule.dec_words, _TD, INV_SBOX)
    return _WORDS.pack(o0, o1, o2, o3)


# --- multi-lane kernel ---------------------------------------------------

_LANES = None  # (numpy, encrypt constants, decrypt constants), built on first use


def _lanes():
    global _LANES
    if _LANES is None:
        import numpy as np

        def direction(box, tables, shift, key_order):
            # gathers the shifted state row by row: index 4*r + c reads row r
            # of column (c + shift*r) % 4
            perm = np.array(
                [4 * ((c + shift * r) % 4) + r for r in range(4) for c in range(4)],
                dtype=np.intp,
            )
            # memory order of each word is its big-endian bytes, rows 0..3
            words = [np.array(t, dtype=">u4").view(np.uint32) for t in tables]
            return np.array(box, dtype=np.uint8), perm, words, np.array(key_order, dtype=np.intp)

        # the lanes keep columns in place: undo the exchange in `dec_words`
        order = range(4 * (NUM_ROUNDS + 1))
        _LANES = (np, direction(SBOX, _TE, 1, order), direction(INV_SBOX, _TD, -1, _swap_columns(order)))
    return _LANES


def _ecb(data: bytes, words: tuple, backward: bool) -> bytes:
    """The rounds of one direction on every block of `data` at once."""
    if len(data) % BLOCK_SIZE != 0:
        raise ValueError("data length must be a multiple of 16")
    np, enc, dec = _lanes()
    box, perm, (t0, t1, t2, t3), key_order = dec if backward else enc
    n = len(data) // BLOCK_SIZE
    rk = np.array(words, dtype=">u4")[key_order].view(np.uint8).reshape(NUM_ROUNDS + 1, BLOCK_SIZE)
    s = np.frombuffer(data, dtype=np.uint8).reshape(n, BLOCK_SIZE) ^ rk[0]
    for r in range(1, NUM_ROUNDS):
        rows = s.take(perm, axis=1).reshape(n, 4, 4)
        cols = t0[rows[:, 0]] ^ t1[rows[:, 1]] ^ t2[rows[:, 2]] ^ t3[rows[:, 3]]
        s = cols.view(np.uint8).reshape(n, BLOCK_SIZE) ^ rk[r]
    last = box[s.take(perm, axis=1)].reshape(n, 4, 4).transpose(0, 2, 1)
    return (last.reshape(n, BLOCK_SIZE) ^ rk[NUM_ROUNDS]).tobytes()


def encrypt_ecb(data: bytes, schedule: KeySchedule) -> bytes:
    """Encrypt a block-aligned buffer in ECB, all blocks in lockstep;
    bit-identical to mapping encrypt_block over it."""
    return _ecb(data, schedule.enc_words, backward=False)


def decrypt_ecb(data: bytes, schedule: KeySchedule) -> bytes:
    """Decrypt a block-aligned buffer in ECB, all blocks in lockstep;
    bit-identical to mapping decrypt_block over it."""
    return _ecb(data, schedule.dec_words, backward=True)
