"""AES-128 block cipher built from first principles.

No crypto libraries: GF(2^8) arithmetic on log/antilog tables of the
generator 3, from which the S-box (the field inverse and the affine map of
FIPS-197 section 5.1.1) and the round tables are computed at import,
Rijndael key expansion, and one cipher core in two shapes that share a key
schedule:

- `encrypt_block`/`decrypt_block` take one 16-byte block and run one round
  function on four 32-bit column words, each round four T-table lookups
  per column (Daemen & Rijmen, *The Design of Rijndael*, section 4.2).
  Decryption is the equivalent inverse cipher (FIPS-197 section 5.3.5):
  with the state's columns 1 and 3 exchanged it is the encryption round
  code with the inverse tables and pre-mixed round keys.
- The multi-lane kernel runs the same rounds on an (n, 16) uint8 numpy array
  of states, all lanes in lockstep. `encrypt_ecb`/`decrypt_ecb` wrap it for
  block-aligned bytes; `encrypt_lanes` takes and returns the array, so a
  caller stepping many CBC-MAC chains keeps them in numpy between steps.
  numpy is imported on the kernel's first call, so a program that never
  takes this path never loads it; `lanes_loaded` tells whether a call would
  have to import it first.

A block is read as four big-endian column words: input byte i sits at row
i % 4 of column i // 4. The tables are indexed by secret bytes, so the
cipher leaks through cache timing; constant-time hardening is a non-goal.
"""

import struct
import sys
from collections import namedtuple

BLOCK_SIZE = 16
KEY_SIZE = 16
NUM_ROUNDS = 10

# GF(2^8) reduction polynomial x^8 + x^4 + x^3 + x + 1
_POLY = 0x11B

# Powers of the generator 3 and their logarithms: _EXP[i] = 3^i, written
# out twice so that _EXP[_LOG[a] + _LOG[b]] needs no reduction mod 255.
_EXP = [0] * 510
_LOG = [0] * 256
_x = 1
for _i in range(255):
    _EXP[_i] = _EXP[_i + 255] = _x
    _LOG[_x] = _i
    _x ^= _x << 1  # times 3 = times 2 (xtime, FIPS-197 section 4.2.1) plus 1
    if _x & 0x100:
        _x ^= _POLY


def gf_mul(a: int, b: int) -> int:
    """Multiply two field elements as 3^(log a + log b)."""
    if a and b:
        return _EXP[_LOG[a] + _LOG[b]]
    return 0


def _build_sbox() -> list:
    """The multiplicative inverse 3^(255 - log a) (0 for 0), then the affine
    transform over GF(2) (FIPS-197 section 5.1.1): the inverse XOR its
    left rotations by 1..4 bits, XOR 0x63."""
    box = []
    for a in range(256):
        x = _EXP[255 - _LOG[a]] if a else 0
        rotations = x << 1 ^ x << 2 ^ x << 3 ^ x << 4
        box.append((x ^ rotations ^ rotations >> 8 ^ 0x63) & 0xFF)
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


def _round_tables(box: list, mix: tuple) -> tuple:
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


class KeySchedule(namedtuple("KeySchedule", "enc_words dec_words")):
    """An AES-128 key expanded once for both directions.

    `enc_words` are the 44 words of the key expansion. `dec_words` are the
    44 round-key words of the equivalent inverse cipher, in the order
    decryption uses them, with InvMixColumns applied to rounds 1..9 and
    words 1 and 3 of every round exchanged (see `decrypt_block`).
    """

    __slots__ = ()

    def __repr__(self) -> str:  # enc_words[0:4] is the key itself
        return "KeySchedule(<redacted>)"


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


def _rounds(s0: int, s1: int, s2: int, s3: int, rk: tuple, tables: tuple, box: list) -> tuple:
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


def lanes_loaded() -> bool:
    """Whether the kernel can run without paying for the numpy import."""
    return _LANES is not None or "numpy" in sys.modules


def _lane_rounds(s, words: tuple, backward: bool):
    """The rounds of one direction on an (n, 16) uint8 array of states, all
    lanes at once; returns a new array of the same shape."""
    np, enc, dec = _lanes()
    box, perm, (t0, t1, t2, t3), key_order = dec if backward else enc
    n = len(s)
    rk = np.array(words, dtype=">u4")[key_order].view(np.uint8).reshape(NUM_ROUNDS + 1, BLOCK_SIZE)
    s = s ^ rk[0]
    for r in range(1, NUM_ROUNDS):
        rows = s.take(perm, axis=1).reshape(n, 4, 4)
        cols = t0[rows[:, 0]] ^ t1[rows[:, 1]] ^ t2[rows[:, 2]] ^ t3[rows[:, 3]]
        s = cols.view(np.uint8).reshape(n, BLOCK_SIZE) ^ rk[r]
    last = box[s.take(perm, axis=1)].reshape(n, 4, 4).transpose(0, 2, 1)
    return last.reshape(n, BLOCK_SIZE) ^ rk[NUM_ROUNDS]


def _ecb(data: bytes, words: tuple, backward: bool) -> bytes:
    if len(data) % BLOCK_SIZE != 0:
        raise ValueError("data length must be a multiple of 16")
    np = _lanes()[0]
    states = np.frombuffer(data, dtype=np.uint8).reshape(-1, BLOCK_SIZE)
    return _lane_rounds(states, words, backward).tobytes()


def encrypt_lanes(states, schedule: KeySchedule):
    """Encrypt an (n, 16) uint8 array of states, one block per lane, so a
    caller that chains blocks keeps its states in numpy between calls."""
    return _lane_rounds(states, schedule.enc_words, backward=False)


def encrypt_ecb(data: bytes, schedule: KeySchedule) -> bytes:
    """Encrypt a block-aligned buffer in ECB, all blocks in lockstep;
    bit-identical to mapping encrypt_block over it."""
    return _ecb(data, schedule.enc_words, backward=False)


def decrypt_ecb(data: bytes, schedule: KeySchedule) -> bytes:
    """Decrypt a block-aligned buffer in ECB, all blocks in lockstep;
    bit-identical to mapping decrypt_block over it."""
    return _ecb(data, schedule.dec_words, backward=True)
