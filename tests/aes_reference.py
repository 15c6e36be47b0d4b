"""Reference AES-128 built from the four FIPS-197 round transforms.

The straightforward form of the cipher, one 16-item state list per step:
SubBytes, ShiftRows, MixColumns and AddRoundKey and their inverses. The
tests check the table-driven cipher in `cmt.aes_core` against it, and it
against published vectors. Only the S-boxes and the key expansion come
from `aes_core`; both are checked against independent oracles in the tests.

The 16-byte block is the usual 4x4 column-major state: input byte i sits
at row (i % 4), column (i // 4), so a flat list in input order is already
column-major.
"""

from typing import List, Sequence

from cmt.aes_core import INV_SBOX, NUM_ROUNDS, SBOX, KeySchedule, gf_mul

State = List[int]  # 16 bytes, column-major

MUL2 = [gf_mul(x, 0x02) for x in range(256)]
MUL3 = [gf_mul(x, 0x03) for x in range(256)]
MUL9 = [gf_mul(x, 0x09) for x in range(256)]
MUL11 = [gf_mul(x, 0x0B) for x in range(256)]
MUL13 = [gf_mul(x, 0x0D) for x in range(256)]
MUL14 = [gf_mul(x, 0x0E) for x in range(256)]


def sub_bytes(state: Sequence[int]) -> State:
    return [SBOX[b] for b in state]


def inv_sub_bytes(state: Sequence[int]) -> State:
    return [INV_SBOX[b] for b in state]


def shift_rows(state: Sequence[int]) -> State:
    # row r rotates left by r; flat index 4*c + r
    out = [0] * 16
    for r in range(4):
        for c in range(4):
            out[4 * c + r] = state[4 * ((c + r) % 4) + r]
    return out


def inv_shift_rows(state: Sequence[int]) -> State:
    out = [0] * 16
    for r in range(4):
        for c in range(4):
            out[4 * ((c + r) % 4) + r] = state[4 * c + r]
    return out


def mix_columns(state: Sequence[int]) -> State:
    out = [0] * 16
    for c in range(4):
        i = 4 * c
        a0, a1, a2, a3 = state[i], state[i + 1], state[i + 2], state[i + 3]
        out[i] = MUL2[a0] ^ MUL3[a1] ^ a2 ^ a3
        out[i + 1] = a0 ^ MUL2[a1] ^ MUL3[a2] ^ a3
        out[i + 2] = a0 ^ a1 ^ MUL2[a2] ^ MUL3[a3]
        out[i + 3] = MUL3[a0] ^ a1 ^ a2 ^ MUL2[a3]
    return out


def inv_mix_columns(state: Sequence[int]) -> State:
    out = [0] * 16
    for c in range(4):
        i = 4 * c
        a0, a1, a2, a3 = state[i], state[i + 1], state[i + 2], state[i + 3]
        out[i] = MUL14[a0] ^ MUL11[a1] ^ MUL13[a2] ^ MUL9[a3]
        out[i + 1] = MUL9[a0] ^ MUL14[a1] ^ MUL11[a2] ^ MUL13[a3]
        out[i + 2] = MUL13[a0] ^ MUL9[a1] ^ MUL14[a2] ^ MUL11[a3]
        out[i + 3] = MUL11[a0] ^ MUL13[a1] ^ MUL9[a2] ^ MUL14[a3]
    return out


def add_round_key(state: Sequence[int], round_key: bytes) -> State:
    if len(round_key) != 16:
        raise ValueError("round key must be 16 bytes")
    return [b ^ k for b, k in zip(state, round_key)]


def _round_keys(schedule: KeySchedule) -> List[bytes]:
    # the 11 round keys as 16-byte blocks, each 128-bit int read big-endian
    return [k.to_bytes(16, "big") for k in schedule.enc_keys]


def key_of(schedule: KeySchedule) -> bytes:
    """The key `schedule` was expanded from: its round key 0 (FIPS-197
    section 5.2)."""
    return schedule.enc_keys[0].to_bytes(16, "big")


def encrypt_block(block: bytes, schedule: KeySchedule) -> bytes:
    """Initial key add, 9 full rounds, final round without MixColumns."""
    round_keys = _round_keys(schedule)
    s = add_round_key(list(block), round_keys[0])
    for r in range(1, NUM_ROUNDS):
        s = add_round_key(mix_columns(shift_rows(sub_bytes(s))), round_keys[r])
    s = add_round_key(shift_rows(sub_bytes(s)), round_keys[NUM_ROUNDS])
    return bytes(s)


def decrypt_block(block: bytes, schedule: KeySchedule) -> bytes:
    """The inverse cipher: round keys applied in reverse."""
    round_keys = _round_keys(schedule)
    s = inv_sub_bytes(inv_shift_rows(add_round_key(list(block), round_keys[NUM_ROUNDS])))
    for r in range(NUM_ROUNDS - 1, 0, -1):
        s = inv_sub_bytes(inv_shift_rows(inv_mix_columns(add_round_key(s, round_keys[r]))))
    return bytes(add_round_key(s, round_keys[0]))
