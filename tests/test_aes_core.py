"""Cipher tests: independent oracles, published vectors, structural properties.

The oracles here deliberately avoid the implementation's own code paths:
GF(2^8) multiplication is done with plain integer polynomial arithmetic,
the S-box is rebuilt from a brute-force inverse search, and block
encryption is cross-checked against the `cryptography` library. The round
transforms are tested in `aes_reference`, the step-by-step cipher that the
table-driven one in `aes_core` is then checked against.
"""

import importlib
import os
import random
import subprocess
import sys

import pytest
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes
from hypothesis import given, settings
from hypothesis import strategies as st

import aes_reference
from cmt import aes_core


# --- independent oracles -------------------------------------------------

def gf_mul_oracle(a: int, b: int) -> int:
    """Carry-less polynomial multiply over the integers, then reduce mod 0x11B."""
    product = 0
    for bit in range(8):
        if b & (1 << bit):
            product ^= a << bit
    for bit in range(product.bit_length() - 1, 7, -1):
        if product & (1 << bit):
            product ^= 0x11B << (bit - 8)
    return product


def sbox_oracle(a: int) -> int:
    """Brute-force field inverse, then the standard affine transform."""
    inv = 0
    if a != 0:
        inv = next(x for x in range(1, 256) if gf_mul_oracle(a, x) == 1)
    out = 0
    for i in range(8):
        bit = (
            (inv >> i)
            ^ (inv >> ((i + 4) % 8))
            ^ (inv >> ((i + 5) % 8))
            ^ (inv >> ((i + 6) % 8))
            ^ (inv >> ((i + 7) % 8))
            ^ (0x63 >> i)
        ) & 1
        out |= bit << i
    return out


def round_keys_oracle(key: bytes) -> list:
    """FIPS-197 section 5.2 on bytes: w[i] = w[i-4] ^ w[i-1], the latter
    rotated, substituted by the oracle S-box and XORed with Rcon when i is
    a multiple of 4. Returns the 11 round keys as 16-byte blocks."""
    words = [list(key[i : i + 4]) for i in range(0, 16, 4)]
    rcon = 1
    for i in range(4, 44):
        temp = list(words[i - 1])
        if i % 4 == 0:
            temp = [sbox_oracle(b) for b in temp[1:] + temp[:1]]
            temp[0] ^= rcon
            rcon = gf_mul_oracle(rcon, 2)
        words.append([a ^ b for a, b in zip(words[i - 4], temp)])
    return [bytes(sum(words[4 * r : 4 * r + 4], [])) for r in range(11)]


def aes_library_encrypt(key: bytes, block: bytes) -> bytes:
    enc = Cipher(algorithms.AES(key), modes.ECB()).encryptor()
    return enc.update(block) + enc.finalize()


def aes_library_decrypt(key: bytes, block: bytes) -> bytes:
    dec = Cipher(algorithms.AES(key), modes.ECB()).decryptor()
    return dec.update(block) + dec.finalize()


# --- GF(2^8) -------------------------------------------------------------

def test_gf_mul_identity():
    for a in range(256):
        assert aes_core.gf_mul(a, 0x01) == a


def test_gf_mul_worked_examples():
    # values verified with gf_mul_oracle; published in the AES standard
    assert gf_mul_oracle(0x57, 0x83) == 0xC1
    assert gf_mul_oracle(0x57, 0x13) == 0xFE
    assert aes_core.gf_mul(0x57, 0x83) == 0xC1
    assert aes_core.gf_mul(0x57, 0x13) == 0xFE


def test_gf_mul_matches_oracle_exhaustive_sample():
    rnd = os.urandom(2000)
    for i in range(0, len(rnd), 2):
        a, b = rnd[i], rnd[i + 1]
        assert aes_core.gf_mul(a, b) == gf_mul_oracle(a, b)


def test_gf_mul_distributes_over_xor():
    rnd = os.urandom(300)
    for i in range(0, len(rnd), 3):
        a, b, c = rnd[i], rnd[i + 1], rnd[i + 2]
        assert aes_core.gf_mul(a, b ^ c) == aes_core.gf_mul(a, b) ^ aes_core.gf_mul(a, c)


# --- S-box ---------------------------------------------------------------

def test_sbox_matches_oracle_exhaustively():
    for a in range(256):
        assert aes_core.SBOX[a] == sbox_oracle(a)


def test_sbox_is_permutation_with_exact_inverse():
    assert sorted(aes_core.SBOX) == list(range(256))
    for a in range(256):
        assert aes_core.INV_SBOX[aes_core.SBOX[a]] == a


def test_sbox_spot_values():
    assert aes_core.SBOX[0x00] == 0x63
    assert aes_core.SBOX[0x53] == 0xED


def test_gf_mul_matches_oracle_on_every_pair():
    # gf_mul builds the round tables, so every product is checked
    for a in range(256):
        assert [aes_core.gf_mul(a, b) for b in range(256)] == [gf_mul_oracle(a, b) for b in range(256)]


# (Inv)MixColumns as printed in FIPS-197 sections 5.1.3 and 5.3.3
MIX_MATRIX = ((0x02, 0x03, 0x01, 0x01), (0x01, 0x02, 0x03, 0x01),
              (0x01, 0x01, 0x02, 0x03), (0x03, 0x01, 0x01, 0x02))
INV_MIX_MATRIX = ((0x0E, 0x0B, 0x0D, 0x09), (0x09, 0x0E, 0x0B, 0x0D),
                  (0x0D, 0x09, 0x0E, 0x0B), (0x0B, 0x0D, 0x09, 0x0E))


def oracle_round_tables(box, matrix):
    """Table r maps byte x in row r to the column word box[x] adds after the
    mix: row i of that word is matrix[i][r] * box[x]."""
    return tuple(
        [
            sum(gf_mul_oracle(matrix[i][r], box[x]) << (24 - 8 * i) for i in range(4))
            for x in range(256)
        ]
        for r in range(4)
    )


def test_round_tables_match_oracle_tables():
    sbox = [sbox_oracle(a) for a in range(256)]
    inv_sbox = [sbox.index(a) for a in range(256)]
    assert aes_core.INV_SBOX == inv_sbox
    assert tuple(map(list, aes_core._TE)) == oracle_round_tables(sbox, MIX_MATRIX)
    assert tuple(map(list, aes_core._TD)) == oracle_round_tables(inv_sbox, INV_MIX_MATRIX)


def test_placed_tables_match_oracle_tables():
    # table i holds the oracle word of byte i's row r = i % 4, moved to the
    # column that ShiftRows (FIPS-197 section 5.1.2) sends byte i to; column
    # c is bits 96 - 32c and up of the 128-bit state
    sbox = [sbox_oracle(a) for a in range(256)]
    # a buffer of PLACED_MIN_BLOCKS blocks builds the tables
    ks = aes_core.expand_key(bytes(16))
    aes_core.encrypt_cbc(bytes(16 * aes_core.PLACED_MIN_BLOCKS), ks, bytes(16))
    placed, tables = aes_core._PLACED_ENC, oracle_round_tables(sbox, MIX_MATRIX)
    sources = aes_reference.shift_rows(list(range(16)))  # output position -> input byte
    assert len(placed) == 16
    for i, table in enumerate(placed):
        column = sources.index(i) // 4
        assert table == [w << (96 - 32 * column) for w in tables[i % 4]]


def test_sub_bytes_all_zero_state():
    assert aes_reference.sub_bytes([0] * 16) == [0x63] * 16


def test_sub_bytes_round_trip_random():
    for _ in range(100):
        s = list(os.urandom(16))
        assert aes_reference.inv_sub_bytes(aes_reference.sub_bytes(s)) == s


# --- ShiftRows -----------------------------------------------------------

def test_shift_rows_constant_rows_fixed_point():
    # state with every row constant: flat index 4c+r -> value r
    s = [i % 4 for i in range(16)]
    assert aes_reference.shift_rows(s) == s


def test_shift_rows_row_rotations():
    s = list(range(16))
    out = aes_reference.shift_rows(s)
    row1 = [out[4 * c + 1] for c in range(4)]
    row3 = [out[4 * c + 3] for c in range(4)]
    assert row1 == [5, 9, 13, 1]  # [a,b,c,d] -> [b,c,d,a]
    assert row3 == [15, 3, 7, 11]  # [a,b,c,d] -> [d,a,b,c]
    assert [out[4 * c] for c in range(4)] == [0, 4, 8, 12]  # row 0 unchanged


def test_shift_rows_round_trip_random():
    for _ in range(100):
        s = list(os.urandom(16))
        assert aes_reference.inv_shift_rows(aes_reference.shift_rows(s)) == s


# --- MixColumns ----------------------------------------------------------

def mix_column_oracle(col):
    """Brute-force matrix multiply with the oracle field arithmetic."""
    matrix = [
        [2, 3, 1, 1],
        [1, 2, 3, 1],
        [1, 1, 2, 3],
        [3, 1, 1, 2],
    ]
    out = []
    for row in matrix:
        acc = 0
        for coeff, val in zip(row, col):
            acc ^= gf_mul_oracle(coeff, val)
        out.append(acc)
    return out


def test_mix_columns_worked_column():
    # frozen from mix_column_oracle; also the standard's worked example
    assert mix_column_oracle([0xDB, 0x13, 0x53, 0x45]) == [0x8E, 0x4D, 0xA1, 0xBC]
    s = [0xDB, 0x13, 0x53, 0x45] + [0] * 12
    assert aes_reference.mix_columns(s)[:4] == [0x8E, 0x4D, 0xA1, 0xBC]


def test_mix_columns_matches_oracle_random():
    for _ in range(50):
        s = list(os.urandom(16))
        expected = []
        for c in range(4):
            expected += mix_column_oracle(s[4 * c : 4 * c + 4])
        assert aes_reference.mix_columns(s) == expected


def test_mix_columns_is_linear():
    for _ in range(100):
        a, b = list(os.urandom(16)), list(os.urandom(16))
        xored = [x ^ y for x, y in zip(a, b)]
        lhs = aes_reference.mix_columns(xored)
        rhs = [x ^ y for x, y in zip(aes_reference.mix_columns(a), aes_reference.mix_columns(b))]
        assert lhs == rhs


def test_mix_columns_zero_column():
    assert aes_reference.mix_columns([0] * 16) == [0] * 16


def test_mix_columns_round_trip_random():
    for _ in range(100):
        s = list(os.urandom(16))
        assert aes_reference.inv_mix_columns(aes_reference.mix_columns(s)) == s


# --- AddRoundKey ---------------------------------------------------------

def test_add_round_key_identity_and_involution():
    s = list(os.urandom(16))
    assert aes_reference.add_round_key(s, bytes(16)) == s
    rk = os.urandom(16)
    assert aes_reference.add_round_key(aes_reference.add_round_key(s, rk), rk) == s
    assert aes_reference.add_round_key([0xFF] * 16, b"\xff" * 16) == [0] * 16


# --- key expansion -------------------------------------------------------

def test_expand_key_appendix_example():
    key = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
    ks = aes_core.expand_key(key)
    assert ks.enc_keys[0].to_bytes(16, "big") == key
    assert (ks.enc_keys[1] >> 96).to_bytes(4, "big") == bytes.fromhex("a0fafe17")


def test_expand_key_all_zero_key():
    # SubWord(RotWord(0)) ^ Rcon[1] = 63636363 ^ 01000000
    ks = aes_core.expand_key(bytes(16))
    assert (ks.enc_keys[1] >> 96).to_bytes(4, "big") == bytes.fromhex("62636363")


def test_expand_key_structure():
    for _ in range(20):
        key = os.urandom(16)
        ks = aes_core.expand_key(key)
        # 11 round keys of 16 bytes: 44 words of 32 bits
        assert len(ks.enc_keys) == 11
        assert all(0 <= k < 2**128 for k in ks.enc_keys)
        assert ks.enc_keys[0].to_bytes(16, "big") == key


def test_round_keys_of_both_directions():
    # enc_keys are the expansion's words four at a time; dec_keys run them
    # backwards with InvMixColumns (the reference's) on rounds 1..9
    for _ in range(20):
        key = os.urandom(16)
        ks = aes_core.expand_key(key)
        round_keys = round_keys_oracle(key)
        assert ks.enc_keys == tuple(int.from_bytes(k, "big") for k in round_keys)
        mixed = [bytes(aes_reference.inv_mix_columns(list(k))) for k in round_keys]
        inverse = [round_keys[10]] + mixed[9:0:-1] + [round_keys[0]]
        assert ks.dec_keys == tuple(int.from_bytes(k, "big") for k in inverse)


def test_expand_key_rejects_bad_length():
    with pytest.raises(ValueError):
        aes_core.expand_key(b"short")


# --- block encryption ----------------------------------------------------

def test_encrypt_block_cipher_example_kat():
    key = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
    pt = bytes.fromhex("3243f6a8885a308d313198a2e0370734")
    ct = bytes.fromhex("3925841d02dc09fbdc118597196a0b32")
    ks = aes_core.expand_key(key)
    assert aes_core.encrypt_block(pt, ks) == ct
    assert aes_core.decrypt_block(ct, ks) == pt


def test_encrypt_block_example_vectors_kat():
    key = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
    pt = bytes.fromhex("00112233445566778899aabbccddeeff")
    ct = bytes.fromhex("69c4e0d86a7b0430d8cdb78070b4c55a")
    ks = aes_core.expand_key(key)
    assert aes_core.encrypt_block(pt, ks) == ct
    assert aes_core.decrypt_block(ct, ks) == pt


def test_encrypt_block_matches_library_reference():
    for _ in range(200):
        key, block = os.urandom(16), os.urandom(16)
        ks = aes_core.expand_key(key)
        assert aes_core.encrypt_block(block, ks) == aes_library_encrypt(key, block)


def test_reference_cipher_matches_library():
    for _ in range(50):
        key, block = os.urandom(16), os.urandom(16)
        ks = aes_core.expand_key(key)
        ct = aes_library_encrypt(key, block)
        assert aes_reference.encrypt_block(block, ks) == ct
        assert aes_reference.decrypt_block(ct, ks) == block


def test_table_cipher_matches_reference_and_library():
    for _ in range(200):
        key, block = os.urandom(16), os.urandom(16)
        ks = aes_core.expand_key(key)
        expected_ct = aes_reference.encrypt_block(block, ks)
        assert aes_core.encrypt_block(block, ks) == expected_ct
        assert aes_core.decrypt_block(block, ks) == aes_reference.decrypt_block(block, ks)
        assert aes_core.decrypt_block(block, ks) == aes_library_decrypt(key, block)


@pytest.mark.parametrize("placed_min_blocks", [1, 10**9])  # placed or row tables only
def test_encrypt_cbc_matches_library_under_random_ivs(placed_min_blocks, monkeypatch):
    # a random IV: non-zero but with probability 2^-128
    monkeypatch.setattr(aes_core, "PLACED_MIN_BLOCKS", placed_min_blocks)
    for blocks in range(1, 41):
        key, iv, data = os.urandom(16), os.urandom(16), os.urandom(16 * blocks)
        ks = aes_core.expand_key(key)
        enc = Cipher(algorithms.AES(key), modes.CBC(iv)).encryptor()
        ct = enc.update(data) + enc.finalize()
        assert aes_core.encrypt_cbc(data, ks, iv) == ct
        dec = Cipher(algorithms.AES(key), modes.ECB()).decryptor()
        assert aes_core.decrypt_blocks(ct, ks) == dec.update(ct) + dec.finalize()


_PLACED_BOUNDARY = """
import os
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes
from cmt import aes_core

key, iv = os.urandom(16), os.urandom(16)
ks = aes_core.expand_key(key)
steps = [aes_core._PLACED_ENC is not None]
for encrypt in {order}:
    for blocks in (63, 64, 65):
        data = os.urandom(16 * blocks)
        cipher = Cipher(algorithms.AES(key), modes.CBC(iv))
        context = cipher.encryptor() if encrypt else cipher.decryptor()
        expected = context.update(data) + context.finalize()
        for _ in range(2):  # the first encryption of 64 blocks or more builds the tables
            if encrypt:
                out = aes_core.encrypt_cbc(data, ks, iv)
            else:
                out = aes_core.decrypt_cbc([iv + data], ks)[0]
            assert out == expected, (encrypt, blocks)
        steps.append(aes_core._PLACED_ENC is not None)
print(steps)
"""


@pytest.mark.parametrize("order", [(True, False), (False, True)], ids=["encrypt_first", "decrypt_first"])
def test_cbc_around_the_placed_boundary_matches_the_library_in_a_fresh_process(order):
    # 63 blocks run on the row tables; the first encryption of 64 builds the
    # placed tables, and every call after it reuses them. Decryption, on
    # the packed rounds at these lengths, never builds them.
    script = _PLACED_BOUNDARY.format(order=order)
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    steps, built = [False], False
    for encrypt in order:
        for blocks in (63, 64, 65):
            built |= encrypt and blocks >= 64
            steps.append(built)
    assert result.stdout.splitlines()[-1] == str(steps)


def test_block_functions_reject_bad_length():
    ks = aes_core.expand_key(os.urandom(16))
    for bad in (b"", os.urandom(15), os.urandom(17)):
        with pytest.raises(ValueError):
            aes_core.encrypt_block(bad, ks)
        with pytest.raises(ValueError):
            aes_core.decrypt_block(bad, ks)


def test_block_round_trip_random():
    for _ in range(500):
        key, block = os.urandom(16), os.urandom(16)
        ks = aes_core.expand_key(key)
        assert aes_core.decrypt_block(aes_core.encrypt_block(block, ks), ks) == block
        assert aes_core.encrypt_block(aes_core.decrypt_block(block, ks), ks) == block


# --- bulk ECB path -------------------------------------------------------

def test_encrypt_ecb_matches_scalar():
    key = os.urandom(16)
    ks = aes_core.expand_key(key)
    data = os.urandom(16 * 100)
    scalar = b"".join(
        aes_core.encrypt_block(data[i : i + 16], ks) for i in range(0, len(data), 16)
    )
    assert aes_core.encrypt_ecb(data, ks) == scalar


def test_decrypt_cbc_on_the_lanes_matches_scalar():
    # each plaintext block is the one-block decryption of its ciphertext
    # block XORed with the block before it
    ks = aes_core.expand_key(os.urandom(16))
    for blocks in (1, 2, 7, 100):
        message = os.urandom(16 * (blocks + 1))  # IV || ciphertext
        scalar = bytes(
            a ^ b
            for i in range(16, len(message), 16)
            for a, b in zip(aes_core.decrypt_block(message[i : i + 16], ks), message[i - 16 : i])
        )
        plain = aes_core.decrypt_cbc([message], ks, True)
        assert plain == [scalar]
        assert aes_core.encrypt_cbc(plain[0], ks, message[:16]) == message[16:]


def test_chain_matches_kernel():
    ks = aes_core.expand_key(os.urandom(16))
    for blocks in (1, 2, 9, 257):
        data = os.urandom(16 * blocks)
        message = os.urandom(16) + data
        assert aes_core.decrypt_cbc([message], ks) == aes_core.decrypt_cbc([message], ks, True)
        # CBC under a zero IV of blocks XORed with the ECB ciphertext block
        # before them is that ECB ciphertext
        ct = aes_core.encrypt_ecb(data, ks)
        chained = bytes(a ^ b for a, b in zip(data, bytes(16) + ct))
        assert aes_core.encrypt_cbc(chained, ks, bytes(16)) == ct


def test_encrypt_ecb_rejects_misaligned():
    ks = aes_core.expand_key(os.urandom(16))
    with pytest.raises(ValueError):
        aes_core.encrypt_ecb(b"123", ks)
    with pytest.raises(ValueError):
        aes_core.decrypt_cbc([os.urandom(16) + b"123"], ks, True)


# --- the kernel's byte-sliced states ----------------------------------------
# The kernel holds its states as a (16, n) array, byte position by lane, and
# transposes at its edges: a swapped axis would still give the right answer
# at one block, or wherever n happens to equal 16 or 4, so these cover sizes
# around those.

@pytest.mark.parametrize("blocks", [0, 1, 3, 4, 5, 16, 17, 63, 64, 300, 4097])
def test_ecb_matches_the_library_and_the_chain(blocks):
    # a message of 0 blocks is only an IV, and decrypts to nothing
    key = os.urandom(16)
    ks = aes_core.expand_key(key)
    data = os.urandom(16 * blocks)
    assert aes_core.encrypt_ecb(data, ks) == aes_library_encrypt(key, data)
    message = os.urandom(16) + data
    plain = aes_core.decrypt_cbc([message], ks, True)
    assert plain == [library_cbc_decrypt(key, message)] == aes_core.decrypt_cbc([message], ks)


def test_decrypt_cbc_on_the_lanes_splits_anywhere():
    # a message cut at a block boundary is two messages, the second with the
    # last block of the first as its IV; a batch is its messages one by one
    ks = aes_core.expand_key(os.urandom(16))
    a, b = os.urandom(16 * 5), os.urandom(16 * 12)
    whole = aes_core.decrypt_cbc([a + b], ks, True)[0]
    assert whole == b"".join(aes_core.decrypt_cbc([a, a[-16:] + b], ks, True))
    assert aes_core.decrypt_cbc([a, b], ks, True) == (
        aes_core.decrypt_cbc([a], ks, True) + aes_core.decrypt_cbc([b], ks, True))
    assert aes_core.encrypt_ecb(b + a, ks) == aes_core.encrypt_ecb(b, ks) + aes_core.encrypt_ecb(a, ks)


@pytest.mark.parametrize(
    "sizes",
    [
        [6, 2, 2, 2, 9, 2, 4, 4, 1, 4],  # ten lanes take one step together
        [5] * 12,  # every lane ends at the last step
        [3],
        [1 + i % 7 for i in range(300)],
        # five steps: a lane ends at each of the first four and one at the
        # last, and nine messages outlast the lanes
        list(range(1, 13)) + [40, 41],
    ],
    ids=["lanes_end_together", "equal_lengths", "one_message", "300_messages", "lanes_end_each_step"],
)
def test_cbc_macs_on_the_lanes_match_the_chain(sizes):
    key = os.urandom(16)
    ks = aes_core.expand_key(key)
    messages = [os.urandom(16 * n) for n in sizes]
    tags = aes_core.cbc_macs(messages, ks, True)
    assert tags == aes_core.cbc_macs(messages, ks)
    assert tags == [library_cbc_mac(key, m) for m in messages]


def library_cbc_mac(key: bytes, message: bytes) -> bytes:
    enc = Cipher(algorithms.AES(key), modes.CBC(bytes(16))).encryptor()
    return (enc.update(message) + enc.finalize())[-16:]


def library_cbc_decrypt(key: bytes, message: bytes) -> bytes:
    dec = Cipher(algorithms.AES(key), modes.CBC(message[:16])).decryptor()
    return dec.update(message[16:]) + dec.finalize()


@given(
    st.lists(st.integers(1, 20), max_size=40),
    st.integers(0, 40),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=30, deadline=None)
def test_batches_on_the_lanes_match_the_chain_and_the_library(sizes, at, seed):
    # lanes end before, at and after the last packed step, or none run
    # (fewer than PACKED_MIN_LANES messages); the longest message also puts
    # the chain on the placed tables
    rng = random.Random(seed)
    key = rng.randbytes(16)
    ks = aes_core.expand_key(key)
    sizes.insert(at, aes_core.PLACED_MIN_BLOCKS)
    messages = [rng.randbytes(16 * n) for n in sizes]
    macs = [library_cbc_mac(key, m) for m in messages]
    assert aes_core.cbc_macs(messages, ks, True) == aes_core.cbc_macs(messages, ks) == macs
    plains = [library_cbc_decrypt(key, m) for m in messages]
    assert aes_core.decrypt_cbc(messages, ks, True) == aes_core.decrypt_cbc(messages, ks) == plains


# --- the packed rounds -------------------------------------------------------
# n lanes packed lane-major into one int: a lane's bytes in the wrong order,
# or a mask that reaches into the next lane, still gives the right answer at
# one lane, so these cover every width up to past the kernel's.

WIDTHS = range(1, aes_core.KERNEL_MIN_LANES + 3)


@pytest.mark.parametrize("n", WIDTHS)
@given(st.binary(min_size=16, max_size=16), st.randoms(use_true_random=False))
@settings(max_examples=3, deadline=None)
def test_packed_rounds_match_the_library_and_the_chain(n, key, rng):
    ks = aes_core.expand_key(key)
    data = rng.randbytes(16 * n)
    x = int.from_bytes(data)
    # the keys spread across the n lanes, as every caller hands them over
    encrypted = aes_core._packed_rounds(x, n, aes_core._spread(ks.enc_keys, n), False).to_bytes(16 * n)
    assert encrypted == aes_library_encrypt(key, data)
    assert encrypted == b"".join(
        aes_core.encrypt_block(data[i : i + 16], ks) for i in range(0, len(data), 16))
    decrypted = aes_core._packed_rounds(x, n, aes_core._spread(ks.dec_keys, n), True).to_bytes(16 * n)
    assert decrypted == aes_library_decrypt(key, data) == aes_core.decrypt_blocks(data, ks)
    # a one-message decryption of n blocks, on whichever engine n calls for
    message = rng.randbytes(16) + data
    plain = library_cbc_decrypt(key, message)
    assert aes_core.decrypt_cbc([message], ks, True) == aes_core.decrypt_cbc([message], ks) == [plain]


@given(
    st.permutations(range(1, aes_core.KERNEL_MIN_LANES + 4)),
    st.lists(st.integers(1, 80), max_size=6),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=8, deadline=None)
def test_batches_across_both_handovers_match_the_library(sizes, extra, seed):
    # one chain ends at every step: the kernel steps while KERNEL_MIN_LANES
    # or more run, the packed rounds while PACKED_MIN_LANES or more do, and
    # the chain finishes the rest; `extra` chains end anywhere
    rng = random.Random(seed)
    key = rng.randbytes(16)
    ks = aes_core.expand_key(key)
    messages = [rng.randbytes(16 * n) for n in sizes + extra]
    macs = [library_cbc_mac(key, m) for m in messages]
    assert aes_core.cbc_macs(messages, ks, True) == aes_core.cbc_macs(messages, ks) == macs
    # and every narrower batch of them, down to one below PACKED_MIN_LANES
    for width in range(aes_core.PACKED_MIN_LANES - 1, aes_core.KERNEL_MIN_LANES + 1, 7):
        assert aes_core.cbc_macs(messages[:width], ks, True) == macs[:width]
    plains = [library_cbc_decrypt(key, m) for m in messages]
    assert aes_core.decrypt_cbc(messages, ks, True) == aes_core.decrypt_cbc(messages, ks) == plains


_MASK_BOUND = """
import sys
from cmt import aes_core

ks = aes_core.expand_key(bytes(range(16)))
for n in [*range(2, 201), 5000]:
    plain = bytes(range(256)) * (n // 16) + bytes(16 * n % 256)
    cipher = aes_core.encrypt_cbc(plain, ks, bytes(16))
    assert aes_core.decrypt_cbc([bytes(16) + cipher], ks) == [plain], n
    if n <= 200:
        messages = [bytes([i]) * 32 for i in range(n)]
        macs = aes_core.cbc_macs(messages, ks)
        assert macs == [aes_core.encrypt_cbc(m, ks, bytes(16))[-16:] for m in messages], n


def held(sets):
    # each mask int once: both directions' constants hold row 0 and the
    # MixColumns masks, and `one` comes last
    ints = {id(m): m for masks in sets for m in (*masks[0], *masks[1], masks[2]) if isinstance(m, int)}
    return sum(map(sys.getsizeof, ints.values()))


*narrow, widest = sorted(aes_core._MASKS)
print("numpy" in sys.modules, len(narrow), max(narrow), widest, held(aes_core._MASKS.values()))
print(*aes_core._LAST_MASKS, held(aes_core._LAST_MASKS.values()))
"""


def test_packed_masks_stay_within_their_bound_before_numpy_loads():
    # widths 2-200 and one of 5,000 lanes in a fresh process, which never
    # loads numpy: only widths below KERNEL_MIN_LANES keep their masks, and
    # PACKED_MAX_LANES, the widest a packed call runs; of the widths
    # between, only the last one built
    result = subprocess.run([sys.executable, "-c", _MASK_BOUND], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    kept, last = result.stdout.splitlines()
    loaded, count, widest_narrow, widest, held = kept.split()
    assert loaded == "False"
    assert int(count) <= aes_core.KERNEL_MIN_LANES - 1
    assert int(widest_narrow) < aes_core.KERNEL_MIN_LANES
    assert int(widest) == aes_core.PACKED_MAX_LANES
    # at most 18 masks of 3-47 lanes, 0.36 MB, and 18 of PACKED_MAX_LANES lanes
    assert int(held) < 400_000 + 18 * (16 * aes_core.PACKED_MAX_LANES + 100)
    # the last other width: 5,000 blocks end in a chunk of 904 lanes
    last_width, last_held = map(int, last.split())
    assert aes_core.KERNEL_MIN_LANES <= last_width < aes_core.PACKED_MAX_LANES
    assert last_held < 18 * (16 * (aes_core.PACKED_MAX_LANES - 1) + 100)


CHUNK_WIDTHS = [
    k * aes_core.PACKED_MAX_LANES + r for k in (1, 2) for r in range(-1, aes_core.PACKED_MIN_LANES + 2)
]


@given(st.sampled_from(CHUNK_WIDTHS), st.integers(0, 2**32 - 1))
@settings(max_examples=12, deadline=None)
def test_chunked_packed_work_matches_the_library(width, seed):
    # decryptions of `width` blocks and MACs of `width` messages, one below
    # to PACKED_MIN_LANES + 1 past one and two multiples of PACKED_MAX_LANES:
    # a decryption's last chunk runs on the packed rounds however narrow,
    # and a last MAC group of fewer than PACKED_MIN_LANES lanes on the
    # chain, a wider one on the packed rounds
    rng = random.Random(seed)
    key = rng.randbytes(16)
    ks = aes_core.expand_key(key)
    one = rng.randbytes(16 * (width + 1))
    assert aes_core.decrypt_cbc([one], ks) == [library_cbc_decrypt(key, one)]
    cuts = sorted(rng.sample(range(1, width), rng.randrange(0, 30)))
    messages = [rng.randbytes(16 * (b - a + 1)) for a, b in zip([0, *cuts], [*cuts, width])]
    assert aes_core.decrypt_cbc(messages, ks) == [library_cbc_decrypt(key, m) for m in messages]
    messages = [rng.randbytes(16 * rng.randint(1, 4)) for _ in range(width)]
    assert aes_core.cbc_macs(messages, ks) == [library_cbc_mac(key, m) for m in messages]


def _spread_log(mp):
    """Spy on the packed rounds: returns a list with one entry per
    `_packed_macs` or `decrypt_cbc` call, the ("spread" or "run", width,
    keys) of each `_spread` and `_packed_rounds` call made in it."""
    log = []
    spread, packed_rounds = aes_core._spread, aes_core._packed_rounds

    def a_new_entry(f):
        return lambda *args: log.append([]) or f(*args)

    def spreading(keys, n):
        keys = spread(keys, n)
        log[-1].append(("spread", n, keys))
        return keys

    def running(x, n, keys, backward):
        log[-1].append(("run", n, keys))
        return packed_rounds(x, n, keys, backward)

    for name in ("_packed_macs", "decrypt_cbc"):
        mp.setattr(aes_core, name, a_new_entry(getattr(aes_core, name)))
    mp.setattr(aes_core, "_spread", spreading)
    mp.setattr(aes_core, "_packed_rounds", running)
    return log


@given(
    st.integers(0, aes_core.KERNEL_MIN_LANES + 8),
    st.lists(st.integers(1, 30), max_size=12),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=30, deadline=None)
def test_ragged_packed_batches_spread_their_keys_once_per_width(staircase, extra, lanes, seed):
    # with PACKED_MAX_LANES at 8, MACs run in groups of 8 lanes and
    # decryptions in chunks of 8 blocks. Chains of 1..staircase blocks end
    # one at every step, down past PACKED_MIN_LANES, and `extra` chains end
    # anywhere; from KERNEL_MIN_LANES messages on, `lanes` hands the MACs
    # from the kernel to the packed rounds. Every `_packed_macs` and
    # `decrypt_cbc` call spreads its keys once for each width it runs at,
    # and runs each width on those keys: a step or a chunk that spread them
    # again would fail it.
    rng = random.Random(seed)
    key = rng.randbytes(16)
    ks = aes_core.expand_key(key)
    sizes = [*range(1, staircase + 1), *extra]
    rng.shuffle(sizes)
    messages = [rng.randbytes(16 * n) for n in sizes]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(aes_core, "PACKED_MAX_LANES", 8)
        log = _spread_log(mp)
        macs = aes_core.cbc_macs(messages, ks, lanes)
        plains = aes_core.decrypt_cbc(messages, ks, lanes)
    assert macs == [library_cbc_mac(key, m) for m in messages]
    assert plains == [library_cbc_decrypt(key, m) for m in messages]
    for calls in log:
        spread = {n: keys for kind, n, keys in calls if kind == "spread"}
        assert len(spread) == sum(kind == "spread" for kind, _, _ in calls)
        ran = [(n, keys) for kind, n, keys in calls if kind == "run"]
        assert {n for n, _ in ran} == set(spread)
        assert all(keys is spread[n] for n, keys in ran)


_PACKED_MEMORY = """
import os
import tracemalloc
from cmt import aes_core

ks = aes_core.expand_key(bytes(16))
buf = os.urandom(4 << 20)  # one message: an IV and 262,143 blocks
tracemalloc.start()
aes_core.decrypt_cbc([buf], ks)
print(tracemalloc.get_traced_memory()[1] / len(buf))
"""


def test_a_wide_packed_decryption_allocates_a_small_multiple_of_its_input():
    # a fresh process without numpy loaded decrypts 4 MB on the packed
    # rounds in chunks of PACKED_MAX_LANES blocks: at its peak it holds the
    # ciphertext, the blocks before each, the decrypted chunks and their
    # join, 3.2 times the input (in one call it held 28.7 times)
    result = subprocess.run([sys.executable, "-c", _PACKED_MEMORY], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert float(result.stdout) < 4


def test_decrypt_cbc_of_no_messages_and_of_misaligned_ciphertext():
    ks = aes_core.expand_key(os.urandom(16))
    assert aes_core.decrypt_cbc([], ks) == aes_core.decrypt_cbc([], ks, True) == []
    for bad in ([os.urandom(17)], [os.urandom(32), os.urandom(47)]):
        for lanes in (False, True):
            with pytest.raises(ValueError):
                aes_core.decrypt_cbc(bad, ks, lanes)


@pytest.mark.parametrize("lanes", [False, True])
@pytest.mark.parametrize("at", ["first", "middle", "last"])
def test_decrypt_cbc_refuses_a_misaligned_message_anywhere(at, lanes):
    # every route refuses the odd message before it runs, wherever the odd
    # message is
    ks = aes_core.expand_key(os.urandom(16))
    messages = [os.urandom(16 * n) for n in (2, 3, 4)]
    bad = {"first": 0, "middle": 1, "last": 2}[at]
    messages[bad] += b"\x00"
    with pytest.raises(ValueError):
        aes_core.decrypt_cbc(messages, ks, lanes)
    messages[bad] = messages[bad][:15]  # shorter than an IV
    with pytest.raises(ValueError):
        aes_core.decrypt_cbc(messages, ks, lanes)


@pytest.mark.parametrize("lanes", [False, True])
@pytest.mark.parametrize("count", [1, 2, aes_core.PACKED_MIN_LANES, aes_core.KERNEL_MIN_LANES])
def test_cbc_macs_refuse_a_misaligned_message_anywhere(count, lanes):
    # on the chain, the packed rounds and the kernel alike: a message with
    # trailing bytes is refused, not tagged by its whole blocks. One or two
    # messages take the chain before the length scan, and encrypt_cbc
    # refuses the odd one with the scan's ValueError
    ks = aes_core.expand_key(os.urandom(16))
    for bad in (0, count // 2, count - 1):
        messages = [os.urandom(16 * (2 + i % 3)) for i in range(count)]
        messages[bad] += b"\x00"
        with pytest.raises(ValueError, match="^data length must be a multiple of 16$"):
            aes_core.cbc_macs(messages, ks, lanes)


ROUTE_BLOCKS = [0, 1, 2, 3, 47, 48, *(aes_core.PACKED_MAX_LANES + k for k in (1, 2, 3))]


def _engines_run(mp):
    """Spy on `decrypt_cbc`'s three engines: returns the set of those that
    ran, "chain" (`decrypt_blocks`), "packed" (`_packed_rounds`) and
    "kernel" (`_lane_rounds`)."""
    ran = set()
    for engine, name in (("chain", "decrypt_blocks"), ("packed", "_packed_rounds"), ("kernel", "_lane_rounds")):
        f = getattr(aes_core, name)
        mp.setattr(aes_core, name, lambda *args, f=f, engine=engine: ran.add(engine) or f(*args))
    return ran


@pytest.mark.parametrize("lanes", [False, True])
@pytest.mark.parametrize("blocks", ROUTE_BLOCKS)
@given(st.integers(0, 2**32 - 1))
@settings(max_examples=3, deadline=None)
def test_decrypt_cbc_takes_one_route_on_one_engine(blocks, lanes, seed):
    # a batch of `blocks` ciphertext blocks cut into up to six messages
    # anywhere, some of them an IV alone: fewer than PACKED_MIN_LANES blocks
    # decrypt on the chain, with `lanes` from KERNEL_MIN_LANES blocks on the
    # kernel, and every other batch on the packed rounds, a last chunk of
    # one to three blocks past PACKED_MAX_LANES too. Each route runs its
    # engine alone and matches the library. The same batch with a message
    # that is not an IV and whole blocks, or two whose odd bytes add up to a
    # block, raises the one ValueError before any engine runs
    rng = random.Random(seed)
    key = rng.randbytes(16)
    ks = aes_core.expand_key(key)
    cuts = sorted(rng.choices(range(blocks + 1), k=rng.randrange(0, 6)))
    messages = [rng.randbytes(16 * (b - a + 1)) for a, b in zip([0, *cuts], [*cuts, blocks])]
    if blocks < aes_core.PACKED_MIN_LANES:
        route = "chain"
    else:
        route = "kernel" if lanes and blocks >= aes_core.KERNEL_MIN_LANES else "packed"
    with pytest.MonkeyPatch.context() as mp:
        ran = _engines_run(mp)
        plains = aes_core.decrypt_cbc(messages, ks, lanes)
    assert plains == [library_cbc_decrypt(key, m) for m in messages]
    assert ran == {route}
    odd = rng.randint(1, 15)
    picks = rng.sample(range(len(messages)), min(2, len(messages)))
    messages[picks[0]] += rng.randbytes(odd)
    if len(picks) == 2 and rng.random() < 0.5:  # the batch's length stays whole blocks
        messages[picks[1]] += rng.randbytes(16 - odd)
    with pytest.MonkeyPatch.context() as mp:
        ran = _engines_run(mp)
        with pytest.raises(ValueError, match="^a message is not an IV and whole blocks$"):
            aes_core.decrypt_cbc(messages, ks, lanes)
    assert ran == set()


def _unload_kernel(mp):
    numpy, load = importlib.import_module("numpy"), aes_core._lanes
    mp.setattr(aes_core, "_LANES", None)
    mp.delitem(sys.modules, "numpy", raising=False)
    mp.setattr(aes_core, "_rented_blocks", 0)
    # loading the kernel puts numpy back, without executing it a second time
    mp.setattr(aes_core, "_lanes", lambda: sys.modules.setdefault("numpy", numpy) and load())


@pytest.fixture
def kernel_unloaded(monkeypatch):
    """The rent-or-buy state of a process that has not loaded the kernel."""
    _unload_kernel(monkeypatch)


def messages_of(*chains: int) -> list[bytes]:
    """Messages IV || ciphertext of `chains` blocks each, as the codec hands
    them to use_lanes: an IV and a ciphertext of one block or more."""
    return [bytes(16 * n) for n in chains]


def test_use_lanes_without_kernel_work_counts_nothing(kernel_unloaded):
    # fewer than KERNEL_MIN_LANES messages and a decryption shorter than
    # that: no kernel step and no kernel decryption, though the packed rounds
    # step 20 or 47 chains and decrypt up to 47 blocks
    for chains in ((), (2,), (48,), (25, 24), (2,) * 20, (2,) * 47, (40, 2, 2, 2, 2, 2, 2, 2)):
        assert aes_core.use_lanes(messages_of(*chains)) is False
        assert aes_core._rented_blocks == 0


def test_a_loaded_kernel_takes_only_kernel_work():
    aes_core._lanes()
    assert aes_core.use_lanes(messages_of(*[2] * 47)) is False  # 47 chains, 47 blocks
    assert aes_core.use_lanes(messages_of(300, *[2] * 46)) is True  # 47 chains, 345 blocks
    assert aes_core.use_lanes(messages_of(49)) is True  # 1 chain, 48 blocks
    assert aes_core.use_lanes(messages_of(*[2] * 48)) is True  # 48 chains


def test_use_lanes_counts_a_batchs_kernel_work_exactly(kernel_unloaded):
    # 51 chains: the 48th longest has 5 blocks, so the lanes take 5 steps,
    # 2 + 48 x 5 + 5 + 2 blocks; the decryption adds its 253 - 51 blocks
    assert aes_core.use_lanes(messages_of(2, *[5] * 48, 9, 2)) is False
    assert aes_core._rented_blocks == 249 + 202
    # a decryption alone, of KERNEL_MIN_LANES blocks
    assert aes_core.use_lanes(messages_of(49)) is False
    assert aes_core._rented_blocks == 249 + 202 + 48
    # the blocks rented reach the import, so the next batch with kernel work
    # buys it; a narrower batch has none and neither counts nor buys
    short = aes_core.IMPORT_BLOCKS - aes_core._rented_blocks
    assert aes_core.use_lanes(messages_of(short // 2 + 1, short - short // 2 + 1)) is False
    assert aes_core._rented_blocks == aes_core.IMPORT_BLOCKS
    assert aes_core.use_lanes(messages_of(48)) is False
    assert "numpy" not in sys.modules
    assert aes_core.use_lanes(messages_of(49)) is True
    assert "numpy" in sys.modules  # bought by the batch that decided to


def use_lanes_by_chains(chains: list[int], blocks: int, chain_blocks: int, loaded: bool) -> tuple:
    """The decision and the count `use_lanes` leaves, from the MAC chain
    lengths and the decryption's block count, in a process that has
    `loaded` the kernel or not: the rule stated on lengths, as the codec
    once computed them."""
    n = aes_core.KERNEL_MIN_LANES
    if len(chains) < n and blocks < n:
        return False, chain_blocks
    if loaded:
        return True, chain_blocks
    steps = sorted(chains, reverse=True)[n - 1] if len(chains) >= n else 0
    work = sum(min(c, steps) for c in chains) + (blocks if blocks >= n else 0)
    if max(chain_blocks, work) >= aes_core.IMPORT_BLOCKS:
        return True, chain_blocks
    return False, chain_blocks + work


@given(st.lists(st.lists(st.integers(2, 300), max_size=60), min_size=1, max_size=3))
@settings(max_examples=200, deadline=None)
def test_use_lanes_on_messages_matches_the_rule_on_lengths(batches):
    # batches one after another, so the count of one is the start of the
    # next, and the batch that buys the kernel loads it for the rest
    with pytest.MonkeyPatch.context() as mp:
        _unload_kernel(mp)
        for chains in batches:
            loaded = "numpy" in sys.modules
            expected = use_lanes_by_chains(chains, sum(chains) - len(chains), aes_core._rented_blocks, loaded)
            assert (aes_core.use_lanes(messages_of(*chains)), aes_core._rented_blocks) == expected
            assert ("numpy" in sys.modules) == (loaded or expected[0])


@given(st.lists(st.integers(1, 300), max_size=60))
@settings(max_examples=200, deadline=None)
def test_a_batch_past_the_first_test_has_kernel_work(chains):
    # what lets `use_lanes` answer True at once once the kernel is loaded:
    # any batch of messages (an IV and whole blocks each) with
    # KERNEL_MIN_LANES chains or decryption blocks gives the kernel work, so
    # with the kernel unloaded it either buys it or counts some blocks
    n = aes_core.KERNEL_MIN_LANES
    with pytest.MonkeyPatch.context() as mp:
        _unload_kernel(mp)
        lanes = aes_core.use_lanes(messages_of(*chains))
        if len(chains) >= n or sum(chains) - len(chains) >= n:
            assert lanes or aes_core._rented_blocks > 0
        else:
            assert (lanes, aes_core._rented_blocks) == (False, 0)


@given(st.integers(1, 64).flatmap(lambda n: st.lists(st.integers(2, 30), min_size=n, max_size=n)))
@settings(max_examples=60, deadline=None)
def test_use_lanes_counts_the_blocks_the_kernel_runs(chains):
    # batches of 1-64 messages, across KERNEL_MIN_LANES chains and
    # decryption blocks: what `use_lanes` rents before numpy is loaded is
    # the sum of the lanes of every kernel call once it is loaded
    ks = aes_core.expand_key(bytes(range(16)))
    messages = messages_of(*chains)
    with pytest.MonkeyPatch.context() as mp:
        _unload_kernel(mp)
        mp.setattr(aes_core, "IMPORT_BLOCKS", sys.maxsize)  # never bought
        assert aes_core.use_lanes(messages) is False
        rented = aes_core._rented_blocks
    aes_core._lanes()
    lanes, rounds = [], aes_core._lane_rounds
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(aes_core, "_lane_rounds", lambda s, *a: lanes.append(s.shape[1]) or rounds(s, *a))
        aes_core.cbc_macs(messages, ks, True)
        aes_core.decrypt_cbc(messages, ks, True)
    assert sum(lanes) == rented


def test_lane_rounds_keep_the_byte_sliced_shape():
    # row i of the input and of the output is byte i of every lane, also
    # for a view that is not contiguous
    np = aes_core._lanes()[0]
    key = os.urandom(16)
    ks = aes_core.expand_key(key)
    rows = np.frombuffer(os.urandom(16 * 10), dtype=np.uint8).reshape(10, 16)
    for states in (np.ascontiguousarray(rows.T), rows.T, rows.T[:, 1::3]):
        lanes = states.T.tobytes()
        for backward, keys, library in (
            (False, ks.enc_keys, aes_library_encrypt), (True, ks.dec_keys, aes_library_decrypt)
        ):
            out = aes_core._lane_rounds(states, keys, backward)
            assert out.shape == states.shape
            assert out.T.tobytes() == library(key, lanes)


# --- the engines' one owner ------------------------------------------------

def test_numpy_stays_behind_aes_core():
    # no other module of the package imports or names numpy, and the lane
    # kernel's CBC-MAC tags come back as bytes
    package = os.path.dirname(aes_core.__file__)
    for name in sorted(os.listdir(package)):
        if name.endswith(".py") and name != "aes_core.py":
            with open(os.path.join(package, name), encoding="utf-8") as fh:
                assert "numpy" not in fh.read(), name
    ks = aes_core.expand_key(os.urandom(16))
    messages = [os.urandom(16 * n) for n in (12, 1, 3, 5, 3) * 3]
    tags = aes_core.cbc_macs(messages, ks, True)  # lanes end before, at and after step 3
    assert [type(tag) for tag in tags] == [bytes] * len(messages)
    assert tags == [aes_core.encrypt_cbc(m, ks, bytes(16))[-16:] for m in messages]
    assert aes_core.cbc_macs(messages, ks) == tags
    plains = aes_core.decrypt_cbc(messages, ks, True)
    assert [type(plain) for plain in plains] == [bytes] * len(messages)


def test_the_codec_leaves_cbc_and_the_lane_plan_to_aes_core():
    # crypto_codec asks use_lanes and calls the batch functions; which
    # engine runs, and from how many blocks, is aes_core's alone
    with open(os.path.join(os.path.dirname(aes_core.__file__), "crypto_codec.py"),
              encoding="utf-8") as fh:
        source = fh.read()
    for name in ("KERNEL_MIN_LANES", "PACKED_MIN_LANES", "decrypt_blocks"):
        assert name not in source


def test_only_aes_core_names_the_block_and_ecb_wrappers():
    # the package reaches the cipher through CBC and CBC-MAC on messages;
    # the one-block calls and ECB are kept for the tests and the benchmark
    package = os.path.dirname(aes_core.__file__)
    for name in sorted(os.listdir(package)):
        if name.endswith(".py") and name != "aes_core.py":
            with open(os.path.join(package, name), encoding="utf-8") as fh:
                source = fh.read()
            for wrapper in ("encrypt_block", "decrypt_block", "encrypt_ecb"):
                assert wrapper not in source, (name, wrapper)
