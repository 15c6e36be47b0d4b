"""AES-128 built from first principles, and the choice of engine to run it.

No crypto libraries: GF(2^8) arithmetic on log/antilog tables of the
generator 3, from which the S-box (the field inverse and the affine map of
FIPS-197 section 5.1.1) and the round tables are computed at import,
Rijndael key expansion, and one cipher core in three engines that share a
key schedule:

- The scalar chain runs blocks one after another: `encrypt_cbc` is CBC
  encryption under an IV, `decrypt_blocks` decrypts every block of a
  buffer, and `encrypt_block`/`decrypt_block` are one-block calls of the
  two, which no other module of the package makes. The state is one
  128-bit int, and a round has one of two forms. On the row tables, the
  four T-tables of a direction (Daemen & Rijmen, *The Design of
  Rijndael*, section 4.2), a round unpacks the 16 bytes, builds each
  column word from four lookups, joins the words with shifts and adds the
  round key. On the placed tables of encryption, one per state byte, each
  entry is the T-table word of the byte's row already shifted to the
  output column that ShiftRows sends the byte to, so a round is one
  lookup and one XOR per byte plus the round key. The placed round does
  less work, but its 16 tables take about 0.2 MB, so it pays only once
  they are in cache: CBC encryptions of PLACED_MIN_BLOCKS (64) blocks or
  more run on it, shorter ones on the row tables. The row tables are
  built at import, the placed tables by the first buffer that runs on
  them. The final round is a fixed byte permutation and `bytes.translate`
  through the S-box. Decryption is the equivalent inverse cipher
  (FIPS-197 section 5.3.5): the inverse tables, rows shifted right, and
  pre-mixed round keys.
- The packed rounds run n blocks in lockstep as the lanes of one Python
  int, 16 bytes a lane, lane-major, with no table and no import: SubBytes
  is one `bytes.translate` of the whole int, ShiftRows seven masked
  terms (six of them shifted), MixColumns two in-column byte rotations and
  one masked xtime (InvMixColumns one more rotation and two more xtimes
  before them), and a round key the key repeated in every lane. Its masks
  are 16-byte patterns repeated n times, kept for lane counts below
  KERNEL_MIN_LANES. A call costs about 1.7 chain blocks at 1 lane and
  grows by about a fifth of one per lane, so it serves the narrow
  batches: from PACKED_MIN_LANES (3) lanes on, and, once numpy is loaded,
  below KERNEL_MIN_LANES (48).
- The multi-lane kernel runs the same rounds on byte-sliced states, a
  (16, n) uint8 numpy array whose row i is byte i of every lane, all lanes
  in lockstep, on the row tables. `encrypt_ecb` wraps it for block-aligned
  bytes, transposing at its edges. A call costs about as much as the
  packed rounds at 48 lanes, and half the time the (n, 16) states it
  replaced took from 300 lanes on (BENCH_17.json).

Two batch functions choose among them by width. `cbc_macs`, the one
CBC-MAC function, runs one lane per message, longest first, so the
running lanes are always a prefix: with `lanes`, on the kernel while at
least KERNEL_MIN_LANES lanes are running, then on the packed rounds while
at least PACKED_MIN_LANES are, and the last ones on the chain; without
`lanes` the kernel's share runs on the packed rounds too. A batch of
fewer than PACKED_MIN_LANES messages, such as a value's tag or a
tenant's keys, runs on the chain alone. `decrypt_cbc` CBC-decrypts
messages IV || ciphertext with every block of the batch in one call, on
the engine its block count calls for. On the kernel a batch costs about
one Python step per message: the lane order and block offsets of
`cbc_macs` are numpy arrays, one byte-sliced state serves the batch and
its running prefix is stepped (a lane's state is its tag once its message
ends), and `decrypt_cbc` picks the ciphertext blocks, XORs each with the
block before it and joins the result in numpy. When fewer than
KERNEL_MIN_LANES chains are left, `cbc_macs` hands their states over to
the packed rounds as one int; on them a step gathers its blocks with one
join, and a lane that ends drops off the low end of the state.

`use_lanes` decides once for a batch, from the same messages, whether the
kernel may run: numpy's import costs as much as the kernel saves on tens
of thousands of blocks, so `use_lanes` rents before it buys. It counts
only the kernel's work, the blocks the kernel would run: the MAC steps
while at least KERNEL_MIN_LANES chains run (`_lane_steps`, by which
`cbc_macs` steps the kernel too), and a decryption of KERNEL_MIN_LANES
blocks or more. That work runs on the packed rounds until numpy is
loaded, and `use_lanes` loads the kernel itself for a batch of at least
IMPORT_BLOCKS (7,000) such blocks, or once the blocks rented have reached
that count. A batch with fewer than KERNEL_MIN_LANES messages and
decryption blocks has no kernel work and counts nothing, so a process
whose batches are all that narrow never imports numpy, and a one-shot
`cmt get` or `cmt list` imports it only if its kernel work comes to
IMPORT_BLOCKS blocks or more. Once the kernel is loaded, `use_lanes`
answers after that first test, which every batch with kernel work passes.

`expand_key` builds the round keys of both directions once, for every key.
Input byte i of a block sits at row i % 4 of column i // 4, and a column
word is its four bytes read big-endian. The placed tables, the row tables
and the S-boxes are indexed by secret bytes, so the cipher leaks through
cache timing; constant-time hardening is a non-goal.
"""

import struct
import sys
from collections import namedtuple
from itertools import accumulate
from operator import itemgetter

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


def _placed(tables: tuple) -> tuple:
    """The 16 placed tables of encryption: table i maps byte x at input
    position i (row r = i % 4, column i // 4) to row r's word of x, moved
    to the column (i // 4 - r) % 4 that ShiftRows sends the byte to, within
    the 128-bit state. The four that land in column 3 are the row tables
    themselves."""
    placed = []
    for i in range(BLOCK_SIZE):
        r = i % 4
        left = 32 * (3 - (i // 4 - r) % 4)
        placed.append([w << left for w in tables[r]] if left else tables[r])
    return tuple(placed)


_TE = _round_tables(SBOX, (0x02, 0x01, 0x01, 0x03))  # MixColumns
_TD = _round_tables(INV_SBOX, (0x0E, 0x09, 0x0D, 0x0B))  # InvMixColumns
# The placed tables of encryption, built by the first buffer of
# PLACED_MIN_BLOCKS blocks or more: a process that encrypts no such buffer,
# as a `cmt get` of a short value, never builds them. Built at import they
# cost a fresh `import cmt.cli` about 1 ms of CPU, and `cli_get_ms_p50`
# rose 0.5 % on `point_small` and 1.4 % on `scan_replay` (BENCH_21.json).
# Decryption has none: `decrypt_cbc` runs every buffer of PACKED_MIN_LANES
# blocks or more on the packed rounds, so the chain only ever decrypts one
# or two blocks. Threads that race to build them build equal tables.
_PLACED_ENC = None

_WORDS = struct.Struct(">4I")


class KeySchedule(namedtuple("KeySchedule", "enc_keys dec_keys")):
    """An AES-128 key expanded once.

    `enc_keys` are the 11 round keys as 128-bit ints, the block's bytes
    read big-endian: round key r is words 4r..4r+3 of the key expansion,
    most significant first. `dec_keys` are the 11 round keys of the
    equivalent inverse cipher, in the order decryption uses them, with
    InvMixColumns applied to rounds 1..9.
    """

    __slots__ = ()

    def __repr__(self) -> str:  # enc_keys[0] is the key itself
        return "KeySchedule(<redacted>)"


def _inv_mix_word(w: int) -> int:
    # the tables apply INV_SBOX first, so feed them SBOX[b] to mix b itself
    td0, td1, td2, td3 = _TD
    return (
        td0[SBOX[w >> 24]] ^ td1[SBOX[(w >> 16) & 0xFF]]
        ^ td2[SBOX[(w >> 8) & 0xFF]] ^ td3[SBOX[w & 0xFF]]
    )


def expand_key(key: bytes) -> KeySchedule:
    """Rijndael key expansion: 16-byte key -> 11 round keys, and the round
    keys of the equivalent inverse cipher."""
    if len(key) != KEY_SIZE:
        raise ValueError(f"key must be {KEY_SIZE} bytes, got {len(key)}")
    w0, w1, w2, w3 = _WORDS.unpack(key)
    words = [w0, w1, w2, w3]  # the 44 words, kept for the inverse schedule
    enc = [w0 << 96 | w1 << 64 | w2 << 32 | w3]
    for rcon in RCON:
        # SubWord(RotWord(w3)) and the round constant
        w0 ^= (
            (SBOX[(w3 >> 16) & 0xFF] ^ rcon) << 24 | SBOX[(w3 >> 8) & 0xFF] << 16
            | SBOX[w3 & 0xFF] << 8 | SBOX[w3 >> 24]
        )
        w1 ^= w0
        w2 ^= w1
        w3 ^= w2
        words += (w0, w1, w2, w3)
        enc.append(w0 << 96 | w1 << 64 | w2 << 32 | w3)
    dec = enc[NUM_ROUNDS:]
    for i in range(4 * NUM_ROUNDS - 4, 0, -4):
        w0, w1, w2, w3 = map(_inv_mix_word, words[i : i + 4])
        dec.append(w0 << 96 | w1 << 64 | w2 << 32 | w3)
    return KeySchedule(tuple(enc), tuple(dec + enc[:1]))


# ShiftRows and InvShiftRows of a 16-byte state: byte 4c + r comes from
# column (c + r) % 4, or (c - r) % 4, of row r
_SHIFT_ROWS = itemgetter(0, 5, 10, 15, 4, 9, 14, 3, 8, 13, 2, 7, 12, 1, 6, 11)
_INV_SHIFT_ROWS = itemgetter(0, 13, 10, 7, 4, 1, 14, 11, 8, 5, 2, 15, 12, 9, 6, 3)
# the S-boxes as translation tables for the final round. SBOX and INV_SBOX
# stay lists beside them: `expand_key` on one `bytes` S-box per direction
# took 7-8 % longer, indexed or with a `translate`-based SubWord.
_SBOX_BYTES = bytes(SBOX)
_INV_SBOX_BYTES = bytes(INV_SBOX)


# CBC encryptions of at least this many blocks run on the placed tables,
# shorter ones on the row tables. A placed round does less work, but the 16
# placed tables (about 0.2 MB) span five times the memory of the 4 row
# tables, so a buffer that starts with them out of cache pays more misses
# before they are warm. Measured in 41 alternating pairs of thread CPU time, three runs,
# each call right after a 16 MB read that evicts L1 and L2: CBC encryption
# and decryption on the placed tables took 1.16-1.25 times as long as on
# the row tables at 32 blocks, 1.06-1.13 at 48, 1.01-1.05 at 64, 0.95-1.02
# at 96 and 128, and 0.88-0.92 at 256 (two runs); called again at once,
# 0.73-0.93 at every size. From 64 blocks on a cold start costs the placed
# tables at most about 5 % and a warm one saves 12-18 %. One form for every
# buffer loses a benchmark workload (ten pairs each, BENCH_21.json): on the
# placed tables `scan_replay`'s get_ms_tail rose 34 %, as its short gets
# often start cold after a `cmt` child process, and on the row tables
# `bulk_values`' insert_ms_p50 rose 15 %.
PLACED_MIN_BLOCKS = 64


def encrypt_cbc(data: bytes, schedule: KeySchedule, iv: bytes) -> bytes:
    """CBC encryption of a block-aligned buffer under `iv`, one block after
    another; ValueError for any other length. Each of the 9 table rounds
    XORs the round key and, from PLACED_MIN_BLOCKS blocks on, the placed
    word of each of the state's 16 bytes; below, on the row tables, it
    builds column c from row r of column (c + r) % 4 and joins the four
    column words. The final round is ShiftRows on the bytes and SubBytes by
    `bytes.translate`."""
    global _PLACED_ENC
    if len(data) % BLOCK_SIZE != 0:
        raise ValueError("data length must be a multiple of 16")
    box, shift, c = _SBOX_BYTES, _SHIFT_ROWS, int.from_bytes(iv)
    k0, *rounds, k10 = schedule.enc_keys
    out = []
    if len(data) >= PLACED_MIN_BLOCKS * BLOCK_SIZE:
        if _PLACED_ENC is None:
            _PLACED_ENC = _placed(_TE)
        p0, p1, p2, p3, p4, p5, p6, p7, p8, p9, p10, p11, p12, p13, p14, p15 = _PLACED_ENC
        for i in range(0, len(data), BLOCK_SIZE):
            x = int.from_bytes(data[i : i + BLOCK_SIZE]) ^ c ^ k0
            for k in rounds:
                b0, b1, b2, b3, b4, b5, b6, b7, b8, b9, b10, b11, b12, b13, b14, b15 = x.to_bytes(16)
                x = (
                    p0[b0] ^ p1[b1] ^ p2[b2] ^ p3[b3] ^ p4[b4] ^ p5[b5] ^ p6[b6] ^ p7[b7]
                    ^ p8[b8] ^ p9[b9] ^ p10[b10] ^ p11[b11] ^ p12[b12] ^ p13[b13] ^ p14[b14] ^ p15[b15]
                    ^ k
                )
            c = int.from_bytes(bytes(shift(x.to_bytes(16).translate(box)))) ^ k10
            out.append(c)
        return b"".join([x.to_bytes(16) for x in out])
    t0, t1, t2, t3 = _TE
    for i in range(0, len(data), BLOCK_SIZE):
        x = int.from_bytes(data[i : i + BLOCK_SIZE]) ^ c ^ k0
        for k in rounds:
            b0, b1, b2, b3, b4, b5, b6, b7, b8, b9, b10, b11, b12, b13, b14, b15 = x.to_bytes(16)
            x = (
                (t0[b0] ^ t1[b5] ^ t2[b10] ^ t3[b15]) << 96
                | (t0[b4] ^ t1[b9] ^ t2[b14] ^ t3[b3]) << 64
                | (t0[b8] ^ t1[b13] ^ t2[b2] ^ t3[b7]) << 32
                | (t0[b12] ^ t1[b1] ^ t2[b6] ^ t3[b11])
            ) ^ k
        c = int.from_bytes(bytes(shift(x.to_bytes(16).translate(box)))) ^ k10
        out.append(c)
    return b"".join([x.to_bytes(16) for x in out])


def decrypt_blocks(data: bytes, schedule: KeySchedule) -> bytes:
    """Decrypt every block of a block-aligned buffer, one after another;
    ValueError for any other length. The row-table rounds of `encrypt_cbc`
    with the inverse tables, the pre-mixed `dec_keys` and rows shifted
    right (row r from column (c - r) % 4)."""
    if len(data) % BLOCK_SIZE != 0:
        raise ValueError("data length must be a multiple of 16")
    box, shift = _INV_SBOX_BYTES, _INV_SHIFT_ROWS
    t0, t1, t2, t3 = _TD
    k0, *rounds, k10 = schedule.dec_keys
    out = []
    for i in range(0, len(data), BLOCK_SIZE):
        x = int.from_bytes(data[i : i + BLOCK_SIZE]) ^ k0
        for k in rounds:
            b0, b1, b2, b3, b4, b5, b6, b7, b8, b9, b10, b11, b12, b13, b14, b15 = x.to_bytes(16)
            x = (
                (t0[b0] ^ t1[b13] ^ t2[b10] ^ t3[b7]) << 96
                | (t0[b4] ^ t1[b1] ^ t2[b14] ^ t3[b11]) << 64
                | (t0[b8] ^ t1[b5] ^ t2[b2] ^ t3[b15]) << 32
                | (t0[b12] ^ t1[b9] ^ t2[b6] ^ t3[b3])
            ) ^ k
        out.append(int.from_bytes(bytes(shift(x.to_bytes(16).translate(box)))) ^ k10)
    return b"".join([x.to_bytes(16) for x in out])


def _check_block(block: bytes) -> bytes:
    if len(block) != BLOCK_SIZE:
        raise ValueError(f"block must be {BLOCK_SIZE} bytes, got {len(block)}")
    return block


def encrypt_block(block: bytes, schedule: KeySchedule) -> bytes:
    """Encrypt one 16-byte block: `encrypt_cbc` of one block under a zero IV."""
    return encrypt_cbc(_check_block(block), schedule, bytes(BLOCK_SIZE))


def decrypt_block(block: bytes, schedule: KeySchedule) -> bytes:
    """Exact inverse of encrypt_block: `decrypt_blocks` of one block."""
    return decrypt_blocks(_check_block(block), schedule)


# --- packed rounds ---------------------------------------------------------

# The packed rounds hold n lanes side by side in one int, their blocks
# joined in lane order (lane 0 most significant), so each byte keeps its
# place within its lane. A transform is a few whole-int operations under
# masks that pick the same bytes of every lane: a mask is a 128-bit pattern
# times `one`, the int with a 1 in the last byte of every lane.

# The patterns of the masks, in the order `_packed_rounds` unpacks them,
# written as the block's four column words (rows 0..3 of each, most
# significant first), columns 0..3.
_PATTERNS = (
    0x00000000_00000000_00000000_00000001,  # 1, for `one`
    0xFF000000_FF000000_FF000000_FF000000,  # row 0, which ShiftRows keeps
    # rows 1..3 of encryption: the columns that ShiftRows moves left by r
    # columns (from column r on) and right by 4 - r (before it)
    0x00000000_00FF0000_00FF0000_00FF0000,
    0x00FF0000_00000000_00000000_00000000,
    0x00000000_00000000_0000FF00_0000FF00,
    0x0000FF00_0000FF00_00000000_00000000,
    0x00000000_00000000_00000000_000000FF,
    0x000000FF_000000FF_000000FF_00000000,
    # rows 1..3 of decryption: left by 4 - r (from column 4 - r on), right by r
    0x00000000_00000000_00000000_00FF0000,
    0x00FF0000_00FF0000_00FF0000_00000000,
    0x00000000_00000000_0000FF00_0000FF00,
    0x0000FF00_0000FF00_00000000_00000000,
    0x00000000_000000FF_000000FF_000000FF,
    0x000000FF_00000000_00000000_00000000,
    0x00FFFFFF_00FFFFFF_00FFFFFF_00FFFFFF,  # rows 1-3
    0x000000FF_000000FF_000000FF_000000FF,  # row 3
    0x0000FFFF_0000FFFF_0000FFFF_0000FFFF,  # rows 2-3
    0x80808080_80808080_80808080_80808080,  # the high bit of every byte
)

# Work of at least this many lanes runs on the packed rounds, less on the
# chain. Measured in thread CPU time, medians of 41 alternating calls (21
# for MACs), three runs (BENCH_39.json): `decrypt_cbc` of one message took
# 1.60-1.79 times as long on the packed rounds as on the chain at 1 block,
# 1.14-1.20 at 2 and 0.76-0.85 at 3; `cbc_macs` of messages of 16 blocks
# 0.86-0.92 at 2 lanes and 0.61-0.67 at 3. Decryption, whose packed rounds
# add InvMixColumns' first step, loses at 2 blocks, and a `get` decrypts
# one value a call, so both start at 3: the two longest chains of a batch
# finish on the chain.
PACKED_MIN_LANES = 3

# From this many lanes on, work runs on the kernel once numpy is loaded, and
# on the packed rounds until then; below it, on the packed rounds. Measured
# as PACKED_MIN_LANES is: the kernel took 0.97-1.08 times as long as the
# packed rounds for a one-message decryption at 44 blocks, 0.90-1.10 at 48,
# 0.88-0.90 at 52 and 0.84-0.86 at 56, and 1.19-1.24 times as long for a
# batch of MAC steps at 44 lanes, 1.11-1.18 at 48, 1.04-1.18 at 56,
# 0.92-1.03 at 60 and 0.83-0.92 at 64. One width serves both functions:
# at 48 a decryption is at its crossover, and MAC steps of 48 to 63 lanes
# pay up to about 1.2 times what the packed rounds would cost.
KERNEL_MIN_LANES = 48

_MASKS = {}  # lane count -> masks, for counts below KERNEL_MIN_LANES only


def _masks(n: int) -> tuple:
    """The masks of n lanes, one per pattern of _PATTERNS. Counts from
    KERNEL_MIN_LANES on, which only a process without numpy packs, are
    built on each call and not kept: a set for every count up to
    IMPORT_BLOCKS would hold gigabytes, and the cache holds at most
    KERNEL_MIN_LANES - 1 sets of under KERNEL_MIN_LANES lanes each, 0.36 MB
    in all. Building a set takes about as long as one or two rounds."""
    masks = _MASKS.get(n)
    if masks is None:
        one = int.from_bytes((bytes(15) + b"\x01") * n)
        masks = tuple([p * one for p in _PATTERNS])
        if n < KERNEL_MIN_LANES:
            _MASKS[n] = masks
    return masks


def _packed_rounds(x: int, n: int, keys: tuple, backward: bool) -> int:
    """The rounds of one direction on n lanes packed into `x`, all lanes in
    lockstep. SubBytes is one `bytes.translate`; ShiftRows moves the bytes
    of rows 1..3 by whole columns, left by 32r bits or right by 32(4 - r)
    within the lane; MixColumns gives byte i of a column 2a_i ^ 3a_(i+1) ^
    a_(i+2) ^ a_(i+3) as r1 ^ rot2(t) ^ xtime(t), where r1 is the column
    rotated one byte, t = x ^ r1 and rot2 rotates by two bytes; a round key
    is the key times `one`. Decryption is the equivalent inverse cipher on
    `dec_keys`, rows moved right, and InvMixColumns is MixColumns after
    x ^= xtime(xtime(x ^ rot2(x)))."""
    one, row0, *moves, lo3, lo1, lo2, high = _masks(n)
    size = BLOCK_SIZE * n
    if backward:
        box, (a1, b1, a2, b2, a3, b3), s1, s3 = _INV_SBOX_BYTES, moves[6:], 96, 32
    else:
        box, (a1, b1, a2, b2, a3, b3), s1, s3 = _SBOX_BYTES, moves[:6], 32, 96
    k0, *rounds, k10 = keys
    x ^= k0 * one
    for k in (*rounds, None):  # the last round has no MixColumns
        x = int.from_bytes(x.to_bytes(size).translate(box))
        x = (x & row0 | (x & a1) << s1 | (x & b1) >> s3 | (x & a2) << 64 | (x & b2) >> 64
             | (x & a3) << s3 | (x & b3) >> s1)
        if k is None:
            return x ^ k10 * one
        if backward:
            u = x ^ ((x & lo2) << 16 | (x >> 16) & lo2)
            h = u & high
            u = (u ^ h) << 1 ^ (h >> 7) * 0x1B
            h = u & high
            x ^= (u ^ h) << 1 ^ (h >> 7) * 0x1B
        r1 = (x & lo3) << 8 | (x >> 24) & lo1
        t = x ^ r1
        h = t & high
        x = r1 ^ ((t & lo2) << 16 | (t >> 16) & lo2) ^ (t ^ h) << 1 ^ (h >> 7) * 0x1B ^ k * one


# --- multi-lane kernel ---------------------------------------------------

# The kernel's states are byte-sliced: a (16, n) uint8 array, row i holding
# byte i of every lane, so each step of a round reads and writes contiguous
# (4, n) slabs instead of striding across lanes. Against the (n, 16) states
# it replaced, `_lane_rounds` took 0.78-0.80 times as long at 1 lane,
# 0.76-0.78 at 55, 0.53-0.56 at 300, 0.49-0.50 at 543 and 0.36-0.39 at
# 4,096 (medians of 61 alternating calls, thread CPU, three runs), and
# `scan_replay`'s `list_ms_p50` fell from 2.73 to 2.08 ms (ten
# alternating benchmark pairs; BENCH_17.json).

# The kernel-width work after which a process is taken to be long-lived.
# Until numpy is loaded the kernel's work (`use_lanes`) runs on the packed
# rounds; a batch with this many blocks of it, or any batch with kernel
# work once the blocks rented reach this count, loads the kernel (rent or
# buy: a batch that alone costs the purchase buys at once).
# The count was priced as the import's break-even against the chain: three
# runs, each the median of 9 fresh processes, put the import at 80-102 ms,
# the chain at 15.1 us a block (9.2 in one run) and the kernel at 0.7-0.8
# us, so the import paid for itself after 6,800-7,100 blocks.
# Against the packed rounds the break-even lies near or beyond all the
# kernel work a benchmark run has, and is not taken (BENCH_40.json: five
# runs; the ranges leave out one that ran 1.8 times slower throughout, and
# `bulk_values` in one other). numpy's import took 75-100 ms (`import
# cmt.cli, numpy` against `import cmt.cli`, medians of 15 alternating fresh
# processes; 62-75 ms of thread CPU in process, with the kernel's tables),
# and a kernel-width block saved 1.0-1.9 us of thread CPU (medians of 41
# alternating calls on the seed-1 starting stores: `bulk_values`' median
# list decrypts 1,435 blocks in 3.1-3.7 ms packed against 0.73-0.87 ms on
# the kernel, and `scan_replay`'s 300-value list took 1.66-1.88 ms against
# 0.79-0.91 ms for its 837 MAC lane blocks and 1.11-1.30 against 0.36-0.42
# ms for its 543 decryption blocks). So the import pays after about
# 45,000-90,000 blocks (40,000-65,000 counting its thread CPU alone), while
# a whole seed-1 20 s run has about 48,000 on `bulk_values` and 47,000 on
# `scan_replay`. Priced there, each process would buy numpy late in its run
# or never, and a list on the packed rounds took 1.3 times as long as on the
# kernel on `bulk_values` and 1.9-2.0 times on `scan_replay`, past the
# benchmark's 25 % bound on `list_ms_p50`.
IMPORT_BLOCKS = 7000

_LANES = None  # (numpy, encrypt constants, decrypt constants), built on first use
_rented_blocks = 0  # blocks of the kernel's work run on the packed rounds


def _lane_steps(sizes: list[int]) -> int:
    """How many steps of CBC-MAC chains of `sizes` blocks, longest first,
    the kernel runs: those while at least KERNEL_MIN_LANES of them are
    running."""
    return sizes[KERNEL_MIN_LANES - 1] if len(sizes) >= KERNEL_MIN_LANES else 0


def use_lanes(messages: list[bytes]) -> bool:
    """Whether the kernel may run a batch of block-aligned messages IV ||
    ciphertext, the list that `cbc_macs` and `decrypt_cbc` then take. Each
    message is one CBC-MAC chain, and the decryption is every block but the
    IVs. The kernel's work is what it would run of the batch: the chains'
    lane steps (`_lane_steps`) and the decryption if it has
    KERNEL_MIN_LANES blocks or more. Until numpy is loaded that work runs
    on the packed rounds and is counted in `_rented_blocks`. A batch with
    fewer than KERNEL_MIN_LANES messages and decryption blocks has none and
    counts nothing, and any other batch has some, so once the kernel is
    loaded the answer needs no count."""
    global _rented_blocks  # a lost update between threads only delays the import
    blocks = sum(map(len, messages)) // BLOCK_SIZE - len(messages)
    if len(messages) < KERNEL_MIN_LANES and blocks < KERNEL_MIN_LANES:
        return False
    if "numpy" in sys.modules:  # `_lanes()` sets _LANES only after importing it
        return True
    chains = [len(m) // BLOCK_SIZE for m in messages]
    steps = _lane_steps(sorted(chains, reverse=True))
    work = sum([min(n, steps) for n in chains]) + (blocks if blocks >= KERNEL_MIN_LANES else 0)
    if max(_rented_blocks, work) >= IMPORT_BLOCKS:
        _lanes()  # bought here, so that no later batch counts again
        return True
    _rented_blocks += work
    return False


def _lanes():
    global _LANES
    if _LANES is None:
        import numpy as np

        def direction(box, tables, shift):
            # gathers the shifted state row by row: index 4*r + c reads row r
            # of column (c + shift*r) % 4
            perm = np.array(
                [4 * ((c + shift * r) % 4) + r for r in range(4) for c in range(4)],
                dtype=np.intp,
            )
            # memory order of each word is its big-endian bytes, rows 0..3
            words = [np.array(t, dtype=">u4").view(np.uint32) for t in tables]
            return np.array(box, dtype=np.uint8), perm, words

        _LANES = (np, direction(SBOX, _TE, 1), direction(INV_SBOX, _TD, -1))
    return _LANES


def _lane_rounds(s, keys: tuple, backward: bool):
    """The rounds of one direction on a (16, n) uint8 array of byte-sliced
    states, row i holding byte i of every lane, all lanes at once; returns
    a new (16, n) array. A table round gathers the shifted state, looks up
    each row table on a (4, n) slab of it and XORs the (4, n) column words
    in place, then turns them back into bytes with one transposed copy and
    adds the round key: about half the time of the (n, 16) layout from 300
    lanes on, and 0.8 of it at one lane."""
    np, enc, dec = _lanes()
    box, perm, (t0, t1, t2, t3) = dec if backward else enc
    n = s.shape[1]
    rk = np.frombuffer(b"".join([k.to_bytes(16) for k in keys]), dtype=np.uint8)
    rk = rk.reshape(NUM_ROUNDS + 1, BLOCK_SIZE, 1)
    s = s ^ rk[0]
    for r in range(1, NUM_ROUNDS):
        g = s.take(perm, axis=0)
        w = t0.take(g[0:4])
        w ^= t1.take(g[4:8])
        w ^= t2.take(g[8:12])
        w ^= t3.take(g[12:16])
        s = w.view(np.uint8).reshape(4, n, 4).transpose(0, 2, 1).reshape(BLOCK_SIZE, n)
        s ^= rk[r]
    last = box.take(s.take(perm, axis=0)).reshape(4, 4, n).transpose(1, 0, 2)
    return last.reshape(BLOCK_SIZE, n) ^ rk[NUM_ROUNDS]


def encrypt_ecb(data: bytes, schedule: KeySchedule) -> bytes:
    """Encrypt a block-aligned buffer in ECB, all blocks in lockstep;
    bit-identical to mapping encrypt_block over it."""
    if len(data) % BLOCK_SIZE != 0:
        raise ValueError("data length must be a multiple of 16")
    np = _lanes()[0]
    states = np.frombuffer(data, dtype=np.uint8).reshape(-1, BLOCK_SIZE).T
    return _lane_rounds(states, schedule.enc_keys, False).T.tobytes()


def decrypt_cbc(messages: list[bytes], schedule: KeySchedule, lanes: bool = False) -> list[bytes]:
    """The CBC decryption of every message IV || ciphertext, each an IV and
    whole blocks (`crypto_codec.check_value` holds values to that);
    ValueError if a message is shorter than an IV or the ciphertexts do not
    join into whole blocks. Every ciphertext block of the batch is
    decrypted in one call, since no block's decryption waits on another's
    (NIST SP 800-38A section 6.2): on the kernel with `lanes` from
    KERNEL_MIN_LANES blocks on, else on the packed rounds from
    PACKED_MIN_LANES blocks on, else on the chain. Each is then XORed with
    the block before it in its message. On the kernel the messages stay one
    numpy buffer from the join to the XOR: the blocks to decrypt are every
    block but the IVs, and the block before each is the one an index
    earlier in the same buffer. One message needs no index: its blocks are
    the buffer but its first."""
    if messages and min(map(len, messages)) < BLOCK_SIZE:
        raise ValueError("a message is shorter than an IV")
    if lanes and sum(map(len, messages)) // BLOCK_SIZE - len(messages) >= KERNEL_MIN_LANES:
        np = _lanes()[0]
        blocks = np.frombuffer(b"".join(messages), dtype=np.uint8).reshape(-1, BLOCK_SIZE)
        cipher, before = blocks[1:], blocks[:-1]  # each block and the one before it
        # One message needs no index. Through the general path a call took
        # 5.7-7.3 us longer at 10-257 blocks (81 alternating calls), and every
        # `bulk_values` get decrypts one message a call once numpy is loaded.
        if len(messages) > 1:  # but not the later messages' IVs
            starts = accumulate(map(len, messages[:-1]))  # of the second message on
            keep = np.ones(len(cipher), dtype=bool)
            keep[np.fromiter(starts, np.intp, len(messages) - 1) // BLOCK_SIZE - 1] = False
            index = np.flatnonzero(keep)
            cipher, before = cipher.take(index, axis=0), before.take(index, axis=0)
        plain = _lane_rounds(cipher.T, schedule.dec_keys, True).T
        plain = (plain ^ before).tobytes()
    else:
        cipher = b"".join([m[BLOCK_SIZE:] for m in messages])
        n, odd = divmod(len(cipher), BLOCK_SIZE)
        if odd:
            raise ValueError("data length must be a multiple of 16")
        if n >= PACKED_MIN_LANES:
            plain = _packed_rounds(int.from_bytes(cipher), n, schedule.dec_keys, True)
        else:
            plain = int.from_bytes(decrypt_blocks(cipher, schedule))
        plain ^= int.from_bytes(b"".join([m[:-BLOCK_SIZE] for m in messages]))
        plain = plain.to_bytes(len(cipher))
    out, end = [], 0
    for m in messages:
        start, end = end, end + len(m) - BLOCK_SIZE
        out.append(plain[start:end])
    return out


def _split(flat: bytes) -> list[bytes]:
    return [flat[i : i + BLOCK_SIZE] for i in range(0, len(flat), BLOCK_SIZE)]


def _packed_macs(ordered: list[bytes], j: int, state: int, schedule: KeySchedule) -> list[bytes]:
    """The CBC-MAC tags of `ordered`, messages longest first that have all
    run j blocks, their states packed in lane order in `state`. Each step
    runs the lanes still running, a prefix, on the packed rounds while at
    least PACKED_MIN_LANES are; a lane that ends drops off the low end of
    the state with its tag. The fewer that outlast the steps finish on the
    chain."""
    sizes = [len(m) // BLOCK_SIZE for m in ordered]
    running = len(ordered)
    steps = sizes[PACKED_MIN_LANES - 1] if running >= PACKED_MIN_LANES else j
    tags = [b""] * running
    for j in range(j, steps):
        ended = running
        while sizes[running - 1] == j:  # these lanes' states are their tags
            running -= 1
        if running < ended:
            bits = 8 * BLOCK_SIZE * (ended - running)
            tags[running:ended] = _split((state & ((1 << bits) - 1)).to_bytes(bits // 8))
            state >>= bits
        o = BLOCK_SIZE * j
        step = int.from_bytes(b"".join([m[o : o + BLOCK_SIZE] for m in ordered[:running]]))
        state = _packed_rounds(state ^ step, running, schedule.enc_keys, False)
    tags[:running] = _split(state.to_bytes(BLOCK_SIZE * running))
    k = 0
    while k < len(sizes) and sizes[k] > steps:  # fewer than PACKED_MIN_LANES lanes
        tags[k] = encrypt_cbc(ordered[k][steps * BLOCK_SIZE :], schedule, tags[k])[-BLOCK_SIZE:]
        k += 1
    return tags


def cbc_macs(messages: list[bytes], schedule: KeySchedule, lanes: bool = False) -> list[bytes]:
    """The CBC-MAC tag (zero IV, last block kept) of every block-aligned
    message, one lane per message, longest messages first, so the running
    lanes are always a prefix. With `lanes`, the steps run on the kernel
    while at least KERNEL_MIN_LANES lanes are running; the lanes' order and
    block offsets are numpy arrays, one byte-sliced state serves the batch,
    each step updates its running prefix and a lane that has ended keeps
    its tag in place. The lanes still running then go on, as all of them
    do without `lanes`, on the packed rounds (`_packed_macs`) while at least
    PACKED_MIN_LANES are, and the rest on the chain; a batch of fewer
    messages runs on the chain alone. ValueError if a message is not
    block-aligned."""
    if any(len(m) % BLOCK_SIZE for m in messages):
        raise ValueError("data length must be a multiple of 16")
    if len(messages) < PACKED_MIN_LANES:
        return [encrypt_cbc(m, schedule, bytes(BLOCK_SIZE))[-BLOCK_SIZE:] for m in messages]
    if not lanes or len(messages) < KERNEL_MIN_LANES:
        order = sorted(range(len(messages)), key=lambda i: len(messages[i]), reverse=True)
        tags = [b""] * len(messages)
        for i, tag in zip(order, _packed_macs([messages[i] for i in order], 0, 0, schedule)):
            tags[i] = tag
        return tags
    np = _lanes()[0]
    sizes = np.fromiter(map(len, messages), np.intp, len(messages)) // BLOCK_SIZE
    firsts = np.cumsum(sizes) - sizes  # each message's first block in the join
    order = np.argsort(-sizes, kind="stable")
    sizes, firsts = sizes[order].tolist(), firsts[order]
    steps = _lane_steps(sizes)
    blocks = np.frombuffer(b"".join(messages), dtype=np.uint8).reshape(-1, BLOCK_SIZE)
    running = len(messages)
    state = np.zeros((BLOCK_SIZE, running), dtype=np.uint8)  # byte-sliced
    for j in range(steps):
        while sizes[running - 1] == j:  # these lanes' states are their tags
            running -= 1
        step = blocks.take(firsts[:running] + j, axis=0).T
        state[:, :running] = _lane_rounds(state[:, :running] ^ step, schedule.enc_keys, False)
    # fewer than KERNEL_MIN_LANES messages outlast the kernel's steps
    outlast = sum([n > steps for n in sizes[:KERNEL_MIN_LANES]])
    if outlast:
        ordered = [messages[i] for i in order[:outlast].tolist()]
        handed = int.from_bytes(state[:, :outlast].T.tobytes())
        tags = b"".join(_packed_macs(ordered, steps, handed, schedule))
        state[:, :outlast] = np.frombuffer(tags, dtype=np.uint8).reshape(outlast, BLOCK_SIZE).T
    tags = np.empty((len(messages), BLOCK_SIZE), dtype=np.uint8)
    tags[order] = state.T
    return _split(tags.tobytes())
