"""AES-128 built from first principles, and the choice of engine to run it.

No crypto libraries: GF(2^8) arithmetic on log/antilog tables of the
generator 3, from which the S-box (the field inverse and the affine map of
FIPS-197 section 5.1.1) and the round tables are computed at import,
Rijndael key expansion, and one cipher core in two engines that share a key
schedule:

- The scalar chain runs blocks one after another: `encrypt_cbc` is CBC
  encryption under an IV, `decrypt_blocks` decrypts every block of a
  buffer, and `encrypt_block`/`decrypt_block` are one-block calls of the
  two, which no other module of the package makes. The state is one
  128-bit int, and a round has one of two forms. On the row tables, the
  four T-tables of a direction (Daemen & Rijmen, *The Design of
  Rijndael*, section 4.2), a round unpacks the 16 bytes, builds each
  column word from four lookups, joins the words with shifts and adds the
  round key. On the placed tables, one per state byte and
  direction, each entry is the T-table word of the byte's row already
  shifted to the output column that (Inv)ShiftRows sends the byte to, so
  a round is one lookup and one XOR per byte plus the round key, and one
  loop, `_chain`, serves both directions. The placed round does less
  work, but its 32 tables take about 0.4 MB, five times the row tables,
  so it pays only once its tables are in cache: buffers of
  PLACED_MIN_BLOCKS (64) blocks or more run on it, shorter ones on the row
  tables. The row tables are built at import, the placed tables of each
  direction by the first buffer that runs on them. The final
  round is a fixed byte permutation and `bytes.translate` through the
  S-box. Decryption is the equivalent inverse cipher (FIPS-197 section
  5.3.5): the inverse tables, rows shifted right, and pre-mixed round keys.
- The multi-lane kernel runs the same rounds on byte-sliced states, a
  (16, n) uint8 numpy array whose row i is byte i of every lane, all lanes
  in lockstep, on the row tables. `encrypt_ecb` wraps it for block-aligned
  bytes, transposing at its edges; `cbc_macs` steps many CBC-MAC chains as
  its lanes, keeping their states byte-sliced in numpy between steps, and
  `decrypt_cbc` decrypts every ciphertext block of a batch as its lanes.
  A call takes about half the time the (n, 16) states it replaced took
  from 300 lanes on (BENCH_17.json).

Two batch functions run on either engine: `cbc_macs`, the one CBC-MAC
function, and `decrypt_cbc`, which CBC-decrypts messages IV || ciphertext
with every block of the batch in one call. Without `lanes` both run on
the chain, which is how a value is tagged and a tenant's keys derived;
with it, `cbc_macs` steps the chains as the kernel's lanes while at least
LANE_MIN_BLOCKS of them are running, and `decrypt_cbc` decrypts on the
kernel. `use_lanes` makes that choice once for a batch, from the same
messages: it works out their MAC chains and decryption blocks itself.
On the kernel, a batch costs about one Python step per message. The lane
order and block offsets of `cbc_macs` are numpy arrays; it keeps one
byte-sliced state for the whole batch, steps only its running prefix (a
lane's state is its tag once its message ends) and writes the finished
tags into one array, in message order, after the last step. `decrypt_cbc`
picks the ciphertext blocks, XORs each with the block before it and joins
the result in numpy. So only the split back into messages is a step per
message. Once the kernel is loaded, `use_lanes`
answers after its first test, which every batch with kernel work passes.
A 300-value `scan_replay` list then took 0.86 times as long as with a
Python step per value in each of those stages, in one process, and its
six kernel calls are most of what is left (BENCH_22.json).

The kernel wins from LANE_MIN_BLOCKS (10) blocks of work on, but it needs
numpy, whose import costs as much as thousands of chain blocks. numpy is
imported on the kernel's first call only, and `use_lanes` rents before it
buys: until numpy is loaded, work the kernel would take runs on the chain,
and the kernel is loaded for a batch of at least IMPORT_BLOCKS (7,000) such
blocks, or once the blocks run on the chain instead have reached that
count. A one-shot `cmt get` or `cmt list` therefore imports numpy only if
the work it would hand the kernel comes to IMPORT_BLOCKS blocks or more.

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


def _placed(tables: tuple, shift: int) -> tuple:
    """The 16 placed tables of one direction: table i maps byte x at input
    position i (row r = i % 4, column i // 4) to row r's word of x, moved
    to the column (i // 4 - shift * r) % 4 that (Inv)ShiftRows sends the
    byte to, within the 128-bit state. The four that land in column 3 are
    the row tables themselves."""
    placed = []
    for i in range(BLOCK_SIZE):
        r = i % 4
        left = 32 * (3 - (i // 4 - shift * r) % 4)
        placed.append([w << left for w in tables[r]] if left else tables[r])
    return tuple(placed)


_TE = _round_tables(SBOX, (0x02, 0x01, 0x01, 0x03))  # MixColumns
_TD = _round_tables(INV_SBOX, (0x0E, 0x09, 0x0D, 0x0B))  # InvMixColumns
# The placed tables of encryption (rows shifted left by r) and decryption
# (rows shifted right), each built by the first buffer of PLACED_MIN_BLOCKS
# blocks or more in its direction: a process that chains no such buffer,
# as a `cmt get` of a short value, never builds them, and a `cmt get` of a
# long one builds only those of decryption. Built at import they cost a
# fresh `import cmt.cli` about 1 ms of CPU, and `cli_get_ms_p50` rose
# 0.5 % on `point_small` and 1.4 % on `scan_replay` (BENCH_21.json).
# Placed decryption pays for its tables. Counted in one 20 s benchmark run
# per workload (seed 1), `decrypt_blocks` ran on them 27 times in process
# and once in each of the 36 `cmt get` children on `bulk_values`, 6 times on
# `scan_replay` and never on `point_small`; without them `bulk_values`
# get_ms_tail rose from 2.606 to 2.785 ms (+6.9 %, 16 alternating pairs). In
# thread CPU a 137-block decryption took 1.07 times as long on the row
# tables right after a child process, and 1.16 times warm.
# Threads that race to build them build equal tables.
_PLACED_ENC = _PLACED_DEC = None

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


# Buffers of at least this many blocks run on the placed tables, shorter
# ones on the row tables. A placed round does less work, but the 32 placed
# tables (about 0.4 MB) span five times the memory of the 8 row tables, so
# a buffer that starts with them out of cache pays more misses before they
# are warm. Measured in 41 alternating pairs of thread CPU time, three runs,
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


def _chain(data: bytes, placed: tuple, keys: tuple, box: bytes, shift, c: int, cbc: bool) -> bytes:
    """The rounds of one direction on every block of a block-aligned buffer,
    one after another, on the placed tables: each of the 9 table rounds
    XORs the placed word of each of the state's 16 bytes and the round
    key. Each block is XORed with `c` first; with `cbc`, `c` is then the
    block's output, so the buffer is CBC-encrypted under the IV `c`."""
    p0, p1, p2, p3, p4, p5, p6, p7, p8, p9, p10, p11, p12, p13, p14, p15 = placed
    k0, *rounds, k10 = keys
    out = []
    for i in range(0, len(data), BLOCK_SIZE):
        x = int.from_bytes(data[i : i + BLOCK_SIZE]) ^ c ^ k0
        for k in rounds:
            b0, b1, b2, b3, b4, b5, b6, b7, b8, b9, b10, b11, b12, b13, b14, b15 = x.to_bytes(16)
            x = (
                p0[b0] ^ p1[b1] ^ p2[b2] ^ p3[b3] ^ p4[b4] ^ p5[b5] ^ p6[b6] ^ p7[b7]
                ^ p8[b8] ^ p9[b9] ^ p10[b10] ^ p11[b11] ^ p12[b12] ^ p13[b13] ^ p14[b14] ^ p15[b15]
                ^ k
            )
        x = int.from_bytes(bytes(shift(x.to_bytes(16).translate(box)))) ^ k10
        out.append(x)
        if cbc:
            c = x
    return b"".join([x.to_bytes(16) for x in out])


def encrypt_cbc(data: bytes, schedule: KeySchedule, iv: bytes) -> bytes:
    """CBC encryption of a block-aligned buffer under `iv`, one block after
    another; ValueError for any other length. From PLACED_MIN_BLOCKS blocks
    on this is `_chain`; below, each of the 9 row-table rounds builds
    column c from row r of column (c + r) % 4 and joins the four column
    words. The final round is ShiftRows on the bytes and SubBytes by
    `bytes.translate`."""
    global _PLACED_ENC
    if len(data) % BLOCK_SIZE != 0:
        raise ValueError("data length must be a multiple of 16")
    box, shift, c = _SBOX_BYTES, _SHIFT_ROWS, int.from_bytes(iv)
    if len(data) >= PLACED_MIN_BLOCKS * BLOCK_SIZE:
        if _PLACED_ENC is None:
            _PLACED_ENC = _placed(_TE, 1)
        return _chain(data, _PLACED_ENC, schedule.enc_keys, box, shift, c, True)
    t0, t1, t2, t3 = _TE
    k0, *rounds, k10 = schedule.enc_keys
    out = []
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
    ValueError for any other length. The rounds of `encrypt_cbc` with the
    inverse tables, the pre-mixed `dec_keys` and rows shifted right (row r
    from column (c - r) % 4)."""
    global _PLACED_DEC
    if len(data) % BLOCK_SIZE != 0:
        raise ValueError("data length must be a multiple of 16")
    box, shift = _INV_SBOX_BYTES, _INV_SHIFT_ROWS
    if len(data) >= PLACED_MIN_BLOCKS * BLOCK_SIZE:  # measured to pay: see _PLACED_DEC
        if _PLACED_DEC is None:
            _PLACED_DEC = _placed(_TD, -1)
        return _chain(data, _PLACED_DEC, schedule.dec_keys, box, shift, 0, False)
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


# --- multi-lane kernel ---------------------------------------------------

# The kernel's states are byte-sliced: a (16, n) uint8 array, row i holding
# byte i of every lane, so each step of a round reads and writes contiguous
# (4, n) slabs instead of striding across lanes. Against the (n, 16) states
# it replaced, `_lane_rounds` took 0.78-0.80 times as long at 1 lane,
# 0.76-0.78 at 55, 0.53-0.56 at 300, 0.49-0.50 at 543 and 0.36-0.39 at
# 4,096 (medians of 61 alternating calls, thread CPU, three runs), and
# `scan_replay`'s `list_ms_p50` fell from 2.73 to 2.08 ms (ten
# alternating benchmark pairs; BENCH_17.json).

# Work of at least this many blocks runs on the multi-lane kernel, once it
# is loaded; below it the chain is faster. Measured on the byte-sliced
# kernel in 61 alternating pairs of thread CPU time, three runs: CBC
# decryption of 8 blocks took 1.15-1.17 times as long on the kernel as on
# the chain, of 9 blocks 1.00-1.04 and of 10 blocks 0.86-0.94, and a
# lockstep CBC-MAC step of 9 lanes 0.96-1.00 times as long as 9 chain
# blocks, of 10 lanes 0.87-0.97 (a chain block 15-18 us, a kernel
# decryption of 10 blocks 148-161 us): at 9 blocks the kernel only breaks
# even, so it wins from 10 blocks on. Buffers this short run on the row
# tables (PLACED_MIN_BLOCKS).
LANE_MIN_BLOCKS = 10

# The kernel's numpy import, counted in chain blocks. Until numpy is loaded,
# work the kernel would take runs on the chain; a batch this large, or any
# batch once the blocks run that way reach this count, loads the kernel (rent
# or buy: a process then spends at most about twice what the better choice
# in hindsight would have cost, and a batch that alone costs the purchase
# buys at once).
# Measured three times, each the median of 9 fresh processes that time the
# numpy import and table build and then, in thread CPU time, the chain a
# block on 64-block buffers (the placed tables) and the byte-sliced kernel
# a block on 543-block buffers (a 150-row list's decryption): the import
# 80-102 ms, the chain 15.1 us a block (9.2 in one run) and the kernel
# 0.7-0.8 us, so the import pays for itself after 6,800-7,100 blocks
# (9,400 in the run of the fast chain). The kernel's cost is so far below
# the chain's that halving it barely moves the count: 7,000 stays inside
# that range, and the three runs do not agree on another value.
IMPORT_BLOCKS = 7000

_LANES = None  # (numpy, encrypt constants, decrypt constants), built on first use
_chain_blocks = 0  # blocks the kernel would have taken, run on the chain instead


def _lane_steps(sizes: list[int]) -> int:
    """How many steps CBC-MAC chains of `sizes` blocks, longest first, take
    as the kernel's lanes: those while at least LANE_MIN_BLOCKS of them are
    running."""
    return sizes[LANE_MIN_BLOCKS - 1] if len(sizes) >= LANE_MIN_BLOCKS else 0


def use_lanes(messages: list[bytes]) -> bool:
    """Whether a batch of block-aligned messages IV || ciphertext, the list
    that `cbc_macs` and `decrypt_cbc` then take, runs on the kernel. Each
    message is one CBC-MAC chain, and the decryption is every block but the
    IVs. The kernel's work is the chains' lane steps (`_lane_steps`) and the
    decryption if it has LANE_MIN_BLOCKS blocks or more; a batch with none
    runs on the chain and counts nothing toward the import. A batch with
    LANE_MIN_BLOCKS messages or decryption blocks always has some, so once
    the kernel is loaded the answer needs no count."""
    global _chain_blocks  # a lost update between threads only delays the import
    blocks = sum(map(len, messages)) // BLOCK_SIZE - len(messages)
    if len(messages) < LANE_MIN_BLOCKS and blocks < LANE_MIN_BLOCKS:
        return False
    if "numpy" in sys.modules:  # `_lanes()` sets _LANES only after importing it
        return True
    chains = [len(m) // BLOCK_SIZE for m in messages]
    steps = _lane_steps(sorted(chains, reverse=True))
    work = sum([min(n, steps) for n in chains]) + (blocks if blocks >= LANE_MIN_BLOCKS else 0)
    if max(_chain_blocks, work) >= IMPORT_BLOCKS:
        return True
    _chain_blocks += work
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
    decrypted in one call, on the kernel with `lanes` and on the chain
    without, since no block's decryption waits on another's (NIST SP
    800-38A section 6.2); each is then XORed with the block before it in
    its message. On the kernel the messages stay one numpy buffer from the
    join to the XOR: the blocks to decrypt are every block but the IVs, and
    the block before each is the one an index earlier in the same buffer.
    One message needs no index: its blocks are the buffer but its first."""
    if messages and min(map(len, messages)) < BLOCK_SIZE:
        raise ValueError("a message is shorter than an IV")
    if lanes:
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
        plain = decrypt_blocks(b"".join([m[BLOCK_SIZE:] for m in messages]), schedule)
        before = int.from_bytes(b"".join([m[:-BLOCK_SIZE] for m in messages]))
        plain = (int.from_bytes(plain) ^ before).to_bytes(len(plain))
    out, end = [], 0
    for m in messages:
        start, end = end, end + len(m) - BLOCK_SIZE
        out.append(plain[start:end])
    return out


def cbc_macs(messages: list[bytes], schedule: KeySchedule, lanes: bool = False) -> list[bytes]:
    """The CBC-MAC tag (zero IV, last block kept) of every block-aligned
    message. With `lanes`, the first `_lane_steps` blocks run on the kernel
    with one lane per message that is still running, longest messages
    first, so the running lanes are always a prefix; the rest, and all of
    it without `lanes` or with fewer than LANE_MIN_BLOCKS messages, runs on
    the chain. The lanes' order and block offsets are numpy arrays. One
    byte-sliced state serves the batch: each step updates its running
    prefix, a lane that has ended keeps its tag in place, and the tags are
    written in message order once, after the last step. Only the messages
    that outlast the lanes, fewer than LANE_MIN_BLOCKS, are finished one by
    one."""
    steps = 0
    if lanes and len(messages) >= LANE_MIN_BLOCKS:
        np = _lanes()[0]
        sizes = np.fromiter(map(len, messages), np.intp, len(messages)) // BLOCK_SIZE
        firsts = np.cumsum(sizes) - sizes  # each message's first block in the join
        order = np.argsort(-sizes, kind="stable")
        sizes, firsts = sizes[order].tolist(), firsts[order]
        steps = _lane_steps(sizes)
    if not steps:
        return [encrypt_cbc(m, schedule, bytes(BLOCK_SIZE))[-BLOCK_SIZE:] for m in messages]
    blocks = np.frombuffer(b"".join(messages), dtype=np.uint8).reshape(-1, BLOCK_SIZE)
    running = len(messages)
    state = np.zeros((BLOCK_SIZE, running), dtype=np.uint8)  # byte-sliced
    for j in range(steps):
        while sizes[running - 1] == j:  # these lanes' states are their tags
            running -= 1
        step = blocks.take(firsts[:running] + j, axis=0).T
        state[:, :running] = _lane_rounds(state[:, :running] ^ step, schedule.enc_keys, False)
    tags = np.empty((len(messages), BLOCK_SIZE), dtype=np.uint8)
    tags[order] = state.T
    flat = tags.tobytes()
    tags = [flat[i : i + BLOCK_SIZE] for i in range(0, len(flat), BLOCK_SIZE)]
    k = 0
    while sizes[k] > steps:  # fewer than LANE_MIN_BLOCKS messages outlast the lanes
        i = order[k]
        tags[i] = encrypt_cbc(messages[i][steps * BLOCK_SIZE :], schedule, tags[i])[-BLOCK_SIZE:]
        k += 1
    return tags
