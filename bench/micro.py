"""Micro-benchmarks of single public functions, the cipher oracle check,
and the timings of bare `cmt`-style processes."""

import os
import random
import re
import statistics
import subprocess
import sys
import time

from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

from cmt import aes_core, crypto_codec, key_service

# FIPS-197 Appendix C.1
FIPS197_KEY = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
FIPS197_PT = bytes.fromhex("00112233445566778899aabbccddeeff")
FIPS197_CT = bytes.fromhex("69c4e0d86a7b0430d8cdb78070b4c55a")

ECB_BYTES = 16 * 1024 * 1024  # the size the selftest's throughput check uses

# On a VM shared with other tenants, CPU speed can drift by 1.8x over
# minutes with their load. Timed work is scaled by
# CALIBRATION_REF_MS / calibration_ms(), measured around it, so that runs
# made in slow and fast spells compare. Child processes are scaled the same
# way by INTERPRETER_REF_MS / the time of a bare interpreter start.
CALIBRATION_REF_MS = 1.0
INTERPRETER_REF_MS = 50.0
BARE_INTERPRETER = [sys.executable, "-c", "pass"]
_CAL_TABLE = [(x * 7 + 99) % 256 for x in range(256)]
_CAL_KEY = list(range(16))


def calibration_ms() -> float:
    """Median time of three runs of a fixed pure-Python loop shaped like the
    cipher's inner loops: table lookups, XOR and rotation of 16-item lists."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter_ns()
        s = list(range(16))
        for _ in range(800):
            s = [_CAL_TABLE[b ^ k] for b, k in zip(s, _CAL_KEY)]
            s = s[5:] + s[:5]
        times.append((time.perf_counter_ns() - t0) / 1e6)
    return statistics.median(times)


class SpeedScale:
    """Scale factors to a reference speed for consecutive segments of timed
    work, each from a reference task (`measure`, taking `ref_ms` at the
    reference speed) timed at its two ends."""

    def __init__(self, measure, ref_ms: float):
        self.measure, self.ref_ms = measure, ref_ms
        self.last = measure()
        self.scales = []

    def next(self) -> float:
        """End the current segment and return its scale factor."""
        ms = self.measure()
        scale = self.ref_ms / ((self.last + ms) / 2)
        self.last = ms
        self.scales.append(scale)
        return scale


def cipher_oracle_errors(rng: random.Random, blocks: int = 64) -> list:
    """Compare aes_core's block functions with FIPS-197 and with the
    `cryptography` package's AES-128 on random keys and blocks."""
    errors = []
    ks = aes_core.expand_key(FIPS197_KEY)
    if aes_core.encrypt_block(FIPS197_PT, ks) != FIPS197_CT:
        errors.append("encrypt_block misses the FIPS-197 C.1 vector")
    if aes_core.decrypt_block(FIPS197_CT, ks) != FIPS197_PT:
        errors.append("decrypt_block misses the FIPS-197 C.1 vector")
    for _ in range(blocks):
        key, block = rng.randbytes(16), rng.randbytes(16)
        ks = aes_core.expand_key(key)
        ecb = Cipher(algorithms.AES(key), modes.ECB())
        enc = ecb.encryptor()
        expected = enc.update(block) + enc.finalize()
        if aes_core.encrypt_block(block, ks) != expected:
            errors.append(f"encrypt_block differs from the oracle for key {key.hex()}")
            break
        if aes_core.decrypt_block(expected, ks) != block:
            errors.append(f"decrypt_block differs from the oracle for key {key.hex()}")
            break
    return errors


def _us_per_call(fn, calls: int, batches: int = 5) -> float:
    """Median over batches of the mean time of one call, in microseconds."""
    fn()
    times = []
    for _ in range(batches):
        t0 = time.perf_counter_ns()
        for _ in range(calls):
            fn()
        times.append((time.perf_counter_ns() - t0) / calls / 1e3)
    return statistics.median(times)


def function_metrics(rng: random.Random) -> dict:
    key = rng.randbytes(16)
    ks = aes_core.expand_key(key)
    block = rng.randbytes(16)
    keys = key_service.TenantKeySet(enc_key=rng.randbytes(16), mac_key=rng.randbytes(16))
    master = key_service.MasterKey(rng.randbytes(16))
    small, large = rng.randbytes(20), rng.randbytes(1024)
    small_cv = crypto_codec.encrypt_value(small, keys)
    large_cv = crypto_codec.encrypt_value(large, keys)
    if crypto_codec.decrypt_value(small_cv, keys) != small:
        raise AssertionError("codec round trip failed on 20 B")
    if crypto_codec.decrypt_value(large_cv, keys) != large:
        raise AssertionError("codec round trip failed on 1 KB")

    ecb_in = rng.randbytes(ECB_BYTES)
    t0 = time.perf_counter()
    out = aes_core.encrypt_ecb(ecb_in, ks)
    ecb_s = time.perf_counter() - t0
    if out[:16] != aes_core.encrypt_block(ecb_in[:16], ks):
        raise AssertionError("encrypt_ecb disagrees with encrypt_block")

    return {
        "aes_core.encrypt_block_us": _us_per_call(lambda: aes_core.encrypt_block(block, ks), 200),
        "aes_core.decrypt_block_us": _us_per_call(lambda: aes_core.decrypt_block(block, ks), 200),
        "aes_core.expand_key_us": _us_per_call(lambda: aes_core.expand_key(key), 200),
        "aes_core.encrypt_ecb_mb_s": ECB_BYTES / 2**20 / ecb_s,
        "key_service.derive_tenant_keys_us": _us_per_call(
            lambda: key_service.derive_tenant_keys(master, "tenant_x"), 100
        ),
        "crypto_codec.encrypt_value_us.20B": _us_per_call(
            lambda: crypto_codec.encrypt_value(small, keys), 50
        ),
        "crypto_codec.encrypt_value_us.1KB": _us_per_call(
            lambda: crypto_codec.encrypt_value(large, keys), 4
        ),
        "crypto_codec.decrypt_value_us.20B": _us_per_call(
            lambda: crypto_codec.decrypt_value(small_cv, keys), 50
        ),
        "crypto_codec.decrypt_value_us.1KB": _us_per_call(
            lambda: crypto_codec.decrypt_value(large_cv, keys), 4
        ),
    }


def process_ms(argv, env, cwd, runs: int) -> float:
    """Median wall time of a whole child process, in milliseconds."""
    times = []
    for _ in range(runs):
        t0 = time.perf_counter_ns()
        subprocess.run(argv, env=env, cwd=cwd, check=True, stdout=subprocess.DEVNULL)
        times.append((time.perf_counter_ns() - t0) / 1e6)
    return statistics.median(times)


def process_metrics(env, cwd) -> dict:
    interpreter = process_ms(BARE_INTERPRETER, env, cwd, 7)
    imports = process_ms([sys.executable, "-c", "import cmt.cli"], env, cwd, 7)
    result = subprocess.run(
        [sys.executable, "-m", "cmt.cli", "selftest"], env=env, cwd=cwd,
        capture_output=True, text=True,
    )
    match = re.search(r"throughput: ([0-9.]+) MB/s", result.stdout)
    if result.returncode != 0 or not match:
        raise AssertionError(f"`cmt selftest` failed:\n{result.stdout}{result.stderr}")
    return {
        "cli.interpreter_ms": interpreter,
        "cli.import_ms": imports - interpreter,
        "selftest.throughput_mb_s": float(match.group(1)),
    }


def child_env(src: str, master_hex: str) -> dict:
    env = dict(os.environ, PYTHONPATH=src, PYTHONIOENCODING="utf-8")
    env[key_service.MASTER_KEY_ENV] = master_hex
    return env
