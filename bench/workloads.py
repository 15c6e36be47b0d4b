"""Workload definitions, value generation, starting stores and round plans.

Every choice the benchmark makes is drawn from a `random.Random` seeded by
the workload name, the run's seed and (for rounds) the round number, and
from the model's state, never from the program's output. The same seed
therefore gives the same inputs and the same operation sequence on every
version of the program.
"""

import random
from dataclasses import dataclass
from typing import Dict, List, Tuple

from model import Model

ASCII = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789 .,-@"
MULTIBYTE = "éñüßøåçλπжщ中文字€😀"
MULTIBYTE_SHARE = 0.3  # share of values that mix in multi-byte UTF-8

LIBRARY_KINDS = ("insert", "update", "delete", "get", "list")


@dataclass(frozen=True)
class Workload:
    name: str
    table: str
    fields: Tuple[Tuple[str, int, int], ...]  # (field name, min bytes, max bytes)
    tenant_prefix: str
    tenants: int
    rows_per_tenant: int  # live rows per tenant in the starting store
    setup_updates: int  # update events in the starting log
    setup_deleted: int  # rows inserted and deleted again in the starting log
    mix: Tuple[Tuple[str, int], ...]  # library operations per round, by kind
    cycles: int  # per round: reopen, a share of the mix, close, one `cmt get`
    tamper: bool  # five forgery attempts per round
    rounds_per_s: float  # rounds per second of --seconds, about the reference machine's pace
    tail_pct: float  # percentile reported as get_ms_tail

    @property
    def field_names(self) -> Tuple[str, ...]:
        return tuple(f[0] for f in self.fields)

    @property
    def tenant_ids(self) -> List[str]:
        return [f"{self.tenant_prefix}{i:03d}" for i in range(self.tenants)]


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        # Many small tenants, 2-40 B Student Entry values: fixed per-value
        # costs (key schedules, key derivation, base64/JSON, fsync) dominate,
        # and each list scans ~200 live rows per row it returns.
        Workload(
            name="point_small",
            table="student_entry",
            fields=(("name", 2, 40), ("contact", 2, 40), ("department", 2, 40)),
            tenant_prefix="uni_",
            tenants=200,
            rows_per_tenant=5,
            setup_updates=0,
            setup_deleted=0,
            mix=(("get", 24), ("insert", 4), ("update", 4), ("delete", 8), ("list", 2)),
            cycles=1,
            tamper=True,
            rounds_per_s=2.0,
            tail_pct=98.0,
        ),
        # A few tenants with 1-4 KB bodies: per-block cipher work dominates.
        Workload(
            name="bulk_values",
            table="document",
            fields=(("title", 8, 40), ("body", 1024, 4096)),
            tenant_prefix="org_",
            tenants=4,
            rows_per_tenant=8,
            setup_updates=0,
            setup_deleted=0,
            mix=(("get", 8), ("insert", 2), ("update", 2), ("delete", 6), ("list", 1)),
            cycles=2,
            tamper=False,
            rounds_per_s=0.9,
            tail_pct=90.0,
        ),
        # A long log with dead bytes over fewer, larger tenants: replay on
        # open, per-row list cost and process start-up dominate.
        Workload(
            name="scan_replay",
            table="log_entry",
            fields=(("name", 2, 24), ("note", 8, 48)),
            tenant_prefix="dept_",
            tenants=5,
            rows_per_tenant=150,
            setup_updates=600,
            setup_deleted=350,
            mix=(("get", 16), ("insert", 6), ("update", 6), ("delete", 12), ("list", 2)),
            cycles=2,
            tamper=False,
            rounds_per_s=0.85,
            tail_pct=95.0,
        ),
    )
}


def text(rng: random.Random, nbytes: int, multibyte: bool) -> str:
    """A string of exactly `nbytes` UTF-8 bytes, without newlines."""
    out, size = [], 0
    while size < nbytes:
        ch = rng.choice(MULTIBYTE) if multibyte and rng.random() < 0.3 else rng.choice(ASCII)
        width = len(ch.encode("utf-8"))
        if size + width > nbytes:
            ch, width = rng.choice(ASCII), 1
        out.append(ch)
        size += width
    return "".join(out)


def stratified(rng: random.Random, n: int) -> List[float]:
    """n fractions in [0, 1), one from each of n equal strata, in random
    order: sizes drawn this way cover the range evenly in every round."""
    slots = list(range(n))
    rng.shuffle(slots)
    return [(s + rng.random()) / n for s in slots]


class ValueSource:
    """Field values for a number of writes, with each field's size
    stratified over its [min, max] byte range."""

    def __init__(self, w: Workload, rng: random.Random, writes: int):
        self.w, self.rng = w, rng
        self.fractions = [stratified(rng, max(writes, 1)) for _ in w.fields]
        self.used = 0

    def next(self) -> Dict[str, str]:
        values = {}
        for (name, lo, hi), fracs in zip(self.w.fields, self.fractions):
            nbytes = lo + int(fracs[self.used % len(fracs)] * (hi - lo + 1))
            multibyte = self.rng.random() < MULTIBYTE_SHARE
            values[name] = text(self.rng, nbytes, multibyte)
        self.used += 1
        return values


def pick_insert_tenant(w: Workload, model: Model, rng: random.Random) -> str:
    """Inserts go to a tenant with the fewest live rows, deletes come from
    one with the most, so tenant sizes stay level through a run."""
    counts = {t: model.tenant_size(t) for t in w.tenant_ids}
    low = min(counts.values())
    return rng.choice([t for t in w.tenant_ids if counts[t] == low])


def pick_delete_row(w: Workload, model: Model, rng: random.Random) -> Tuple[str, int]:
    counts = {t: model.tenant_size(t) for t in w.tenant_ids}
    high = max(counts.values())
    tenant = rng.choice([t for t in w.tenant_ids if counts[t] == high])
    return tenant, rng.choice(model.tenant_rows(tenant))


def setup_plan(w: Workload, rng: random.Random) -> List[str]:
    """Event kinds of the starting log: every tenant gets a first row, then
    inserts, updates and deletes interleave in seeded order."""
    live = w.tenants * w.rows_per_tenant
    head = ["insert"] * w.tenants
    rest = (
        ["insert"] * (live + w.setup_deleted - w.tenants)
        + ["update"] * w.setup_updates
        + ["delete"] * w.setup_deleted
    )
    rng.shuffle(rest)
    # a delete needs a tenant with more than one row left; move any delete
    # that comes too early behind the next insert
    plan, pending, size = [], 0, w.tenants
    for kind in rest:
        if kind == "delete" and size - w.tenants <= 0:
            pending += 1
            continue
        plan.append(kind)
        size += {"insert": 1, "delete": -1}.get(kind, 0)
        while pending and size - w.tenants > 0:
            plan.append("delete")
            size -= 1
            pending -= 1
    return head + plan + ["delete"] * pending


def round_chunks(w: Workload, rng: random.Random) -> List[List[str]]:
    """The round's library operations in seeded order, split into one chunk
    per open/close cycle."""
    kinds = [kind for kind, n in w.mix for _ in range(n)]
    rng.shuffle(kinds)
    size = -(-len(kinds) // w.cycles)
    return [kinds[i : i + size] for i in range(0, len(kinds), size)]
