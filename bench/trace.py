"""Spans around the calls into each layer, recorded from outside the program.

`Tracer.install` wraps, for the length of a traced pass, the module
attributes through which the layers call each other: the `aes_core` block
functions and key schedule, the codec and key-derivation names that
`tenant_store` imported, the `os.fsync` the store calls, `open_store` and
the `Store` methods. Each span is `[name, start_ns, end_ns, parent, op]`;
spans of one benchmark operation share the `op` number. Spans stay in memory
and are written out when the run ends.
"""

import json
import os
import time
from collections import Counter, defaultdict

from cmt import aes_core, tenant_store

STORE_METHODS = ("insert", "get", "list", "update", "delete")


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.on = False
        self.op = -1
        self.row_lookups = Counter()  # row-map reads, by innermost span name
        self.rows_listed = 0  # rows returned by traced `list` calls
        self.events_at_open = []  # log length at each traced `open_store`
        self._saved = []

    def begin(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        if parent < 0:
            self.op += 1
        sid = len(self.spans)
        self.spans.append([name, time.perf_counter_ns(), 0, parent, self.op])
        self.stack.append(sid)
        return sid

    def end(self, sid: int) -> None:
        self.spans[sid][2] = time.perf_counter_ns()
        self.stack.pop()

    def _wrap(self, name, fn):
        def traced(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            sid = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(sid)

        return traced

    def install(self) -> None:
        targets = [
            (aes_core, "encrypt_block", "aes_core.encrypt_block"),
            (aes_core, "decrypt_block", "aes_core.decrypt_block"),
            (aes_core, "expand_key", "aes_core.expand_key"),
            (tenant_store, "encrypt_value", "crypto_codec.encrypt_value"),
            (tenant_store, "decrypt_value", "crypto_codec.decrypt_value"),
            (tenant_store, "derive_tenant_keys", "key_service.derive_tenant_keys"),
            (tenant_store, "open_store", "tenant_store.open_store"),
            (os, "fsync", "os.fsync"),
        ] + [(tenant_store.Store, m, f"tenant_store.Store.{m}") for m in STORE_METHODS]
        for obj, attr, name in targets:
            original = getattr(obj, attr)
            self._saved.append((obj, attr, original))
            setattr(obj, attr, self._wrap(name, original))

    def remove(self) -> None:
        for obj, attr, original in reversed(self._saved):
            setattr(obj, attr, original)
        self._saved.clear()

    def probe_rows(self, store) -> None:
        """Count reads of the store's in-memory row map, which is how many
        rows a `list` examines. This probes today's `Store._live`; a store
        that indexes rows differently needs the probe moved with it."""
        live = getattr(store, "_live", None)
        if type(live) is not dict:
            raise RuntimeError("row-map probe expects Store._live to be a dict")
        store._live = _CountingRows(self, live)

    def innermost(self) -> str:
        return self.spans[self.stack[-1]][0] if self.stack else ""

    def write(self, path: str, extra: dict) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        rows = [[index[s[0]], s[1], s[2], s[3], s[4]] for s in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                dict(extra, span_fields=["name", "start_ns", "end_ns", "parent", "op"],
                     names=names, spans=rows),
                fh,
                separators=(",", ":"),
            )


class _CountingRows(dict):
    def __init__(self, tracer, rows):
        super().__init__(rows)
        self._tracer = tracer

    def __getitem__(self, key):
        if self._tracer.on:
            self._tracer.row_lookups[self._tracer.innermost()] += 1
        return super().__getitem__(key)


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer figures from the spans of the traced rounds.

    Self time of a span is its duration minus that of its direct children.
    """
    spans = tracer.spans
    rows_returned = tracer.rows_listed
    children = defaultdict(list)
    for sid, span in enumerate(spans):
        children[span[3]].append(sid)

    def dur(sid):
        return spans[sid][2] - spans[sid][1]

    def descendants(sid):
        counts, todo = Counter(), list(children[sid])
        while todo:
            c = todo.pop()
            counts[spans[c][0]] += 1
            todo.extend(children[c])
        return counts

    tops = defaultdict(list)
    for sid in children[-1]:
        tops[spans[sid][0]].append(sid)

    def per_op(method):
        """Averages over the top-level calls of one Store method."""
        ids = tops[f"tenant_store.Store.{method}"]
        acc = Counter()
        for sid in ids:
            total = dur(sid)
            acc["ms"] += total
            direct = Counter()
            for c in children[sid]:
                direct[spans[c][0]] += dur(c)
                for g in children[c]:
                    if spans[c][0].startswith("crypto_codec."):
                        acc["codec_child_ns"] += dur(g)
            acc["self"] += total - sum(direct.values())
            acc["codec"] += direct["crypto_codec.encrypt_value"] + direct["crypto_codec.decrypt_value"]
            acc["derive"] += direct["key_service.derive_tenant_keys"]
            acc["fsync"] += direct["os.fsync"]
            d = descendants(sid)
            acc["expand"] += d["aes_core.expand_key"]
            acc["blocks"] += d["aes_core.encrypt_block"] + d["aes_core.decrypt_block"]
        n = len(ids)
        out = {k: v / n for k, v in acc.items()}
        out["n"] = n
        out["accounted"] = (out["codec"] + out["derive"] + out["fsync"] + out["self"]) / out["ms"]
        return out

    ins, get, dele = per_op("insert"), per_op("get"), per_op("delete")
    lst = per_op("list")
    list_ids = tops["tenant_store.Store.list"]
    list_blocks = sum(
        d["aes_core.encrypt_block"] + d["aes_core.decrypt_block"]
        for d in (descendants(sid) for sid in list_ids)
    )
    opens = tops["tenant_store.open_store"]
    library_ops = sum(len(tops[f"tenant_store.Store.{m}"]) for m in STORE_METHODS)
    derive_calls = sum(1 for s in spans if s[0] == "key_service.derive_tenant_keys")
    ms = 1e-6
    return {
        "aes_core.expand_key_calls_per_get": get["expand"],
        "aes_core.expand_key_calls_per_insert": ins["expand"],
        "aes_core.block_calls_per_get": get["blocks"],
        "aes_core.block_calls_per_insert": ins["blocks"],
        "aes_core.block_calls_per_list_row": list_blocks / rows_returned,
        "key_service.derive_calls": derive_calls / library_ops,
        "crypto_codec.ms_per_insert": ins["codec"] * ms,
        "crypto_codec.ms_per_get": get["codec"] * ms,
        "crypto_codec.self_ms_per_insert": (ins["codec"] - ins.get("codec_child_ns", 0)) * ms,
        "crypto_codec.self_ms_per_get": (get["codec"] - get.get("codec_child_ns", 0)) * ms,
        "tenant_store.insert_fsync_ms": ins["fsync"] * ms,
        "tenant_store.insert_self_ms": ins["self"] * ms,
        "tenant_store.get_self_ms": get["self"] * ms,
        "tenant_store.delete_self_ms": dele["self"] * ms,
        "tenant_store.list_ms_per_row": lst["ms"] * lst["n"] * ms / rows_returned,
        "tenant_store.list_rows_examined_per_returned": (
            tracer.row_lookups["tenant_store.Store.list"] / rows_returned
        ),
        "tenant_store.open_us_per_event": (
            sum(dur(sid) for sid in opens) * 1e-3 / sum(tracer.events_at_open)
        ),
        "trace.insert_accounted_share": ins["accounted"],
        "trace.get_accounted_share": get["accounted"],
    }
