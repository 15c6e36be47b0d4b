#!/usr/bin/env python3
"""The cmt benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
`src/`. Each workload is a closed loop with one client: every call waits
for the previous one, and at most one `cmt` child process runs at a time.
The run builds the workload's starting store three times through the
public API (set-up), then runs a fixed number of whole rounds: the
workload's rounds per second times `--seconds`, about `--seconds` of work
on the reference machine. Every round starts again from the starting
store, so every round does work of the same shape, and every run of a
workload attempts the same operations whatever the program's speed.

With `--trace 0` the last line of stdout is the end-to-end result; with
`--trace 1` it holds the per-layer figures, and the spans go to
`bench/out/trace-<workload>.json`. See bench/README.md.
"""

import argparse
import json
import math
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_BUILDS = 3
SETUP_SEGMENT = 100  # set-up steps between two calibrations
SEGMENT_S = 0.15  # timed work between two calibrations, at most about this long


def load_program():
    if not (SRC / "cmt" / "__init__.py").is_file():
        sys.exit(f"bench: no cmt sources at {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import cmt

    if SRC.resolve() not in Path(cmt.__file__).resolve().parents:
        sys.exit(f"bench: imported cmt from {cmt.__file__}, not from {SRC}")


load_program()

from cmt import tenant_store  # noqa: E402
from cmt.errors import AuthError, IsolationDenied, NotFound  # noqa: E402
from cmt.key_service import MasterKey  # noqa: E402
from cmt.tenant_store import TableSchema  # noqa: E402

import micro  # noqa: E402
import tamper  # noqa: E402
from model import CheckFailed, Model  # noqa: E402
from trace import Tracer, layer_metrics  # noqa: E402
from workloads import (  # noqa: E402
    LIBRARY_KINDS,
    WORKLOADS,
    ValueSource,
    pick_delete_row,
    pick_insert_tenant,
    round_chunks,
    setup_plan,
    stratified,
)

IN_PROCESS_KINDS = LIBRARY_KINDS + ("open",)
TIMED_KINDS = IN_PROCESS_KINDS + ("cli_get",)
MUTATIONS = ("insert", "update", "delete")
# Calls that wait on nothing but the CPU: the store file they read was just
# written and is in the page cache. Their latency samples are the thread's
# CPU time, which on an idle core equals their wall time, and which leaves
# out the time other tenants' processes hold the core. Calls that fsync
# are timed by wall time.
CPU_TIMED = ("get", "list", "open")
FSYNC = os.fsync  # the real one: a traced run replaces os.fsync
REF_FSYNC_MS = 0.1  # a side-file append and fsync at the reference speed
SIDE_LINE = b"x" * 63 + b"\n"  # about the length of a delete event


def build_store(w, seed: int, path: str, master: MasterKey, split) -> Model:
    """Build the workload's starting store through the public API, calling
    `split()` every SETUP_SEGMENT steps."""
    rng = random.Random(f"{w.name}:{seed}:setup")
    plan = setup_plan(w, rng)
    values = ValueSource(w, rng, sum(k != "delete" for k in plan))
    model = Model()
    with tenant_store.create_store(path, TableSchema(w.table, w.field_names), master) as store:
        for i, kind in enumerate(plan):
            if i and i % SETUP_SEGMENT == 0:
                split()
            if kind == "insert":
                tenant = w.tenant_ids[i] if i < w.tenants else pick_insert_tenant(w, model, rng)
                fields = values.next()
                model.insert(store.insert(tenant, fields), tenant, fields)
            elif kind == "update":
                row_id = rng.choice(model.live_ids())
                fields = values.next()
                store.update(model.rows[row_id][0], row_id, fields)
                model.update(row_id, fields)
            else:
                tenant, row_id = pick_delete_row(w, model, rng)
                store.delete(tenant, row_id)
                model.delete(row_id)
    return model


class Run:
    """One benchmark run: the starting store, the rounds, the checks."""

    def __init__(self, w, seed: int, workdir: Path):
        self.w, self.seed, self.workdir = w, seed, workdir
        key_rng = random.Random(f"{seed}:master")
        self.master = MasterKey(key_rng.randbytes(16))
        self.wrong_master = MasterKey(key_rng.randbytes(16))
        self.env = micro.child_env(str(SRC), self.master.key.hex())
        self.path = str(workdir / "store.cmt")
        self.tracer = None  # set for the traced rounds of a --trace 1 run
        self.samples = {k: [] for k in TIMED_KINDS}  # scaled to the reference speed
        self.pending = {k: [] for k in IN_PROCESS_KINDS}  # raw, since the last calibration
        self.pending_wall_ms = 0.0  # raw wall time of the calls in `pending`
        self.attempted = self.failed = self.rounds_done = 0
        self.in_process_ms = 0.0  # wall time inside this process, scaled: library ops and opens
        self.side_fh = open(workdir / "side.log", "ab", buffering=0)

    # -- set-up ----------------------------------------------------------

    def setup(self) -> float:
        self.speed = micro.SpeedScale(micro.calibration_ms, micro.CALIBRATION_REF_MS)
        self.segment_start = time.perf_counter()
        times = []
        for k in range(SETUP_BUILDS):
            path = str(self.workdir / f"setup{k}.cmt")
            scaled, t0 = 0.0, time.perf_counter()

            def split():
                nonlocal scaled, t0
                scaled += (time.perf_counter() - t0) * self.speed.next()
                t0 = time.perf_counter()

            self.start_model = build_store(self.w, self.seed, path, self.master, split)
            split()
            times.append(scaled)
        with open(path, "rb") as fh:
            self.start_bytes = fh.read()
        model = self.start_model
        self.get_order = sorted(model.rows, key=lambda r: (model.row_size(r), r))
        self.list_order = random.Random(f"{self.w.name}:{self.seed}:lists").sample(
            self.w.tenant_ids, self.w.tenants)
        if self.w.tamper:
            self.tamper_base = tamper.build_base(str(self.workdir / "tamper_base.cmt"), self.master)
        self.process_speed = micro.SpeedScale(
            lambda: micro.process_ms(micro.BARE_INTERPRETER, self.env, str(ROOT), 1),
            micro.INTERPRETER_REF_MS)
        return statistics.median(times)

    # -- rounds ----------------------------------------------------------

    def _trace(self, on: bool) -> None:
        if self.tracer is not None:
            self.tracer.on = on

    def _end_segment(self) -> None:
        """Keep the samples timed since the last calibration, scaled to the
        reference speed."""
        scale = self.speed.next()
        for kind, values in self.pending.items():
            self.samples[kind].extend(v * scale for v in values)
            values.clear()
        self.in_process_ms += self.pending_wall_ms * scale
        self.pending_wall_ms = 0.0
        self.segment_start = time.perf_counter()

    def _side_fsync(self) -> float:
        """Append a line to the benchmark's own side file and fsync it; the
        time it took, in ms."""
        t0 = time.perf_counter_ns()
        self.side_fh.write(SIDE_LINE)
        FSYNC(self.side_fh.fileno())
        return (time.perf_counter_ns() - t0) / 1e6

    def _timed(self, kind, fn):
        if kind in MUTATIONS:
            # On the reference VM an fsync takes 0.12 ms right after another
            # and 0.31 ms after 10 ms of none: without this one the store's
            # fsync would cost more whenever the calls before it are slower.
            self._side_fsync()
        c0, t0 = time.thread_time_ns(), time.perf_counter_ns()
        result = fn()
        wall_ms = (time.perf_counter_ns() - t0) / 1e6
        cpu_ms = (time.thread_time_ns() - c0) / 1e6
        if kind == "delete":
            # a delete is mostly its fsync, which the CPU loop does not
            # track: it is scaled by a side-file fsync right after it
            self.samples[kind].append(wall_ms * REF_FSYNC_MS / self._side_fsync())
        else:
            self.pending[kind].append(cpu_ms if kind in CPU_TIMED else wall_ms)
        self.pending_wall_ms += wall_ms
        self.attempted += 1
        if time.perf_counter() - self.segment_start >= SEGMENT_S:
            self._end_segment()
        return result

    def _open(self):
        events = self.start_bytes.count(b"\n") - 1 + self.appended
        store = self._timed("open", lambda: tenant_store.open_store(self.path, self.master))
        if self.tracer is not None and self.tracer.on:
            self.tracer.probe_rows(store)
            self.tracer.events_at_open.append(events)
        return store

    def _cli_get(self, model: Model, rng: random.Random) -> None:
        row_id = rng.choice(model.live_ids())
        tenant = model.rows[row_id][0]
        argv = [sys.executable, "-m", "cmt.cli", "--store", self.path,
                "--tenant", tenant, "get", "--row", str(row_id)]
        self._end_segment()  # a child process is timed apart from in-process work
        sid = self.tracer.begin("cli.get_process") if self.tracer and self.tracer.on else None
        t0 = time.perf_counter_ns()
        result = subprocess.run(argv, env=self.env, cwd=str(ROOT), capture_output=True, text=True)
        ms = (time.perf_counter_ns() - t0) / 1e6
        if sid is not None:
            self.tracer.end(sid)
        # scaled by a bare interpreter start timed on either side, which
        # tracks process start-up far better than the in-process loop
        self.samples["cli_get"].append(ms * self.process_speed.next())
        self.attempted += 1
        self._end_segment()
        if result.returncode != 0:
            raise CheckFailed(f"`cmt get` exited {result.returncode}: {result.stderr.strip()}")
        model.check_cli_output(result.stdout, row_id)

    def _library_op(self, kind, store, model, rng, targets):
        w = self.w
        if kind == "insert":
            tenant = pick_insert_tenant(w, model, rng)
            fields = targets["insert"].next()
            row_id = self._timed(kind, lambda: store.insert(tenant, fields))
            model.insert(row_id, tenant, fields)
        elif kind == "update":
            row_id = rng.choice(model.live_ids())
            fields = targets["update"].next()
            self._timed(kind, lambda: store.update(model.rows[row_id][0], row_id, fields))
            model.update(row_id, fields)
        elif kind == "delete":
            tenant, row_id = pick_delete_row(w, model, rng)
            self._timed(kind, lambda: store.delete(tenant, row_id))
            model.delete(row_id)
        elif kind == "get":
            # targets are stratified by plaintext size, from the rows live
            # when the round began; a row deleted since is skipped
            order = self.get_order
            i = int(next(targets["get"]) * len(order))
            while order[i % len(order)] not in model.rows:
                i += 1
            row_id = order[i % len(order)]
            tenant = model.rows[row_id][0]
            model.check_record(self._timed(kind, lambda: store.get(tenant, row_id)), tenant, row_id)
        else:
            tenant = next(targets["list"])
            records = self._timed(kind, lambda: store.list(tenant))
            model.check_list(records, tenant)
            if self.tracer is not None:
                self.tracer.rows_listed += len(records)
        if kind in ("insert", "update", "delete"):
            self.appended += 1

    def _check_isolation(self, store, model, rng) -> None:
        row_id = rng.choice(model.live_ids())
        owner = model.rows[row_id][0]
        other = rng.choice([t for t in self.w.tenant_ids if t != owner])
        try:
            store.get(other, row_id)
        except IsolationDenied:
            return
        raise CheckFailed(f"{other} read row {row_id} of {owner} without IsolationDenied")

    def run_round(self, i: int) -> Model:
        w = self.w
        rng = random.Random(f"{w.name}:{self.seed}:round:{i}")
        with open(self.path, "wb") as fh:
            fh.write(self.start_bytes)
            fh.flush()
            os.fsync(fh.fileno())
        self.appended = 0
        model = self.start_model.copy()
        mix = dict(w.mix)
        # sizes of written values and of rows read are stratified per kind;
        # listed tenants take turns in a fixed seeded order
        targets = {
            "insert": ValueSource(w, rng, mix["insert"]),
            "update": ValueSource(w, rng, mix["update"]),
            "get": iter(stratified(rng, mix["get"])),
            "list": iter([self.list_order[(i * mix["list"] + j) % w.tenants]
                          for j in range(mix["list"])]),
        }
        for chunk in round_chunks(w, rng):
            self._trace(True)
            store = self._open()
            self._trace(False)
            try:
                self._check_isolation(store, model, rng)
                for kind in chunk:
                    self._trace(True)
                    self._library_op(kind, store, model, rng, targets)
                    self._trace(False)
            finally:
                store.close()
            self._trace(True)
            self._cli_get(model, rng)
            self._trace(False)
        if w.tamper:
            tamper_path = str(self.workdir / "tamper.cmt")
            for kind in tamper.KINDS:
                self.attempted += 1
                if not tamper.attempt(kind, self.tamper_base, tamper_path, self.master):
                    self.failed += 1
        return model

    def rounds(self, count: int) -> Model:
        for i in range(count):
            model = self.run_round(i)
        self.rounds_done = count
        return model

    # -- end of run ------------------------------------------------------

    def verify(self, model: Model) -> None:
        """Reopen the closed store; every acknowledged row reads back equal
        to the model, deleted rows are gone, a wrong key is refused and no
        plaintext value of 8 bytes or more appears in the file."""
        with tenant_store.open_store(self.path, self.master) as store:
            for row_id in model.live_ids():
                tenant = model.rows[row_id][0]
                model.check_record(store.get(tenant, row_id), tenant, row_id)
            for row_id in sorted(model.deleted):
                try:
                    store.get(self.w.tenant_ids[0], row_id)
                except NotFound:
                    continue
                raise CheckFailed(f"deleted row {row_id} still readable")
        with tenant_store.open_store(self.path, self.wrong_master) as store:
            row_id = model.live_ids()[0]
            try:
                store.get(model.rows[row_id][0], row_id)
            except AuthError:
                pass
            else:
                raise CheckFailed("a wrong master key read a row without AuthError")
        with open(self.path, "rb") as fh:
            data = fh.read()
        sentinels = sorted({v for _, fields in model.rows.values() for v in fields.values()
                            if len(v.encode("utf-8")) >= 8})
        for value in sentinels[:: max(1, len(sentinels) // 256)]:
            if value.encode("utf-8") in data:
                raise CheckFailed(f"plaintext {value!r} found in the store file")
        self.final_bytes = len(data)


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def end_to_end(run: Run, model: Model, setup_s: float) -> dict:
    s = run.samples
    # the loop's wall time: every timed call, opens and `cmt get` processes
    # included; the benchmark's own checks between calls are left out
    loop_ms = run.in_process_ms + sum(s["cli_get"])
    library_ops = sum(len(s[k]) for k in LIBRARY_KINDS)
    return {
        "ops_per_s": library_ops / (loop_ms / 1e3),
        "insert_ms_p50": statistics.median(s["insert"]),
        "update_ms_p50": statistics.median(s["update"]),
        "delete_ms_p50": statistics.median(s["delete"]),
        "get_ms_p50": statistics.median(s["get"]),
        "get_ms_tail": percentile(s["get"], run.w.tail_pct),
        "list_ms_p50": statistics.median(s["list"]),
        "open_ms_p50": statistics.median(s["open"]),
        "cli_get_ms_p50": statistics.median(s["cli_get"]),
        "bytes_per_user_byte": run.final_bytes / model.plaintext_bytes,
        "setup_s": setup_s,
    }


def layer_figures(run: Run, count: int) -> tuple:
    """Each of `count` rounds twice, untraced and then traced; the tracing
    overhead compares the in-process time of the two copies, summed over
    the rounds."""
    tracer = Tracer()
    untraced = traced = 0.0
    for i in range(count):
        before = run.in_process_ms
        run.tracer = None
        run.run_round(i)
        middle = run.in_process_ms
        run.tracer = tracer
        tracer.install()
        try:
            model = run.run_round(i)
        finally:
            tracer.remove()
        untraced += middle - before
        traced += run.in_process_ms - middle
    run.rounds_done = count
    run.verify(model)
    figures = layer_metrics(tracer)
    figures["tenant_store.dead_byte_share"] = dead_byte_share(run.path)
    figures["trace.overhead_share"] = traced / untraced - 1
    rng = random.Random(f"{run.seed}:micro")
    figures.update(micro.function_metrics(rng))
    figures.update(micro.process_metrics(run.env, str(ROOT)))
    out = BENCH / "out"
    out.mkdir(exist_ok=True)
    tracer.write(str(out / f"trace-{run.w.name}.json"),
                 {"workload": run.w.name, "seed": run.seed, "rounds": count, "per_layer": figures})
    return figures, model


def dead_byte_share(path: str) -> float:
    """Share of event bytes that replay reads but that no live row needs:
    superseded inserts and updates, and every event of a deleted row."""
    with open(path, "rb") as fh:
        lines = fh.read().split(b"\n")[1:-1]
    latest = {}
    for i, line in enumerate(lines):
        event = json.loads(line)
        latest[event["r"]] = (i, event["op"])
    live = {i for i, op in latest.values() if op != "del"}
    total = sum(len(line) + 1 for line in lines)
    dead = sum(len(line) + 1 for i, line in enumerate(lines) if i not in live)
    return dead / total


def declared(section: str, values: dict) -> dict:
    """Attach units to figures, checking they are exactly the metrics that
    BENCHMARK.json declares for this mode."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        units = {m["name"]: m["unit"] for m in json.load(fh)[section]}
    if set(values) != set(units):
        raise RuntimeError(f"figures differ from BENCHMARK.json: {sorted(set(values) ^ set(units))}")
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def main() -> int:
    parser = argparse.ArgumentParser(description="cmt benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    w = WORKLOADS[args.workload]
    # a terminated run still removes its work directory and waits for its child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    errors = micro.cipher_oracle_errors(random.Random(f"{args.seed}:oracle"))
    if errors:
        print("\n".join(errors), file=sys.stderr)
        return 1
    workdir = BENCH / ".work" / f"{w.name}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    run = None
    try:
        run = Run(w, args.seed, workdir)
        setup_s = run.setup()
        correct = True
        try:
            # a fixed count, not a deadline: every run of the workload then
            # attempts the same operations, and the tamper attempts fail the
            # same number of times in each; a traced run does each round twice
            count = max(1, round(args.seconds * w.rounds_per_s))
            if args.trace:
                figures, model = layer_figures(run, max(1, count // 2))
                metrics = declared("per_layer", figures)
            else:
                model = run.rounds(count)
                run.verify(model)
                metrics = declared("end_to_end", end_to_end(run, model, setup_s))
        except CheckFailed as exc:
            print(f"bench: check failed: {exc}", file=sys.stderr)
            correct, metrics = False, {}
        counts = {k: len(v) for k, v in run.samples.items()}
        print(f"workload={w.name} seed={args.seed} rounds={run.rounds_done} "
              f"get_tail=p{w.tail_pct:g} samples={json.dumps(counts)} "
              f"speed_scale_median={statistics.median(run.speed.scales):.4f} "
              f"process_scale_median={statistics.median(run.process_speed.scales or [0]):.4f}")
        print(json.dumps({"correct": correct, "attempted": run.attempted,
                          "failed": run.failed, "metrics": metrics}))
        return 0 if correct else 1
    finally:
        if run is not None:
            run.side_fh.close()
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
