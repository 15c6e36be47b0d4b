"""Shared-table multi-tenant record store, "separate rows" style.

One logical table holds every tenant's rows. Tenant id and row id stay in
clear for addressing; every field value is encrypted under the owning
tenant's derived keys before it touches disk. Persistence is an
append-only JSON-lines log replayed in full on open; each mutation is
written and fsynced before the call returns, and an append that fails is
cut back off the file before the error is raised; if that cut fails too,
the handle refuses every later mutation until the store is reopened. A
trailing torn line (crash mid-write) is truncated on open with a warning,
once the opener holds the store's lock. `list` verifies and decrypts all
of a tenant's values as one batch (`crypto_codec.decrypt_values`), `get`
one value at a time.

File format (UTF-8, newline-delimited):
  line 1: {"v":1,"table":"<name>","fields":["f1",...]}
  then one event per line:
    {"op":"ins"|"upd"|"del","t":"<tenant>","r":<row_id>,"ts":<unix s>,
     "f":{"<field>":"<base64 IV||ct||tag>",...}}   ("f" omitted for del)
"""

import base64
import fcntl
import json
import logging
import os
import re
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .crypto_codec import CipherValue, decrypt_value, decrypt_values, encrypt_value
from .errors import (
    AlreadyExists,
    CorruptHeader,
    CorruptLog,
    InvalidSchema,
    IsolationDenied,
    NotFound,
    SchemaMismatch,
    MissingKey,
    StoreError,
    StoreLocked,
    VersionMismatch,
)
from .key_service import MasterKey, TenantKeySet, derive_tenant_keys, validate_tenant_id

logger = logging.getLogger(__name__)

FORMAT_VERSION = 1

_NAME_RE = re.compile(r"^[a-z0-9_]{1,64}$")


@dataclass(frozen=True)
class TableSchema:
    table_name: str
    field_names: Tuple[str, ...]

    def __post_init__(self):
        if not _NAME_RE.match(self.table_name):
            raise InvalidSchema(f"bad table name: {self.table_name!r}")
        if not 1 <= len(self.field_names) <= 32:
            raise InvalidSchema("schema must have 1..32 fields")
        for name in self.field_names:
            if not _NAME_RE.match(name):
                raise InvalidSchema(f"bad field name: {name!r}")
        if len(set(self.field_names)) != len(self.field_names):
            raise InvalidSchema("duplicate field names")


@dataclass(frozen=True)
class Record:
    """A decrypted row as returned to an authorized caller."""

    row_id: int
    tenant: str
    fields: Dict[str, str]


def _lock(path: str):
    """Take the advisory flock on <path>.lock; the returned file holds it."""
    lock_fh = open(path + ".lock", "a")
    try:
        fcntl.flock(lock_fh, fcntl.LOCK_EX | fcntl.LOCK_NB)
    except OSError:
        lock_fh.close()
        raise StoreLocked(f"store is locked by another process: {path}") from None
    return lock_fh


def _unlock(lock_fh) -> None:
    fcntl.flock(lock_fh, fcntl.LOCK_UN)
    lock_fh.close()


class Store:
    """Handle over one store file. Single writer per process; mutations
    serialize through an internal lock. One process per file, enforced by
    an advisory flock on <path>.lock, which the handle takes over from
    `create_store`/`open_store` and releases on close."""

    def __init__(self, path: str, schema: TableSchema, master: Optional[MasterKey], lock_fh):
        self.path = path
        self.schema = schema
        self._master = master
        self._live: Dict[int, Tuple[str, Dict[str, CipherValue]]] = {}
        self._max_row_id = 0
        self._mutex = threading.Lock()
        self._key_cache: Dict[str, TenantKeySet] = {}
        self._fh = open(path, "ab", buffering=0)
        self._lock_fh = lock_fh
        self._broken: Optional[str] = None  # why no mutation may append any more

    # -- lifecycle -----------------------------------------------------

    def close(self) -> None:
        self._fh.close()
        _unlock(self._lock_fh)

    def __enter__(self) -> "Store":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- internals -----------------------------------------------------

    def _keys_for(self, tenant: str) -> TenantKeySet:
        if self._master is None:
            raise MissingKey("store was opened without a master key")
        if tenant not in self._key_cache:
            self._key_cache[tenant] = derive_tenant_keys(self._master, tenant)
        return self._key_cache[tenant]

    def _commit(self, op: str, tenant: str, row_id: int, fields=None) -> None:
        """Append one event, fsync it, then apply it to the live rows. If
        the write or the fsync fails, the file is cut back to its length
        before the event, so the log holds no event the caller saw fail. If
        that cut fails too, the handle refuses every later mutation: the
        file may hold the failed event, and an append after it could reuse
        its row id or glue onto a fragment."""
        if self._broken:
            raise StoreError(f"{self._broken}; reopen the store: {self.path}")
        event = {"op": op, "t": tenant, "r": row_id, "ts": int(time.time())}
        if fields is not None:
            event["f"] = {
                name: base64.b64encode(cv.to_bytes()).decode("ascii")
                for name, cv in fields.items()
            }
        line = memoryview((json.dumps(event, separators=(",", ":")) + "\n").encode("ascii"))
        offset = self._fh.seek(0, os.SEEK_END)
        try:
            while line:
                line = line[self._fh.write(line) :]
            os.fsync(self._fh.fileno())
        except OSError as exc:
            try:
                self._fh.truncate(offset)
            except OSError as cut:
                self._broken = f"a failed append ({exc}) could not be cut off the log ({cut})"
            raise
        self._apply(op, tenant, row_id, fields)

    def _apply(self, op: str, tenant: str, row_id: int, fields) -> None:
        if op == "del":
            self._live.pop(row_id, None)
        else:
            self._live[row_id] = (tenant, fields)
        self._max_row_id = max(self._max_row_id, row_id)

    def _live_row(self, tenant: str, row_id: int) -> Dict[str, CipherValue]:
        # callers hold _mutex
        validate_tenant_id(tenant)
        if row_id not in self._live:
            raise NotFound(f"no live row {row_id}")
        owner, fields = self._live[row_id]
        # ownership is checked on the clear tenant column, never by decrypting
        if owner != tenant:
            raise IsolationDenied(f"row {row_id} belongs to another tenant")
        return fields

    def _encrypt_fields(self, tenant: str, values: Dict[str, str]) -> Dict[str, CipherValue]:
        if set(values) != set(self.schema.field_names):
            missing = set(self.schema.field_names) - set(values)
            extra = set(values) - set(self.schema.field_names)
            raise SchemaMismatch(f"missing={sorted(missing)} extra={sorted(extra)}")
        keys = self._keys_for(tenant)
        return {
            name: encrypt_value(values[name].encode("utf-8"), keys)
            for name in self.schema.field_names
        }

    # -- operations ----------------------------------------------------

    def insert(self, tenant: str, values: Dict[str, str]) -> int:
        validate_tenant_id(tenant)
        with self._mutex:
            encrypted = self._encrypt_fields(tenant, values)
            row_id = self._max_row_id + 1
            self._commit("ins", tenant, row_id, encrypted)
        return row_id

    def get(self, tenant: str, row_id: int) -> Record:
        # get and list copy the rows they need under _mutex and decrypt after
        # releasing it, so a concurrent mutation neither waits on the
        # decryption nor changes the row map under the reader
        with self._mutex:
            fields = self._live_row(tenant, row_id)
        keys = self._keys_for(tenant)
        plain = {name: decrypt_value(cv, keys).decode("utf-8") for name, cv in fields.items()}
        return Record(row_id=row_id, tenant=tenant, fields=plain)

    def list(self, tenant: str) -> List[Record]:
        """The tenant's rows by row id; every value of every row is verified
        before any is decrypted, in one batch."""
        validate_tenant_id(tenant)
        with self._mutex:
            rows = []
            for row_id in sorted(self._live):
                owner, fields = self._live[row_id]
                if owner == tenant:
                    rows.append((row_id, fields))
        if not rows:
            return []
        values = [cv for _, fields in rows for cv in fields.values()]
        plain = iter(decrypt_values(values, self._keys_for(tenant)))
        return [
            Record(row_id=row_id, tenant=tenant,
                   fields={name: next(plain).decode("utf-8") for name in fields})
            for row_id, fields in rows
        ]

    def update(self, tenant: str, row_id: int, values: Dict[str, str]) -> None:
        with self._mutex:
            self._live_row(tenant, row_id)
            self._commit("upd", tenant, row_id, self._encrypt_fields(tenant, values))

    def delete(self, tenant: str, row_id: int) -> None:
        with self._mutex:
            self._live_row(tenant, row_id)
            self._commit("del", tenant, row_id)


def create_store(path: str, schema: TableSchema, master: Optional[MasterKey] = None) -> Store:
    if os.path.exists(path):
        raise AlreadyExists(f"store file already exists: {path}")
    header = {
        "v": FORMAT_VERSION,
        "table": schema.table_name,
        "fields": list(schema.field_names),
    }
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(header, separators=(",", ":")) + "\n")
        fh.flush()
        os.fsync(fh.fileno())
    # the new file's directory entry is durable only once its directory is
    dir_fd = os.open(os.path.dirname(os.path.abspath(path)), os.O_RDONLY)
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)
    return Store(path, schema, master, _lock(path))


def _decode_event(event) -> tuple:
    """(op, tenant, row_id, fields) of one parsed log line, fields None for
    a delete. A malformed line raises ValueError or TypeError."""
    if not isinstance(event, dict):
        raise ValueError("event is not a JSON object")
    op, tenant, row_id = event.get("op"), event.get("t"), event.get("r")
    if op not in ("ins", "upd", "del"):
        raise ValueError(f"unknown op {op!r}")
    if not isinstance(tenant, str):
        raise ValueError('"t" must be a string')
    if type(row_id) is not int or row_id < 1:
        raise ValueError('"r" must be a positive integer')
    if op == "del":
        return op, tenant, row_id, None
    encoded = event.get("f")
    if not isinstance(encoded, dict):
        raise ValueError('"f" must map field names to base64 strings')
    # b64decode raises TypeError for a value that is not a string
    fields = {
        name: CipherValue.from_bytes(base64.b64decode(b64, validate=True))
        for name, b64 in encoded.items()
    }
    return op, tenant, row_id, fields


def open_store(path: str, master: Optional[MasterKey] = None) -> Store:
    with open(path, "rb") as fh:
        # lock before reading: a live writer's half-written line is not torn
        lock_fh = _lock(path)
        try:
            store = _load(path, fh.read(), master, lock_fh)
        except BaseException:
            _unlock(lock_fh)
            raise
    return store


def _load(path: str, raw: bytes, master: Optional[MasterKey], lock_fh) -> Store:
    lines = raw.split(b"\n")
    if not lines or not lines[0]:
        raise CorruptHeader(f"empty store file: {path}")
    try:
        header = json.loads(lines[0].decode("utf-8"))
        version = header["v"]
        schema = TableSchema(header["table"], tuple(header["fields"]))
    except (ValueError, KeyError, TypeError) as exc:
        raise CorruptHeader(f"unparseable header in {path}: {exc}") from None
    if version != FORMAT_VERSION:
        raise VersionMismatch(f"unsupported store version {version}")

    # a trailing chunk without its newline is a torn write: drop it
    complete, torn = lines[1:-1], lines[-1]
    events = []
    for number, line in enumerate(complete, start=2):
        try:
            events.append(_decode_event(json.loads(line.decode("utf-8"))))
        except (ValueError, TypeError) as exc:
            raise CorruptLog(f"corrupt event at line {number} of {path}: {exc}") from None
    if torn:
        logger.warning("truncating torn trailing write in %s (%d bytes)", path, len(torn))
        keep = len(raw) - len(torn)
        with open(path, "r+b") as fh:
            fh.truncate(keep)

    store = Store(path, schema, master, lock_fh)
    for event in events:
        store._apply(*event)
    return store
