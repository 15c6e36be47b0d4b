"""Shared-table multi-tenant record store, "separate rows" style.

One logical table holds every tenant's rows. Tenant id and row id stay in
clear for addressing; every field value is encrypted under the owning
tenant's derived keys before it touches disk, as opaque bytes whose layout
only `crypto_codec` knows. A tenant's keys come from the master key's
memo (`MasterKey.derived`), derived there on the first use under that
`MasterKey` object; a handle keeps no key cache of its own.

Persistence is an append-only JSON-lines log, replayed on open. An open is
file handling around one pure function, `_replay`. `open_store` opens the
file, locks it, refuses a file that is not a regular one (a FIFO or a
device, whose read would block or never end) and reads it. `_replay` takes
those bytes and returns the state they give: the bytes of the complete
lines, their count, the schema, the live row map, the largest row id and
a row index left empty for `list` to fill. It does no I/O. Each line is
read by one rule, a pattern (`_event_pattern`) compiled once per schema
in a process through `re`'s cache: the event line exactly as
`Store._commit` writes it, newline included, with `validate_tenant_id`'s
tenant rule and `crypto_codec.check_value`'s length rule spelled in
base64. One `findall` of it over the log reads every line `cmt` wrote,
and one loop puts the events straight into the live row map. If it
matches fewer lines than the log holds, the log is read again from the
same start one line at a time (`_line_by_line`): a line the pattern
misses is read as its respelling (`_respell`), what `json.loads` reads in
the line decoded as UTF-8, re-encoded as `cmt` writes it, so whitespace,
key order, "ts" and escapes keep their `json.loads` meaning and json
decides nothing else; a bad line is CorruptLog with its line number.
The header `create_store` writes is read without json too, and json is
imported only for a line or a header spelled otherwise, and by the
first write, for the one encoder every line is written with.
Tests hold the pattern to the writer and to `check_value`, and the replay
to a reference reader of the format. A trailing chunk without its
newline is a torn write (a crash mid-write), which the state's bytes
leave out. `open_store` leaves it in the file with
a `logging` warning (on stderr unless logging is configured), and imports
`logging` on that path only: an open writes nothing, and the handle's
first write cuts the tail. A live row is its tenant and a tuple of its
values in the header's field order, each value kept as the base64 text of
the log, in ASCII bytes: `get` and `list` decode only the values they
return, right before decrypting them. The field names live only in the
schema. Each successful open leaves its state in `_replayed`, keyed by the
file's inode. A replay starts from one state: that entry's if the file
still starts with exactly its bytes (compared in full), else the header's,
the state before the first event; from it, it replays the lines that
follow, and with no line to replay is that state itself. Only
`_read_header` and `_replay` build a state, and a `Store` takes one whole:
it reads the state's live row map until its first write, which copies the
map, so no write reaches the entry and a handle that only reads copies
nothing. `list` reads only the listing tenant's rows. The first `list` on
a state fills the state's row index, each tenant's row ids in ascending
order, in one pass over the state's row map, and every handle on that
state reuses it. A handle keeps the ids it inserts apart, by tenant, and
copies no index on a write: a `list` takes the tenant's ids in the index
and then those it inserted, and skips those it deleted. The replay loop
does no index work.

Each mutation is written and fsynced before the call returns. Bytes past
the last event a handle knows of, a torn tail or an append that failed,
follow one rule: the handle's next write cuts them, and an append that
fails is cut back before the error is raised, or, if that cut fails too,
left for the next write to cut. A closed handle, whose lock is gone and
whose rows may be stale, refuses reads and writes. Values must be `str`,
encodable as UTF-8. A handle is one open file, locked by an advisory
`flock` on that file itself, so the lock is the inode's and a symlink or
hard link meets it too; the opener locks before it reads. `list` verifies
and decrypts all of a tenant's values as one batch
(`crypto_codec.decrypt_values`), `get` one value at a time; a value that
verifies but is not UTF-8 is AuthError.

File format (UTF-8, newline-delimited):
  line 1: {"v":1,"table":"<name>","fields":["f1",...]}
    ("v" is read first: any other integer is VersionMismatch, whatever
    the rest of the header holds)
  then one event per line:
    {"op":"ins"|"upd"|"del","t":"<tenant>","r":<row_id>,
     "f":{"<field>":"<base64 IV||ct||tag>",...}}   (every header field; no "f" for del)
  Replay reads only "op", "t", "r" and "f": the "ts" (unix seconds) that
  earlier versions wrote into every event is read and ignored. A tenant
  is one that `validate_tenant_id` takes, all of `key_service.TENANT_ID`;
  a row id is 1 to 16 digits (`Store.insert` refuses to go past them);
  and a value is base64 without "=" after whole quads.
"""

import binascii
import fcntl
import functools
import os
import re
import stat
import threading
from collections import defaultdict, namedtuple

from .crypto_codec import decrypt_value, decrypt_values, encrypt_value
from .errors import (
    AlreadyExists,
    AuthError,
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
from .key_service import TENANT_ID, MasterKey, TenantKeySet, derive_tenant_keys, validate_tenant_id

FORMAT_VERSION = 1

# used with fullmatch: "$" would also match before a final newline
_NAME_RE = re.compile(r"[a-z0-9_]{1,64}")

# The header line `create_store` writes, read without json: "v" is
# FORMAT_VERSION and every name is all of `_NAME_RE`; its groups are the
# table and the fields joined by '","'. A header spelled otherwise is read
# by `json.loads`.
_NAME = _NAME_RE.pattern.encode("ascii")
_HEADER_RE = re.compile(rb'\{"v":%d,"table":"(%s)","fields":\["(%s(?:","%s)*)"\]\}'
                        % (FORMAT_VERSION, _NAME, _NAME, _NAME))


@functools.cache
def _encoder():
    """The one compact encoder for every line written, built on the first
    write, so a process that only reads never imports json: json.dumps
    builds a new encoder on each call that passes separators."""
    import json

    return json.JSONEncoder(separators=(",", ":")).encode


class TableSchema(namedtuple("TableSchema", "table_name field_names")):
    """The table's name and its field names, in order: a list or tuple of 1
    to 32 distinct fields, kept as a tuple, and every name a string that is
    all of `[a-z0-9_]{1,64}`; InvalidSchema otherwise."""

    __slots__ = ()

    def __new__(cls, table_name: str, field_names: tuple):
        if not (isinstance(table_name, str) and _NAME_RE.fullmatch(table_name)):
            raise InvalidSchema(f"bad table name: {table_name!r}")
        # a string would split into letters, and a dict read as its keys
        if not isinstance(field_names, (list, tuple)):
            raise InvalidSchema(f"fields must be a list or tuple, not {type(field_names).__name__}")
        if not 1 <= len(field_names) <= 32:
            raise InvalidSchema("schema must have 1..32 fields")
        for name in field_names:
            if not (isinstance(name, str) and _NAME_RE.fullmatch(name)):
                raise InvalidSchema(f"bad field name: {name!r}")
        if len(set(field_names)) != len(field_names):
            raise InvalidSchema("duplicate field names")
        return super().__new__(cls, table_name, tuple(field_names))


class Record(namedtuple("Record", "row_id tenant fields")):
    """A decrypted row as returned to an authorized caller: its row id,
    tenant and a dict of field name to text."""

    __slots__ = ()


def _flock(fh, path: str) -> None:
    """Take the store's advisory lock on its open file `fh`."""
    try:
        fcntl.flock(fh, fcntl.LOCK_EX | fcntl.LOCK_NB)
    except OSError:
        raise StoreLocked(f"store is locked by another process: {path!r}") from None


def _write_all(fh, data: bytes) -> None:
    """Write all of `data`; an unbuffered write may take only part of it."""
    data = memoryview(data)
    while data:
        data = data[fh.write(data) :]


def _utf8(plains: list[bytes]) -> list[str]:
    """Decrypted values as text. The store writes only UTF-8, so a value
    that verified and does not decode is a forgery."""
    try:
        return list(map(bytes.decode, plains))  # UTF-8, strict
    except UnicodeDecodeError:
        raise AuthError("a value whose tag verifies is not UTF-8 text") from None


class Store:
    """Handle over one store file. Single writer per process; mutations
    serialize through an internal lock. One handle per file across
    processes: `fh`, the store's one open file, carries the advisory flock
    that `create_store`/`open_store` took on it, and `close` releases the
    lock by closing the file. `state` is the store state the handle starts
    from (see `_replayed`). The handle reads the state's live row map
    itself, and takes a copy of it at its first write (see `_commit`), so a
    handle that only reads copies nothing. It shares the state's row index,
    which `list` fills, and keeps the row ids it inserts in `_inserted`.
    `_end` is where the handle's last event ends in the file: the length of
    the state's bytes, then of each event it commits."""

    def __init__(self, path: str, master: MasterKey | None, fh, state: tuple):
        self.path = path
        done, _, self.schema, live, self._max_row_id, self._index = state
        self._end = len(done)
        self._master = master
        self._fh = fh
        self._live: dict[int, tuple[str, tuple[bytes, ...]]] = live  # base64 values
        self._state_live = live  # never written: the state's, maybe a memo entry's
        # row ids this handle inserted, by tenant, ascending: each insert
        # takes the next id, past every id of the state
        self._inserted: dict[str, list[int]] = {}
        self._mutex = threading.Lock()

    # -- lifecycle -----------------------------------------------------

    def close(self) -> None:
        self._fh.close()

    def __enter__(self) -> "Store":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- internals -----------------------------------------------------

    def _keys_for(self, tenant: str) -> TenantKeySet:
        if self._master is None:
            raise MissingKey("store was opened without a master key")
        derived = self._master.derived
        if tenant not in derived:
            derived[tenant] = derive_tenant_keys(self._master, tenant)
        return derived[tenant]

    def _commit(self, op: str, tenant: str, row_id: int, values=None) -> None:
        """Append one event at `_end`, fsync it, then apply it to the live
        rows. Bytes past `_end`, a torn tail or a failed append that could
        not be cut back, are cut first, so the event never glues onto a
        fragment, and a failed append's row id is free again. If the write
        or the fsync fails, the file is cut back to `_end`, so the log holds
        no event the caller saw fail, and the live rows are left untouched;
        if that cut fails too, the error is raised all the same and the
        next write cuts the bytes. The first event applied replaces the
        state's row map with the handle's own copy. The live row keeps the
        base64 text the line holds."""
        self._refuse_if_closed()
        event = {"op": op, "t": tenant, "r": row_id}
        if values is not None:
            values = tuple([binascii.b2a_base64(value, newline=False) for value in values])
            event["f"] = {name: value.decode("ascii")
                          for name, value in zip(self.schema.field_names, values)}
        line = (_encoder()(event) + "\n").encode("ascii")
        offset = self._fh.seek(0, os.SEEK_END)
        try:
            # `>`, not `!=`: a file that shrank under a writer ignoring the
            # lock takes the event at its end
            if offset > self._end:
                offset = self._fh.truncate(self._end)
                self._fh.seek(offset)
            _write_all(self._fh, line)
            os.fsync(self._fh.fileno())
        except OSError:
            try:
                self._fh.truncate(offset)
            except OSError:
                pass  # the bytes stay past `_end`, for the next write to cut
            raise
        self._end = offset + len(line)
        # by identity: a map put in `_live` since (a copy, or a probe's
        # counting wrapper) is the handle's own
        if self._live is self._state_live:
            self._live = dict(self._live)
        if values is None:
            self._live.pop(row_id, None)
        else:
            self._live[row_id] = (tenant, values)
        if op == "ins":
            self._inserted.setdefault(tenant, []).append(row_id)
        self._max_row_id = max(self._max_row_id, row_id)

    def _refuse_if_closed(self) -> None:
        # another handle may have written since this one let its lock go
        if self._fh.closed:
            raise StoreError(f"the store handle is closed; reopen the store: {self.path!r}")

    def _live_row(self, tenant: str, row_id: int) -> tuple[bytes, ...]:
        # callers hold _mutex
        self._refuse_if_closed()
        validate_tenant_id(tenant)
        # 1.0 and True equal the key 1 but are no row id the log could hold
        if type(row_id) is not int or row_id not in self._live:
            raise NotFound(f"no live row {row_id!r}")
        owner, values = self._live[row_id]
        # ownership is checked on the clear tenant column, never by decrypting
        if owner != tenant:
            raise IsolationDenied(f"row {row_id} belongs to another tenant")
        return values

    def _encrypt_fields(self, tenant: str, values: dict[str, str]) -> tuple[bytes, ...]:
        if set(values) != set(self.schema.field_names):
            missing = set(self.schema.field_names) - set(values)
            extra = set(values) - set(self.schema.field_names)
            raise SchemaMismatch(f"missing={sorted(missing)} extra={sorted(extra)}")
        plains = []
        for name in self.schema.field_names:
            value = values[name]
            if not isinstance(value, str):
                raise InvalidSchema(f"value of {name!r} is not a str but {type(value).__name__}")
            try:
                plains.append(value.encode("utf-8"))
            except UnicodeEncodeError:
                raise InvalidSchema(f"value of {name!r} is not valid UTF-8") from None
        keys = self._keys_for(tenant)
        return tuple([encrypt_value(plain, keys) for plain in plains])

    # -- operations ----------------------------------------------------

    def insert(self, tenant: str, values: dict[str, str]) -> int:
        validate_tenant_id(tenant)
        with self._mutex:
            row_id = self._max_row_id + 1
            # the event pattern's row ids have at most 16 digits; refused
            # before any key is derived or any value encrypted
            if row_id >= 10**16:
                raise StoreError(f"store {self.path!r} is full: its last row id is {row_id - 1}")
            self._commit("ins", tenant, row_id, self._encrypt_fields(tenant, values))
        return row_id

    def get(self, tenant: str, row_id: int) -> Record:
        # get and list copy the rows they need under _mutex and decrypt after
        # releasing it, so a concurrent mutation neither waits on the
        # decryption nor changes the row map under the reader
        with self._mutex:
            values = self._live_row(tenant, row_id)
        keys = self._keys_for(tenant)
        texts = _utf8([decrypt_value(binascii.a2b_base64(value), keys) for value in values])
        return Record(row_id=row_id, tenant=tenant,
                      fields=dict(zip(self.schema.field_names, texts)))

    def list(self, tenant: str) -> "list[Record]":
        """The tenant's rows by row id; every value of every row is verified
        before any is decrypted, in one batch. It reads only the tenant's
        rows: those of the state's row index, built at the first `list` on
        the state, then those this handle inserted, each only if still
        live."""
        validate_tenant_id(tenant)
        with self._mutex:
            self._refuse_if_closed()
            if not self._index:  # the first list on this state, on any handle
                by_tenant = defaultdict(list)
                for row_id, row in self._state_live.items():
                    by_tenant[row[0]].append(row_id)
                for row_ids in by_tenant.values():
                    row_ids.sort()  # ascending already, unless the log was edited
                self._index.update(by_tenant)
            rows, live = [], self._live
            for row_id in self._index.get(tenant, []) + self._inserted.get(tenant, []):
                if row_id in live:  # not deleted by this handle
                    owner, values = live[row_id]
                    if owner == tenant:
                        rows.append((row_id, values))
        if not rows:
            return []
        values = [binascii.a2b_base64(value) for _, row in rows for value in row]
        texts = iter(_utf8(decrypt_values(values, self._keys_for(tenant))))
        names = self.schema.field_names
        # zip stops at the last name before it draws on `texts`, so each row
        # takes the next len(names) texts
        return [Record(row_id, tenant, dict(zip(names, texts))) for row_id, _ in rows]

    def update(self, tenant: str, row_id: int, values: dict[str, str]) -> None:
        with self._mutex:
            self._live_row(tenant, row_id)
            self._commit("upd", tenant, row_id, self._encrypt_fields(tenant, values))

    def delete(self, tenant: str, row_id: int) -> None:
        with self._mutex:
            self._live_row(tenant, row_id)
            self._commit("del", tenant, row_id)


def create_store(path: str, schema: TableSchema, master: MasterKey | None = None) -> Store:
    header = (_encoder()({"v": FORMAT_VERSION, "table": schema.table_name,
                          "fields": list(schema.field_names)}) + "\n").encode("utf-8")
    # "x" creates the file or fails: an existing store, even one another
    # process created a moment ago, is never truncated
    try:
        fh = open(path, "xb", buffering=0)
    except FileExistsError:
        raise AlreadyExists(f"store file already exists: {path!r}") from None
    try:
        _flock(fh, path)
        _write_all(fh, header)
        os.fsync(fh.fileno())
        # the new file's directory entry is durable only once its directory is
        dir_fd = os.open(os.path.dirname(os.path.abspath(path)), os.O_RDONLY)
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)
    except BaseException:
        # O_EXCL made the file ours: a half-made store would block a retry
        with fh:
            os.unlink(path)
        raise
    return Store(path, master, fh, _read_header(path, header))


# One value as `Store._commit` spells it: base64 whose decoded length
# `check_value` accepts, a multiple of 16 bytes from 48 up. 48 bytes are 64
# characters; a length 16 or 32 bytes past a multiple of 48 ends in 22
# characters and "==" or 43 and "=". The quantifiers are possessive: a
# value ends at a quote and its tail is shorter than a quad run of 64, so
# giving characters back could never make a line match.
_VALUE = rb"((?:[A-Za-z0-9+/]{64})++(?:[A-Za-z0-9+/]{22}==|[A-Za-z0-9+/]{43}=)?+)"


def _event_pattern(names: tuple) -> re.Pattern:
    """The event line `Store._commit` writes under a header of field
    `names`, compiled once per process through `re`'s cache, which keys
    a compiled pattern by its bytes: a tenant that `validate_tenant_id`
    takes (its rule, `key_service.TENANT_ID`), a row id of 1 to 16 digits,
    and for an insert or update every field in header order. It matches a
    whole line, from its start to its newline, so one `findall` reads
    every such line of a log, and `match` one line with its newline. Its
    groups are "del" (None or empty bytes otherwise), the tenant, the row
    id and each value. It is the one rule for an event: a line spelled
    otherwise is read as its `_respell`."""
    fields = b",".join(b'"%s":"%s"' % (name.encode("ascii"), _VALUE) for name in names)
    tenant = TENANT_ID.encode("ascii")
    return re.compile(rb'(?m)^\{"op":"(?:ins|upd|(del))","t":"(' + tenant + rb')","r":([1-9][0-9]{0,15})'
                      rb'(?(1)|,"f":\{' + fields + rb"\})\}\n")


def _respell(line: bytes, names: tuple) -> bytes:
    """The event that `json.loads` reads in `line`, spelled as
    `Store._commit` writes it: "op", "t" and "r", then, unless "op" is
    "del", "f" with the header's field `names` first, in their order. The
    event's other keys are dropped and the other keys of "f" kept, for the
    event pattern to refuse. A line json cannot read raises ValueError, one
    nested too deep RecursionError, and one that is no object with those
    keys TypeError or KeyError.

    The line is decoded as UTF-8 before `json.loads` reads it: given bytes,
    `json.loads` would also take UTF-16, UTF-32 and a UTF-8 BOM, which
    `cmt` never writes."""
    import json  # only a line `cmt` did not write needs it

    event = json.loads(line.decode("utf-8"))
    respelled = {"op": event["op"], "t": event["t"], "r": event["r"]}
    if event["op"] != "del":
        # `**` takes only a mapping, where dict.update would take a list of pairs
        respelled["f"] = {**dict.fromkeys(names), **event["f"]}
    return _encoder()(respelled).encode("ascii")


def _read_header(path: str, raw: bytes) -> tuple:
    """The state before the first event of the store file `raw`: (its header
    line with the newline, 1, schema, {}, 0, {}), in the shape of a
    `_replayed` entry."""
    if not raw:
        raise CorruptHeader(f"empty store file: {path!r}")
    end = raw.find(b"\n")
    if end == 0:
        raise CorruptHeader(f"empty header line in {path!r}")
    # a header without its newline is not a torn event: truncating it as one
    # would leave an empty file that the next append makes headerless
    if end < 0:
        raise CorruptHeader(f"header of {path!r} does not end in a newline")
    plain = _HEADER_RE.fullmatch(raw, 0, end)
    if plain:  # as `create_store` writes it
        table, fields = plain[1].decode("ascii"), plain[2].decode("ascii").split('","')
    else:
        import json  # only a header `cmt` did not write needs it

        try:
            header = json.loads(raw[:end].decode("utf-8"))
            version = header["v"]
        except (ValueError, KeyError, TypeError, RecursionError) as exc:
            raise CorruptHeader(f"unparseable header in {path!r}: {exc}") from None
        # "v" first, so a header of another version is named so whatever its
        # shape; json gives True for `true`, and True == 1
        if type(version) is not int:
            raise CorruptHeader(f'header of {path!r} needs an integer "v"')
        if version != FORMAT_VERSION:
            raise VersionMismatch(
                f"store {path!r} is format version {version}; cmt reads version {FORMAT_VERSION}")
        # a missing "table" or "fields" reads as None, which TableSchema refuses
        table, fields = header.get("table"), header.get("fields")
    try:  # the count and duplicates of the fields are checked here on either path
        schema = TableSchema(table, fields)
    except InvalidSchema as exc:  # a usage error at init, a corrupt file here
        raise CorruptHeader(f"header of {path!r}: {exc}") from None
    return raw[: end + 1], 1, schema, {}, 0, {}


# (st_dev, st_ino) -> the state that the last successful open in this
# process replayed of that file. A store state is (done, lines, schema,
# live, max_row_id, index): `done` is the bytes of the complete lines
# replayed (header included), `lines` their count, `live` the live row map
# and `index` the row ids of `live` by tenant, empty until a `list` on the
# state fills it. Only `_read_header` and `_replay` build one. Only what is
# on disk: no key, no plaintext. Never updated by a mutation, never evicted.
# A handle shares its entry's live row map until the handle's first write,
# which copies it, and shares the (tenant, values) rows and the row index
# for good: the rows are tuples of bytes, and the index is filled once.
_replayed: dict = {}


def _replay(path: str, raw: bytes, start: tuple | None) -> tuple:
    """The store state of the file `path` whose bytes are `raw`, replayed
    from `start`, a `_replayed` entry or None. The state's bytes leave out a
    torn tail. It reads, writes and logs nothing, and changes no state it
    was given: when no complete line follows the start, it returns the start
    itself, else a state with a new live row map and an empty row index. A
    bad line is CorruptLog, a bad header CorruptHeader."""
    # replay is a pure function of the file's bytes, so a file that still
    # starts with the bytes the last open replayed starts from that open's
    # state, and any other from its header's
    if start is None or not raw.startswith(start[0]):
        start = _read_header(path, raw)
    done, number, schema, live, max_row_id, _ = start
    # the complete lines: a trailing chunk without its newline is a torn
    # write, left out
    begin = len(done)
    count = raw.count(b"\n", begin)
    if not count:
        return start
    live = dict(live)
    names = schema.field_names
    pattern = _event_pattern(names)
    # each match is one whole line, so as many matches as lines is every
    # line as `Store._commit` writes it
    events = pattern.findall(raw, begin)
    if len(events) != count:
        events = _line_by_line(path, raw, begin, number, pattern, names)
    for event in events:
        row_id = int(event[2])
        if event[0]:
            live.pop(row_id, None)
        else:
            live[row_id] = (event[1].decode("ascii"), event[3:])
        if row_id > max_row_id:
            max_row_id = row_id
    return raw[: raw.rindex(b"\n") + 1], number + count, schema, live, max_row_id, {}


def _line_by_line(path: str, raw: bytes, begin: int, number: int, pattern, names: tuple):
    """The groups of each complete line of `raw` from `begin` on, the
    first numbered `number + 1`, one line at a time: a line that `pattern`
    misses is matched once more as its `_respell`, and the first line
    that neither matches is CorruptLog naming it."""
    lines = raw[begin:].split(b"\n")
    lines.pop()  # the torn tail, or nothing
    for number, line in enumerate(lines, start=number + 1):
        try:  # any other spelling means what json.loads reads
            event = pattern.match(line + b"\n") or pattern.match(_respell(line, names) + b"\n")
        except (ValueError, RecursionError) as exc:  # no JSON
            raise CorruptLog(f"corrupt event at line {number} of {path!r}: {exc}") from None
        except (TypeError, KeyError):  # JSON, but no object with the event's keys
            event = None
        if event is None:
            raise CorruptLog(f"corrupt event at line {number} of {path!r}: not a well-formed event")
        yield event.groups()


def open_store(path: str, master: MasterKey | None = None) -> Store:
    fh = open(path, "r+b", buffering=0)
    try:
        # lock before reading: a live writer's half-written line is not torn
        _flock(fh, path)
        info = os.fstat(fh.fileno())
        # a FIFO would block the read below, and a device could feed it forever
        if not stat.S_ISREG(info.st_mode):
            raise StoreError(f"not a regular file: {path!r}")
        raw = fh.read()
        inode = (info.st_dev, info.st_ino)
        state = _replay(path, raw, _replayed.get(inode))
        torn = len(raw) - len(state[0])
        if torn:
            import logging  # loaded only here, so a process that never tears pays nothing

            logging.getLogger(__name__).warning(
                "torn trailing write in %r (%d bytes): the next write cuts it", path, torn)
        _replayed[inode] = state
        return Store(path, master, fh, state)
    except BaseException:
        fh.close()
        raise
