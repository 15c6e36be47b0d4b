"""The tamper scoreboard: every known way to tamper with a store, and what
`cmt` makes of it at the current FORMAT_VERSION.

Each row of MATRIX is one tamper kind. Its store is built through the
library from one fixed plan with seeded IVs, then tampered in `cmt`'s own
line spelling (the wrong-key insert is written by `cmt` itself) and read
through `cli.main` in process: a `get` of the target row and a `list` of
the target tenant, under the store's key. A kind is refused when every
command exits with one refusing code (3 for `CorruptLog`, 6 for
`AuthError`), prints nothing and leaves the file byte for byte. An
accepted kind is a test of its refusal marked xfail(strict=True) with the
item that closes it: when that item lands the row turns to XPASS, which
fails until the row moves to refused. README's "Known limits" holds the
same table, and `test_readme_holds_the_tamper_table` holds the two equal.
"""

import base64
import json
import os
import random
from pathlib import Path

import pytest

from cmt.cli import main
from cmt.key_service import MASTER_KEY_ENV, MasterKey
from cmt.tenant_store import TableSchema, create_store

SCHEMA = TableSchema("student_entry", ("name", "contact", "department"))
KEY, WRONG_KEY = bytes(range(16)), bytes(range(16, 32))
TARGET, OTHER = "uni_a", "uni_b"
# Lines 1-5 after the header: rows 1 and 2 of the target tenant, row 3 of the
# other, then two updates of row 1. Every name is two blocks or more, so a
# length extension keeps valid padding.
PLAN = (
    ("ins", TARGET, {"name": "Tamper Target Name 01", "contact": "98765-43210", "department": "physics"}),
    ("ins", TARGET, {"name": "Second Row Of Tenant A", "contact": "12345-67890", "department": "history"}),
    ("ins", OTHER, {"name": "Row Of The Other Tenant", "contact": "55555-00000", "department": "law"}),
    ("upd", TARGET, {"name": "Tamper Target Name 02", "contact": "98765-43211", "department": "physics"}),
    ("upd", TARGET, {"name": "Tamper Target Name 03", "contact": "98765-43212", "department": "optics"}),
)
READS = (["get", "--row", "1"], ["list"])
REFUSING = (3, 6)


def _build(path: Path, seed: int) -> list[bytes]:
    """The plan written through the library with IVs drawn from `seed`;
    returns the file's lines, header first."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(os, "urandom", random.Random(seed).randbytes)
        with create_store(str(path), SCHEMA, MasterKey(KEY)) as store:
            for op, tenant, fields in PLAN:
                if op == "ins":
                    store.insert(tenant, fields)
                else:
                    store.update(tenant, 1, fields)
    return path.read_bytes().splitlines()


def _values(line: bytes) -> dict:
    return {k: base64.b64decode(v) for k, v in json.loads(line)["f"].items()}


def _line(op: str, tenant: str, row: int, fields: dict | None = None) -> bytes:
    """An event line as `cmt` spells it: compact JSON, keys op, t, r[, f]."""
    event = {"op": op, "t": tenant, "r": row}
    if fields is not None:
        event["f"] = {k: base64.b64encode(v).decode("ascii") for k, v in fields.items()}
    return json.dumps(event, separators=(",", ":")).encode("ascii")


def _update_of_row_1(lines: list[bytes], **changed: bytes) -> list[bytes]:
    """`lines` and an appended update of row 1: its live values, `changed`."""
    return [*lines, _line("upd", TARGET, 1, {**_values(lines[5]), **changed})]


def _bit_flip(lines, second):
    name = bytearray(_values(lines[5])["name"])
    name[20] ^= 0x01  # a bit of the first ciphertext block
    return _update_of_row_1(lines, name=bytes(name))


def _length_extension(lines, second):
    name = _values(lines[5])["name"]
    iv, ct, tag = name[:16], name[16:-16], name[-16:]
    # CBC-MAC(IV || ct) = tag, so the chain restarts at IV ^ tag
    return _update_of_row_1(lines, name=iv + ct + bytes(a ^ b for a, b in zip(iv, tag)) + ct + tag)


def _field_swap(lines, second):
    fields = _values(lines[5])
    return _update_of_row_1(lines, name=fields["contact"], contact=fields["name"])


def _swapped(lines, i, j):
    lines = list(lines)
    lines[i], lines[j] = lines[j], lines[i]
    return lines


# kind, tampering, refusing exit code (None: accepted), the item that closes
# it (or what refuses it), and the tampering itself, from the store's lines
# and a second store's under the same master key. The wrong-key insert
# leaves the file to `cmt`.
MATRIX = (
    ("bit_flip", "a flipped bit in a value", 6, "the tag",
     _bit_flip),
    ("cross_tenant_value", "a value copied from another tenant", 6, "the tag",
     lambda lines, second: _update_of_row_1(lines, name=_values(lines[3])["name"])),
    ("cbc_mac_length_extension", "the CBC-MAC length extension of a value", 6,
     "the UTF-8 check; item 2a moves it to the tag", _length_extension),
    ("field_swap", "two fields of a row swapped", None, "item 2a",
     _field_swap),
    ("same_tenant_row_value", "a value copied from another row of the same tenant", None, "item 2a",
     lambda lines, second: _update_of_row_1(lines, name=_values(lines[2])["name"])),
    ("update_of_a_row_never_inserted", "an `upd` of a row never inserted, carrying copied values", 3,
     "item 12", lambda lines, second: [*lines, _line("upd", TARGET, 50, _values(lines[1]))]),
    ("foreign_delete", "a `del` of another tenant's row", 3, "item 12",
     lambda lines, second: [*lines, _line("del", OTHER, 1)]),
    ("insert_and_update_swapped", "a row's `ins` and `upd` lines swapped", 3, "item 12",
     lambda lines, second: _swapped(lines, 1, 4)),
    ("replayed_update", "an older update of a row appended again", None, "item 2b",
     lambda lines, second: [*lines, lines[4]]),
    ("updates_swapped", "two updates of a row swapped", None, "item 2b",
     lambda lines, second: _swapped(lines, 4, 5)),
    ("cross_store_value", "a value from a second store under the same master key", None, "item 2c",
     lambda lines, second: _update_of_row_1(lines, name=_values(second[5])["name"])),
    ("wrong_key_insert", "an insert under a master key that is not the store's", None, "item 2c",
     lambda lines, second: lines),
    ("owner_tail_delete", "a `del` of a row appended under its owner", None, "item 13",
     lambda lines, second: [*lines, _line("del", TARGET, 1)]),
    ("dropped_tail_event", "the last event dropped", None, "item 11",
     lambda lines, second: lines[:-1]),
    ("rollback", "the file rolled back to an older copy", None, "item 11",
     lambda lines, second: lines[:4]),
)
# the commands a kind runs, under a key: the target's reads under the
# store's key, but for the wrong-key insert, the insert itself
COMMANDS = {
    "wrong_key_insert": [(WRONG_KEY, ["insert", "--set", "name=Wrong Key Name 01",
                                      "--set", "contact=00000-00000", "--set", "department=law"])],
}


def _outcome(code):
    return "accepted" if code is None else f"refused, exit {code}"


@pytest.mark.parametrize("kind, code, tamper", [
    # an accepted kind's test is its refusal: an AssertionError is its outcome
    pytest.param(kind, code, tamper, id=kind, marks=() if code else pytest.mark.xfail(
        strict=True, reason=item, raises=AssertionError))
    for kind, _, code, item, tamper in MATRIX
])
def test_a_tampered_store_is_refused(kind, code, tamper, tmp_path, monkeypatch, capsys):
    path = tmp_path / "s.cmt"
    lines = _build(path, 1)
    second = _build(tmp_path / "second.cmt", 2)
    path.write_bytes(b"".join(line + b"\n" for line in tamper(lines, second)))
    before = path.read_bytes()
    codes = []
    for key, command in COMMANDS.get(kind, [(KEY, c) for c in READS]):
        monkeypatch.setenv(MASTER_KEY_ENV, key.hex())
        codes.append(main(["--store", str(path), "--tenant", TARGET, *command]))
        assert capsys.readouterr().out == ""
        assert path.read_bytes() == before
    assert len(set(codes)) == 1 and codes[0] in REFUSING
    if code is not None:  # a refused kind's code; an accepted one's is its closing item's
        assert codes[0] == code


def test_the_untampered_store_reads_back_as_written(tmp_path, monkeypatch, capsys):
    # the base every row tampers: each command exits 0, and row 1 reads as
    # its last update
    path = tmp_path / "s.cmt"
    _build(path, 1)
    monkeypatch.setenv(MASTER_KEY_ENV, KEY.hex())
    assert main(["--store", str(path), "--tenant", TARGET, *READS[0]]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "row=1", *(f"{k}={v}" for k, v in PLAN[4][2].items())]
    assert main(["--store", str(path), "--tenant", TARGET, *READS[1]]) == 0
    assert capsys.readouterr().out.count("row=") == 2


def test_readme_holds_the_tamper_table():
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    limits = readme.split("\n## Known limits\n", 1)[1].split("\n## ", 1)[0]
    rows = [line for line in limits.splitlines() if line.startswith("|")]
    cells = [[cell.strip() for cell in row.strip("|").split("|")] for row in rows[2:]]
    assert cells == [[f"`{kind}`", what, _outcome(code), item] for kind, what, code, item, _ in MATRIX]
