"""Forged-event attempts against a small fixed store.

Each attempt appends one forged `upd` event for the target row to a copy of
a three-row store, reopens it with the master key and reads the row back.
The attempt succeeds only if `get` raises AuthError. The store's contents
are fixed, so the outcome does not depend on the run's seed.
"""

import base64
import json
import os

from cmt import tenant_store
from cmt.errors import AuthError
from cmt.tenant_store import TableSchema

SCHEMA = TableSchema("student_entry", ("name", "contact", "department"))
TARGET_TENANT, OTHER_TENANT = "tamper_a", "tamper_b"
# name values are two blocks or more, so a length extension keeps valid padding
ROWS = (
    (TARGET_TENANT, {"name": "Tamper Target Name 01", "contact": "98765-43210", "department": "physics"}),
    (TARGET_TENANT, {"name": "Second Row Of Tenant A", "contact": "12345-67890", "department": "history"}),
    (OTHER_TENANT, {"name": "Row Of The Other Tenant", "contact": "55555-00000", "department": "law"}),
)
TARGET_ROW, SIBLING_ROW, FOREIGN_ROW = 1, 2, 3

KINDS = (
    "bit_flip",
    "cross_tenant_value",
    "cbc_mac_length_extension",
    "field_swap",
    "same_tenant_row_value",
)


def build_base(path: str, master) -> bytes:
    store = tenant_store.create_store(path, SCHEMA, master)
    with store:
        for tenant, fields in ROWS:
            store.insert(tenant, fields)
    with open(path, "rb") as fh:
        return fh.read()


def _fields_by_row(base: bytes) -> dict:
    rows = {}
    for line in base.split(b"\n")[1:]:
        if line:
            event = json.loads(line)
            rows[event["r"]] = {k: base64.b64decode(v) for k, v in event["f"].items()}
    return rows


def _forge(base: bytes, kind: str) -> bytes:
    rows = _fields_by_row(base)
    fields = dict(rows[TARGET_ROW])
    if kind == "bit_flip":
        raw = bytearray(fields["name"])
        raw[20] ^= 0x01  # a bit of the first ciphertext block
        fields["name"] = bytes(raw)
    elif kind == "cross_tenant_value":
        fields["name"] = rows[FOREIGN_ROW]["name"]
    elif kind == "cbc_mac_length_extension":
        raw = fields["name"]
        iv, ct, tag = raw[:16], raw[16:-16], raw[-16:]
        # CBC-MAC(IV || ct) = tag, so the chain restarts at IV ^ tag
        fields["name"] = iv + ct + bytes(a ^ b for a, b in zip(iv, tag)) + ct + tag
    elif kind == "field_swap":
        fields["name"], fields["contact"] = fields["contact"], fields["name"]
    elif kind == "same_tenant_row_value":
        fields["name"] = rows[SIBLING_ROW]["name"]
    else:
        raise ValueError(kind)
    event = {
        "op": "upd",
        "t": TARGET_TENANT,
        "r": TARGET_ROW,
        "ts": 0,
        "f": {k: base64.b64encode(v).decode("ascii") for k, v in fields.items()},
    }
    return base + json.dumps(event, separators=(",", ":")).encode("ascii") + b"\n"


def attempt(kind: str, base: bytes, path: str, master) -> bool:
    """True when the forged value is rejected with AuthError."""
    with open(path, "wb") as fh:
        fh.write(_forge(base, kind))
        fh.flush()
        os.fsync(fh.fileno())
    with tenant_store.open_store(path, master) as store:
        try:
            store.get(TARGET_TENANT, TARGET_ROW)
        except AuthError:
            return True
        except (UnicodeDecodeError, AssertionError):
            # a forged value that passed the tag check and then failed to
            # decode or unpad is still an accepted forgery
            return False
        return False
