"""The log-line decoder of store format v1, read from README's "Store file
format" as written: `json.loads`, then the event checks, with each value
decoded by `base64.b64decode(validate=True)`. It spells each rule of the
format itself: a tenant all of `[a-z0-9_-]{1,64}`, a row id of 1 to 16
digits, a value of a length `check_value` takes, and one spelling per line:
the line is the compact JSON of what json reads in it, its keys "op", "t",
"r", then an older version's integer "ts" if it holds one, then "f" unless
it is a delete, the fields in the header's order, and each value the
base64 `base64.b64encode` gives for its bytes. The tests hold
`tenant_store`'s replay to it: the two read every line alike, to the same
rows, or refuse the same line.

It also states the two rules by which the format orders events, in
`apply_event`: an insert names a row id above every earlier row id, and an
update or a delete names a row that is live under the event's tenant.
"""

import base64
import json
import re

from cmt.crypto_codec import check_value

# used with fullmatch: "$" would also match before a final newline
TENANT = re.compile(r"[a-z0-9_-]{1,64}")


def decode_event(line: bytes, names: tuple) -> tuple:
    """(op, tenant, row_id, values) of one log line, values None for a
    delete, else a tuple of the values in the order of the header's `names`.
    A malformed line, one spelled other than the format's one spelling, or
    one whose field names are not the header's `names`, raises ValueError
    or TypeError."""
    event = json.loads(line.decode("utf-8"))
    if not isinstance(event, dict):
        raise ValueError("event is not a JSON object")
    if line != json.dumps(event, separators=(",", ":")).encode("ascii"):
        raise ValueError("event is not spelled as compact JSON")
    op, tenant, row_id = event.get("op"), event.get("t"), event.get("r")
    if op not in ("ins", "upd", "del"):
        raise ValueError(f"unknown op {op!r}")
    keys = ["op", "t", "r"] + ["ts"] * ("ts" in event) + ["f"] * (op != "del")
    if list(event) != keys:
        raise ValueError(f"the event's keys are not {keys}")
    if type(event.get("ts", 0)) is not int:
        raise ValueError('"ts" must be an integer')
    if not isinstance(tenant, str) or not TENANT.fullmatch(tenant):
        raise ValueError('"t" must be a tenant id')
    if type(row_id) is not int or not 1 <= row_id < 10**16:
        raise ValueError('"r" must be a row id of 1 to 16 digits')
    if op == "del":
        return op, tenant, row_id, None
    encoded = event["f"]
    if not isinstance(encoded, dict):
        raise ValueError('"f" must map field names to base64 strings')
    if list(encoded) != list(names):
        raise ValueError('"f" must hold the header\'s fields in its order')
    values = []
    for name in names:
        b64 = encoded[name]
        # b64decode raises TypeError for a value that is not a string
        raw = base64.b64decode(b64, validate=True)
        if base64.b64encode(raw).decode("ascii") != b64:
            raise ValueError("base64 spelled otherwise than b64encode spells it")
        check_value(raw)
        values.append(raw)
    return op, tenant, row_id, tuple(values)


def apply_event(rows: dict, max_row_id: int, event: tuple) -> int:
    """Apply the decoded `event` to `rows`, a map of row id to (tenant,
    values), and return the largest row id inserted so far, `max_row_id`
    before it. An insert of a row id not above `max_row_id`, or an update
    or a delete of a row that is not in `rows` under the event's tenant,
    raises ValueError and leaves `rows` as it was."""
    op, tenant, row_id, values = event
    if op == "ins":
        if row_id <= max_row_id:
            raise ValueError(f"insert of row {row_id} after row {max_row_id}")
        max_row_id = row_id
    elif rows.get(row_id, (None,))[0] != tenant:
        raise ValueError(f"{op} of row {row_id}, which is not live under {tenant!r}")
    if op == "del":
        del rows[row_id]
    else:
        rows[row_id] = (tenant, values)
    return max_row_id
