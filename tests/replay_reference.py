"""The log-line decoder of store format v1 in its first form: `json.loads`,
then the event checks, with each value decoded by
`base64.b64decode(validate=True)` and the set of an event's field names
compared with the header's. The tests hold `tenant_store`'s replay to it:
a line the replay reads, the reference reads alike, to the same rows. The
replay refuses three kinds of line that the reference reads and `cmt`
never writes: a tenant outside printable ASCII or holding `"` or `\\`, a
value with "=" after whole quads, and a row id of more than 16 digits.
"""

import base64
import json

from cmt.crypto_codec import check_value


def decode_event(line: bytes, names: tuple) -> tuple:
    """(tenant, row_id, values) of one log line, values None for a delete,
    else a tuple of the values in the order of the header's `names`. A
    malformed line, or one whose field names are not the header's `names`,
    raises ValueError or TypeError."""
    event = json.loads(line.decode("utf-8"))
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
        return tenant, row_id, None
    encoded = event.get("f")
    if not isinstance(encoded, dict):
        raise ValueError('"f" must map field names to base64 strings')
    if set(encoded) != set(names):
        raise ValueError('"f" must hold the header\'s fields')
    # b64decode raises TypeError for a value that is not a string
    fields = {
        name: check_value(base64.b64decode(b64, validate=True))
        for name, b64 in encoded.items()
    }
    return tenant, row_id, tuple(fields[name] for name in names)
