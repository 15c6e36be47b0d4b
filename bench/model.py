"""The benchmark's own model of what the store should hold.

It is kept apart from the program: it records, for each row id, the owning
tenant and the plaintext fields the benchmark wrote, and every result the
program returns is checked against it.
"""

from typing import Dict, List, Set, Tuple


class CheckFailed(Exception):
    """The program returned something the model does not allow."""


class Model:
    def __init__(self):
        self.rows: Dict[int, Tuple[str, Dict[str, str]]] = {}
        self.by_tenant: Dict[str, Set[int]] = {}
        self.deleted: Set[int] = set()
        self.max_id = 0
        self.plaintext_bytes = 0  # bytes of field values written by insert and update

    def copy(self) -> "Model":
        other = Model()
        other.rows = dict(self.rows)
        other.by_tenant = {t: set(ids) for t, ids in self.by_tenant.items()}
        other.deleted = set(self.deleted)
        other.max_id = self.max_id
        other.plaintext_bytes = self.plaintext_bytes
        return other

    @staticmethod
    def _size(fields: Dict[str, str]) -> int:
        return sum(len(v.encode("utf-8")) for v in fields.values())

    def insert(self, row_id: int, tenant: str, fields: Dict[str, str]) -> None:
        if row_id <= self.max_id:
            raise CheckFailed(f"insert returned id {row_id}, not above earlier id {self.max_id}")
        self.max_id = row_id
        self.rows[row_id] = (tenant, dict(fields))
        self.by_tenant.setdefault(tenant, set()).add(row_id)
        self.plaintext_bytes += self._size(fields)

    def update(self, row_id: int, fields: Dict[str, str]) -> None:
        tenant, _ = self.rows[row_id]
        self.rows[row_id] = (tenant, dict(fields))
        self.plaintext_bytes += self._size(fields)

    def delete(self, row_id: int) -> None:
        tenant, _ = self.rows.pop(row_id)
        self.by_tenant[tenant].discard(row_id)
        self.deleted.add(row_id)

    def tenant_size(self, tenant: str) -> int:
        return len(self.by_tenant.get(tenant, ()))

    def tenant_rows(self, tenant: str) -> List[int]:
        return sorted(self.by_tenant.get(tenant, ()))

    def live_ids(self) -> List[int]:
        return sorted(self.rows)

    def row_size(self, row_id: int) -> int:
        return self._size(self.rows[row_id][1])

    # -- checks --------------------------------------------------------

    def check_record(self, record, tenant: str, row_id: int) -> None:
        owner, fields = self.rows[row_id]
        if record.row_id != row_id or record.tenant != owner or owner != tenant:
            raise CheckFailed(f"get({tenant}, {row_id}) returned row {record.row_id} of {record.tenant}")
        if record.fields != fields:
            raise CheckFailed(f"get({tenant}, {row_id}) returned fields unlike the model")

    def check_list(self, records, tenant: str) -> None:
        ids = [r.row_id for r in records]
        expected = self.tenant_rows(tenant)
        if ids != expected:
            raise CheckFailed(f"list({tenant}) returned ids {ids[:8]}..., expected {expected[:8]}...")
        for record in records:
            self.check_record(record, tenant, record.row_id)

    def check_cli_output(self, stdout: str, row_id: int) -> None:
        _, fields = self.rows[row_id]
        expected = [f"row={row_id}"] + [f"{k}={v}" for k, v in fields.items()]
        if stdout.split("\n")[:-1] != expected:
            raise CheckFailed(f"`cmt get --row {row_id}` printed fields unlike the model")
