"""Encrypted multi-tenant record store over a from-scratch AES-128.

Every tenant's field values are encrypted (CBC + encrypt-then-MAC) under
keys derived from one master key before they are written to a shared,
append-only, row-per-tenant store file.
"""

from .crypto_codec import decrypt_value, encrypt_value
from .key_service import MasterKey, TenantKeySet, derive_tenant_keys, load_master_key
from .tenant_store import Record, TableSchema, create_store, open_store

__all__ = [
    "MasterKey",
    "Record",
    "TableSchema",
    "TenantKeySet",
    "create_store",
    "decrypt_value",
    "derive_tenant_keys",
    "encrypt_value",
    "load_master_key",
    "open_store",
]

__version__ = "0.1.0"
