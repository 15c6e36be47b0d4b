"""Master key loading and AES-only per-tenant key derivation.

The tenant root is the CBC-MAC (`aes_core.cbc_macs`: zero IV, last block
kept) of the PKCS#7-padded tenant id bytes under the master key. The two
subkeys are the CBC-MACs of two distinct constant blocks under that root,
from one `cbc_macs` call; the CBC-MAC of one block is its AES encryption,
so the subkeys can never collide with each other.

`derive_tenant_keys` always derives. Each `MasterKey` keeps the tenants
derived under it in `derived`, which `tenant_store` reads, so a tenant is
derived once per `MasterKey` object, whatever the number of store handles
opened with it. The memo is the object's own: a copy, an unpickled
master or another object of the same key starts empty.
"""

import os
import re

from . import aes_core
from .crypto_codec import pad
from .errors import InvalidTenantId, MalformedKey, MissingKey

MASTER_KEY_ENV = "CMT_MASTER_KEY"

# The one tenant id rule: `validate_tenant_id` and the store's event
# pattern read it. Used with fullmatch: "$" would also match before a final
# newline.
TENANT_ID = r"[a-z0-9_-]{1,64}"
_TENANT_ID_RE = re.compile(TENANT_ID)

_ENC_CONST = bytes([0x01]) * 16
_MAC_CONST = bytes([0x02]) * 16

# a key is 32 hex characters and some whitespace: a longer text is refused, and
# a key file is read only one character past it, so that a pipe or a device
# cannot feed the read forever
_KEY_TEXT_MAX = 1024


class MasterKey:
    """The 16-byte master key and its schedule, expanded once, here.
    `derived` maps each tenant id derived under it to its `TenantKeySet`;
    it grows by one entry per tenant and is never evicted."""

    __slots__ = ("key", "schedule", "derived")

    def __init__(self, key: bytes):
        if len(key) != aes_core.KEY_SIZE:
            raise MalformedKey("master key must be exactly 16 bytes")
        self.key, self.schedule, self.derived = key, aes_core.expand_key(key), {}

    def __reduce__(self):  # copy and pickle rebuild it from the key, with an empty memo
        return MasterKey, (self.key,)

    def __repr__(self) -> str:  # also str() and f-strings: no key material
        return "MasterKey(key=<redacted>)"


class TenantKeySet:
    """A tenant's two keys, each expanded once, here, for every value the
    codec encrypts or decrypts under them. It keeps only the two schedules,
    whose round key 0 is the key itself (FIPS-197 section 5.2)."""

    __slots__ = ("enc_schedule", "mac_schedule")

    def __init__(self, enc_key: bytes, mac_key: bytes):
        self.enc_schedule = aes_core.expand_key(enc_key)
        self.mac_schedule = aes_core.expand_key(mac_key)

    def __repr__(self) -> str:  # also str() and f-strings: no key material
        return "TenantKeySet(<redacted>)"


def validate_tenant_id(tenant_id: str) -> None:
    if not isinstance(tenant_id, str) or not _TENANT_ID_RE.fullmatch(tenant_id):
        raise InvalidTenantId(f"tenant id must match {TENANT_ID}, got {tenant_id!r}")


def _parse_hex_key(text: str) -> MasterKey:
    key = text.strip()
    if len(text) > _KEY_TEXT_MAX or not re.fullmatch(r"[0-9a-fA-F]{32}", key):
        raise MalformedKey("master key must be 32 hex characters")
    return MasterKey(bytes.fromhex(key))


def load_master_key(key_file: str = None) -> MasterKey:
    """Load the master key from a file (takes precedence) or the environment."""
    if key_file is not None:
        try:
            with open(key_file, "r", encoding="utf-8") as fh:
                return _parse_hex_key(fh.read(_KEY_TEXT_MAX + 1))
        except FileNotFoundError:
            raise MissingKey(f"master key file not found: {key_file!r}") from None
        except UnicodeDecodeError:
            raise MalformedKey(f"master key file is not 32 hex characters: {key_file!r}") from None
    value = os.environ.get(MASTER_KEY_ENV)
    if value is None:
        raise MissingKey(f"set {MASTER_KEY_ENV} (32 hex chars) or pass --master-key-file")
    return _parse_hex_key(value)


def derive_tenant_keys(master: MasterKey, tenant_id: str) -> TenantKeySet:
    """Deterministically derive the per-tenant encryption and MAC keys."""
    validate_tenant_id(tenant_id)
    root = aes_core.cbc_macs([pad(tenant_id.encode("utf-8"))], master.schedule)[0]
    enc_key, mac_key = aes_core.cbc_macs([_ENC_CONST, _MAC_CONST], aes_core.expand_key(root))
    return TenantKeySet(enc_key, mac_key)
