"""Exception hierarchy shared across the package, and the exit code the
`cmt` command returns for each error: 2 usage or schema error, 3 key or
store access error, 4 row not found, 5 isolation denied, 6 authentication
failure. (0 is success and 1 a failed selftest.)"""


class CmtError(Exception):
    """Base class for every error this package raises deliberately."""

    exit_code = 3


class MissingKey(CmtError):
    """No master key could be found in the environment or key file."""


class MalformedKey(CmtError):
    """Master key material is not exactly 32 hex characters."""


class InvalidTenantId(CmtError):
    """Tenant id is empty, too long, or contains forbidden characters."""

    exit_code = 2


class FieldTooLarge(CmtError):
    """A field plaintext exceeds the store-level size cap."""

    exit_code = 2


class AuthError(CmtError):
    """Authentication tag mismatch: wrong key or tampered ciphertext."""

    exit_code = 6


class StoreError(CmtError):
    """Base class for record-store failures."""


class AlreadyExists(StoreError):
    """Store file already exists at the given path."""

    exit_code = 2


class InvalidSchema(StoreError):
    """Table schema violates naming or uniqueness rules."""

    exit_code = 2


class CorruptHeader(StoreError):
    """Store file header line cannot be parsed."""


class VersionMismatch(StoreError):
    """Store file was written by an unsupported format version."""


class CorruptLog(StoreError):
    """A non-trailing log line cannot be parsed or replayed."""


class SchemaMismatch(StoreError):
    """Supplied field set does not match the table schema exactly."""

    exit_code = 2


class NotFound(StoreError):
    """No live row with the requested id."""

    exit_code = 4


class IsolationDenied(StoreError):
    """The row exists but belongs to a different tenant."""

    exit_code = 5


class StoreLocked(StoreError):
    """Another process holds the advisory lock on this store."""
