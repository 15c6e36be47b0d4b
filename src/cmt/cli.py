"""Command-line front end: `cmt init|insert|get|list|update|delete|selftest`.

Exit codes are a stable contract: 0 ok, 1 selftest failure, 2 a command
line argparse rejects, 3 an i/o error, and for a `CmtError` its
`exit_code` (2..6, listed in `cmt.errors`). A data command's checks run
in this order: the command line (its tenant id and `--set` pairs too, 2),
then the master key (3), then the store, so a refused command line loads
no key and opens no store. Only an `insert`, `update` or `delete` that
reaches its write changes the store: an open warns about a torn tail on
stderr and leaves it for the next write to cut, so a `get`, a `list` and
a refused command leave the file byte for byte.

Decrypted data goes to stdout only; all diagnostics go to stderr.
"""

import argparse
import sys

from .errors import CmtError, InvalidSchema
from .key_service import load_master_key, validate_tenant_id
from .tenant_store import TableSchema, create_store, open_store

DEFAULT_STORE = "./studententry.cmt"

EXIT_OK = 0
EXIT_SELFTEST = 1
EXIT_USAGE = 2
EXIT_ACCESS = 3


def _parse_sets(pairs) -> dict:
    values = {}
    for pair in pairs:
        field, sep, value = pair.partition("=")
        if not sep or not field:
            raise InvalidSchema(f"--set expects field=value, got {pair!r}")
        if field in values:
            raise InvalidSchema(f"--set gives field {field!r} more than once")
        values[field] = value
    return values


def _print_record(record) -> None:
    print(f"row={record.row_id}")
    for name, value in record.fields.items():  # in schema order
        print(f"{name}={value}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cmt", description="Encrypted multi-tenant record store."
    )
    parser.add_argument("--store", default=DEFAULT_STORE, help="store file path")
    parser.add_argument("--master-key-file", help="file holding the 32-hex-char master key")
    parser.add_argument("--tenant", help="tenant id for data commands")
    sub = parser.add_subparsers(dest="command", required=True)

    p_init = sub.add_parser("init", help="create a new store")
    p_init.add_argument("--table", required=True)
    p_init.add_argument("--fields", required=True, help="comma-separated field names")

    p_insert = sub.add_parser("insert", help="insert a row for a tenant")
    p_insert.add_argument("--set", action="append", required=True, metavar="FIELD=VALUE")

    p_get = sub.add_parser("get", help="fetch and decrypt one row")
    p_get.add_argument("--row", type=int, required=True)

    sub.add_parser("list", help="list all of a tenant's rows")

    p_update = sub.add_parser("update", help="replace all fields of a row")
    p_update.add_argument("--row", type=int, required=True)
    p_update.add_argument("--set", action="append", required=True, metavar="FIELD=VALUE")

    p_delete = sub.add_parser("delete", help="delete a row")
    p_delete.add_argument("--row", type=int, required=True)

    sub.add_parser("selftest", help="run cipher and codec known-answer checks")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        # parse_args, but naming each unrecognized argument by its repr, so
        # a newline in one cannot start a stderr line of its own
        args, extras = parser.parse_known_args(argv)
        if extras:
            parser.error("unrecognized arguments: " + " ".join(map(repr, extras)))
    except SystemExit as exc:
        # argparse already printed to stderr; only --help exits 0
        return EXIT_OK if exc.code == 0 else EXIT_USAGE

    try:
        if args.command == "selftest":
            from .selftest import run_selftest  # the one command that needs it

            return EXIT_OK if run_selftest() else EXIT_SELFTEST

        if args.command == "init":
            fields = tuple(args.fields.split(","))
            store = create_store(args.store, TableSchema(args.table, fields))
            store.close()
            print(
                f"created store {args.store}: table {args.table} "
                f"({', '.join(fields)})",
                file=sys.stderr,
            )
            return EXIT_OK

        # data commands: the whole command line is checked before the key is
        # loaded and the store opened, so it is refused with or without a key
        if args.tenant is None:
            raise InvalidSchema("--tenant is required for this command")
        validate_tenant_id(args.tenant)
        values = _parse_sets(args.set) if args.command in ("insert", "update") else None
        master = load_master_key(key_file=args.master_key_file)
        with open_store(args.store, master) as store:
            if args.command == "insert":
                row_id = store.insert(args.tenant, values)
                print(row_id)
            elif args.command == "get":
                _print_record(store.get(args.tenant, args.row))
            elif args.command == "list":
                for record in store.list(args.tenant):
                    _print_record(record)
            elif args.command == "update":
                store.update(args.tenant, args.row, values)
            elif args.command == "delete":
                store.delete(args.tenant, args.row)
        return EXIT_OK

    except CmtError as err:
        print(f"cmt: error: {err}", file=sys.stderr)
        return err.exit_code
    except OSError as err:
        print(f"cmt: i/o error: {err}", file=sys.stderr)
        return EXIT_ACCESS


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
