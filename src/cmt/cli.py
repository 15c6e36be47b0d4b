"""Command-line front end: `cmt init|insert|get|list|update|delete|selftest`.

One grammar (`_OPTIONS`, `_GLOBAL_OPTIONS`, `_COMMANDS`) feeds two
parsers. `_parse_plain` reads a plainly spelled command line without
importing argparse, so a one-shot process pays neither for that import
nor for building argparse's eight parsers. Every other line (`-h`/`--help`,
`--opt=value`, an abbreviation, `--` or an error) goes to the parser that
`_build_parser` builds, which imports argparse only then, so help, usage
errors and exit codes stay argparse's own.

Exit codes are a stable contract: 0 ok, 1 selftest failure, 2 a command
line argparse rejects, 3 an i/o error, and for a `CmtError` its
`exit_code` (2..6, listed in `cmt.errors`). A data command's checks run
in this order: the command line (its tenant id and `--set` pairs too, 2),
then the master key (3), then the store, so a refused command line loads
no key and opens no store. Only an `insert`, `update` or `delete` that
reaches its write changes the store: an open warns about a torn tail on
stderr and leaves it for the next write to cut, so a `get`, a `list` and
a refused command leave the file byte for byte.

Decrypted data goes to stdout only; all diagnostics go to stderr, and a
message names a path or an unrecognized argument by its `repr`, so a
newline in one starts no stderr line of its own. A record prints as one
`row=` line and one `name=value` line per field, each value escaped
(`_ESCAPES`), so that no value starts a stdout line of its own either.
"""

import sys
from types import SimpleNamespace

from .errors import CmtError, InvalidSchema
from .key_service import load_master_key, validate_tenant_id
from .tenant_store import TableSchema, create_store, open_store

DEFAULT_STORE = "./studententry.cmt"

EXIT_OK = 0
EXIT_SELFTEST = 1
EXIT_USAGE = 2
EXIT_ACCESS = 3


# The grammar: the keywords argparse takes for each option, the global
# options, and each command's help and options, all of them required. Each
# option takes one value; a repeated option keeps its last, except `--set`,
# which appends.
_OPTIONS = {
    "--store": {"default": DEFAULT_STORE, "help": "store file path"},
    "--master-key-file": {"help": "file holding the 32-hex-char master key"},
    "--tenant": {"help": "tenant id for data commands"},
    "--table": {},
    "--fields": {"help": "comma-separated field names"},
    "--set": {"action": "append", "metavar": "FIELD=VALUE"},
    "--row": {"type": int},
}
_GLOBAL_OPTIONS = ("--store", "--master-key-file", "--tenant")
_COMMANDS = {
    "init": ("create a new store", ("--table", "--fields")),
    "insert": ("insert a row for a tenant", ("--set",)),
    "get": ("fetch and decrypt one row", ("--row",)),
    "list": ("list all of a tenant's rows", ()),
    "update": ("replace all fields of a row", ("--row", "--set")),
    "delete": ("delete a row", ("--row",)),
    "selftest": ("run cipher and codec known-answer checks", ()),
}


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


# how a value prints, so that it takes one line and no value can fake a field or
# a record: a backslash doubled, newline as \n, carriage return as \r, and every
# other C0 control, DEL and every C1 control as \xNN
_ESCAPES = {c: f"\\x{c:02x}" for c in [*range(0x20), *range(0x7F, 0xA0)]} | {
    ord("\\"): "\\\\", ord("\n"): "\\n", ord("\r"): "\\r"}


def _print_record(record) -> None:
    print(f"row={record.row_id}")
    for name, value in record.fields.items():  # in schema order
        print(f"{name}={value.translate(_ESCAPES)}")


def _build_parser():
    import argparse  # only a command line that is not plainly spelled loads it

    parser = argparse.ArgumentParser(
        prog="cmt", description="Encrypted multi-tenant record store."
    )
    for option in _GLOBAL_OPTIONS:
        parser.add_argument(option, **_OPTIONS[option])
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (text, options) in _COMMANDS.items():
        p_command = sub.add_parser(command, help=text)
        for option in options:
            p_command.add_argument(option, required=True, **_OPTIONS[option])
    return parser


def _dest(option: str) -> str:
    """The namespace attribute argparse stores an option in."""
    return option.lstrip("-").replace("-", "_")


def _parse_plain(argv):
    """The namespace `_build_parser().parse_args(argv)` returns, when argv
    is plainly spelled: global options, a command, then all of its
    options, each option a whole token followed by a value that does not
    begin with `-` (and that `int()` accepts, for `--row`). None for any
    other argv."""
    args = {_dest(option): _OPTIONS[option].get("default") for option in _GLOBAL_OPTIONS}
    allowed = _GLOBAL_OPTIONS
    tokens = iter(argv)
    for token in tokens:
        if "command" not in args and token in _COMMANDS:
            args["command"] = token
            allowed = _COMMANDS[token][1]
            continue
        value = next(tokens, None)
        if token not in allowed or value is None or value.startswith("-"):
            return None
        spec, dest = _OPTIONS[token], _dest(token)
        try:
            value = spec.get("type", str)(value)
        except ValueError:
            return None
        if spec.get("action") == "append":
            args.setdefault(dest, []).append(value)
        else:
            args[dest] = value
    if "command" not in args or any(_dest(option) not in args for option in allowed):
        return None
    return SimpleNamespace(**args)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _parse_plain(argv)
    if args is None:
        parser = _build_parser()
        try:
            # parse_args, but naming each unrecognized argument by its repr,
            # so a newline in one cannot start a stderr line of its own
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
                f"created store {args.store!r}: table {args.table} "
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
