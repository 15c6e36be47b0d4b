"""CLI tests: the Student Entry flow, exit-code contract, stream discipline."""

import base64
import contextlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cmt import errors
from cmt.cli import _ESCAPES, _build_parser, _parse_plain, main, run
from cmt.crypto_codec import MAX_FIELD_BYTES
from cmt.key_service import MASTER_KEY_ENV, MasterKey
from cmt.tenant_store import TableSchema, create_store, open_store

from no_numpy import CMT, run_without_numpy
from test_key_service import a_fifo_held_open

HEX_KEY = "000102030405060708090a0b0c0d0e0f"
FIELDS = "name,contact,department"


@pytest.fixture
def store_path(tmp_path, monkeypatch):
    monkeypatch.setenv(MASTER_KEY_ENV, HEX_KEY)
    path = str(tmp_path / "studententry.cmt")
    assert main(["--store", path, "init", "--table", "student_entry", "--fields", FIELDS]) == 0
    return path


def insert_args(path, tenant, name="N", contact="C", department="D"):
    return [
        "--store", path, "--tenant", tenant, "insert",
        "--set", f"name={name}", "--set", f"contact={contact}",
        "--set", f"department={department}",
    ]


# --- init ---------------------------------------------------------------

def test_init_repeated_fails(store_path):
    code = main(["--store", store_path, "init", "--table", "t", "--fields", FIELDS])
    assert code == 2


def test_init_duplicate_fields(tmp_path):
    code = main(["--store", str(tmp_path / "x.cmt"), "init", "--table", "t", "--fields", "a,a"])
    assert code == 2


@pytest.mark.parametrize("fields", ["a,,b", "a,", ",a"])
def test_init_refuses_an_empty_field_name(tmp_path, fields):
    path = tmp_path / "x.cmt"
    assert main(["--store", str(path), "init", "--table", "t", "--fields", fields]) == 2
    assert not path.exists()


@pytest.mark.parametrize("table, fields", [("t", "name\n,contact"), ("t\n", "a")],
                         ids=["field", "table"])
def test_init_refuses_a_name_with_a_trailing_newline(tmp_path, table, fields):
    path = tmp_path / "x.cmt"
    assert main(["--store", str(path), "init", "--table", table, "--fields", fields]) == 2
    assert not path.exists()


def test_init_confirmation_goes_to_stderr(tmp_path, capsys):
    assert main(["--store", str(tmp_path / "x.cmt"), "init", "--table", "t", "--fields", "a"]) == 0
    out, err = capsys.readouterr()
    assert out == ""
    assert "created store" in err


# --- insert / get / list ---------------------------------------------------

def test_insert_prints_row_id(store_path, capsys):
    assert main(insert_args(store_path, "uni_a")) == 0
    assert capsys.readouterr().out == "1\n"
    assert main(insert_args(store_path, "uni_b")) == 0
    assert capsys.readouterr().out == "2\n"


def test_get_own_row(store_path, capsys):
    main(insert_args(store_path, "uni_a", name="Alice", contact="555", department="phys"))
    capsys.readouterr()
    # plainly spelled, and with "=" spellings and an abbreviation, which argparse reads
    for argv in (["--store", store_path, "--tenant", "uni_a", "get", "--row", "1"],
                 [f"--store={store_path}", "--ten", "uni_a", "get", "--row=1"]):
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert out == "row=1\nname=Alice\ncontact=555\ndepartment=phys\n"


def test_get_other_tenants_row_exit_5_silent(store_path, capsys):
    main(insert_args(store_path, "uni_a", name="secret"))
    capsys.readouterr()
    assert main(["--store", store_path, "--tenant", "uni_b", "get", "--row", "1"]) == 5
    out, err = capsys.readouterr()
    assert out == ""  # nothing decrypted ever reaches stdout
    assert "secret" not in err


def test_get_absent_row_exit_4(store_path):
    assert main(["--store", store_path, "--tenant", "uni_a", "get", "--row", "99"]) == 4


def test_list_only_own_rows(store_path, capsys):
    main(insert_args(store_path, "uni_a", name="a1"))
    main(insert_args(store_path, "uni_a", name="a2"))
    main(insert_args(store_path, "uni_b", name="b1"))
    capsys.readouterr()
    assert main(["--store", store_path, "--tenant", "uni_a", "list"]) == 0
    out = capsys.readouterr().out
    assert "name=a1" in out and "name=a2" in out and "b1" not in out


def unescape(text: str) -> str:
    """The value that `_print_record` printed as `text`."""
    named = {"\\": "\\", "n": "\n", "r": "\r"}
    return re.sub(r"\\(?:([\\nr])|x([0-9a-f]{2}))",
                  lambda m: named[m[1]] if m[1] else chr(int(m[2], 16)), text)


def test_a_value_prints_with_its_controls_escaped(store_path, capsys):
    main(insert_args(store_path, "uni_a", name="a\\b\nc\rd\te\x1b\x7f\x80\x85\x9b\x9f\u00a0\u00fc"))
    capsys.readouterr()
    assert main(["--store", store_path, "--tenant", "uni_a", "get", "--row", "1"]) == 0
    out = capsys.readouterr().out
    assert out == ("row=1\nname=a\\\\b\\nc\\rd\\x09e\\x1b\\x7f\\x80\\x85\\x9b\\x9f\u00a0\u00fc\n"
                   "contact=C\ndepartment=D\n")


# C0 and C1 controls, DEL and the backslash, which the escape rewrites
_CONTROLS = "".join(map(chr, [*range(0x20), *range(0x7F, 0xA0)])) + "\\"


@given(st.text(st.characters() | st.sampled_from(_CONTROLS)))
def test_an_escaped_value_is_one_line_that_unescapes_to_itself(value):
    printed = value.translate(_ESCAPES)
    assert not set(printed) & set(_CONTROLS[:-1])  # "\n", "\r" and U+0085 among them
    assert unescape(printed) == value


@pytest.mark.parametrize(
    "value",
    [
        "hi\nrow=7\nname=fake",  # unescaped, it would print as a second record
        "cr\rlf\n",
        "back\\slash\\n",  # a backslash before an n is no newline
        "\\x41",
        "\x00\x1b[31m\t\x7f",
        "\x9b31m\x85next",  # C1: the 8-bit CSI, and NEL, a line break for str.splitlines
        "\u00fcn\u00ef \u2713 \u2028",  # past ASCII: printed as itself
        "",
    ],
)
def test_get_and_list_print_one_line_per_field_whatever_a_value_holds(store_path, capsys, value):
    inserted = {1: {"name": value, "contact": "C", "department": "D"},
                2: {"name": "N", "contact": "C", "department": value}}
    for values in inserted.values():
        assert main(insert_args(store_path, "uni_a", **values)) == 0
    capsys.readouterr()
    for command, row_ids in ((["get", "--row", "1"], [1]), (["get", "--row", "2"], [2]),
                             (["list"], [1, 2])):
        assert main(["--store", store_path, "--tenant", "uni_a"] + command) == 0
        lines = capsys.readouterr().out.split("\n")
        assert lines.pop() == ""  # each line ends in a newline
        assert len(lines) == len(row_ids) * 4  # a row= line and three fields
        for row_id, start in zip(row_ids, range(0, len(lines), 4)):
            assert lines[start] == f"row={row_id}"
            printed = dict(line.split("=", 1) for line in lines[start + 1 : start + 4])
            assert {name: unescape(text) for name, text in printed.items()} == inserted[row_id]


def test_an_event_whose_row_id_json_cannot_print_is_corrupt_log(store_path, capsys):
    # json reads a row id of 4,300 digits, so `list` used to print the row,
    # and the next insert died in json's int-to-text limit with a traceback
    main(insert_args(store_path, "uni_a"))
    first = Path(store_path).read_bytes().split(b"\n")[1]
    with open(store_path, "ab") as fh:
        fh.write(first.replace(b'"r":1,', b'"r":%s,' % (b"9" * 4300)) + b"\n")
    before = Path(store_path).read_bytes()
    capsys.readouterr()
    for argv in (["--store", store_path, "--tenant", "uni_a", "list"],
                 insert_args(store_path, "uni_a", name="Next")):
        assert main(argv) == 3
        out, err = capsys.readouterr()
        assert (out, err) == ("", f"cmt: error: corrupt event at line 3 of {store_path!r}: "
                                  "not a well-formed event\n")
        assert Path(store_path).read_bytes() == before


@pytest.mark.parametrize("tenant", ["", "UNI_A", "a b", "a" * 65],
                         ids=["empty", "upper_case", "space", "65_characters"])
def test_an_event_under_a_tenant_no_caller_can_name_is_corrupt_log(store_path, capsys, tenant):
    # the log takes only the tenants `validate_tenant_id` takes: a copy of
    # row 1's event under such a tenant used to take the row from its owner,
    # so `get` exited 5 and `list` exited 0 without it
    main(insert_args(store_path, "uni_a"))
    first = Path(store_path).read_bytes().split(b"\n")[1]
    with open(store_path, "ab") as fh:
        fh.write(first.replace(b'"t":"uni_a"', b'"t":"%s"' % tenant.encode()) + b"\n")
    before = Path(store_path).read_bytes()
    capsys.readouterr()
    for command in (["get", "--row", "1"], ["list"]):
        assert main(["--store", store_path, "--tenant", "uni_a", *command]) == 3
        out, err = capsys.readouterr()
        assert (out, err) == ("", f"cmt: error: corrupt event at line 3 of {store_path!r}: "
                                  "not a well-formed event\n")
        assert Path(store_path).read_bytes() == before


# --- update / delete -------------------------------------------------------

def test_update_then_get(store_path, capsys):
    main(insert_args(store_path, "uni_a"))
    args = insert_args(store_path, "uni_a", name="New")
    args[args.index("insert")] = "update"
    assert main(args + ["--row", "1"]) == 0
    capsys.readouterr()
    main(["--store", store_path, "--tenant", "uni_a", "get", "--row", "1"])
    assert "name=New" in capsys.readouterr().out


def test_delete_then_get(store_path):
    main(insert_args(store_path, "uni_a"))
    assert main(["--store", store_path, "--tenant", "uni_a", "delete", "--row", "1"]) == 0
    assert main(["--store", store_path, "--tenant", "uni_a", "get", "--row", "1"]) == 4


def test_cross_tenant_delete_exit_5(store_path):
    main(insert_args(store_path, "uni_a"))
    assert main(["--store", store_path, "--tenant", "uni_b", "delete", "--row", "1"]) == 5


# --- usage and access errors ------------------------------------------------

def test_missing_field_exit_2(store_path):
    code = main(["--store", store_path, "--tenant", "uni_a", "insert", "--set", "name=x"])
    assert code == 2


def test_repeated_set_field_on_insert_exit_2(store_path, capsys):
    args = insert_args(store_path, "uni_a", name="p") + ["--set", "name=q"]
    assert main(args) == 2
    assert "'name'" in capsys.readouterr().err
    assert main(["--store", store_path, "--tenant", "uni_a", "list"]) == 0
    assert capsys.readouterr().out == ""  # nothing was stored


def test_repeated_set_field_on_update_exit_2(store_path, capsys):
    main(insert_args(store_path, "uni_a", contact="c"))
    args = insert_args(store_path, "uni_a", contact="p") + ["--set", "contact=q", "--row", "1"]
    args[args.index("insert")] = "update"
    capsys.readouterr()
    assert main(args) == 2
    assert "'contact'" in capsys.readouterr().err
    main(["--store", store_path, "--tenant", "uni_a", "get", "--row", "1"])
    assert "contact=c\n" in capsys.readouterr().out  # the row is unchanged


def test_missing_master_key_exit_3(store_path, monkeypatch):
    monkeypatch.delenv(MASTER_KEY_ENV)
    assert main(insert_args(store_path, "uni_a")) == 3
    assert main(["--store", store_path, "--tenant", "uni_a", "list"]) == 3


def test_malformed_master_key_exit_3(store_path, monkeypatch):
    monkeypatch.setenv(MASTER_KEY_ENV, "nothex")
    assert main(insert_args(store_path, "uni_a")) == 3


def test_missing_tenant_exit_2(store_path):
    assert main(["--store", store_path, "list"]) == 2


def test_invalid_tenant_exit_2(store_path):
    assert main(["--store", store_path, "--tenant", "BAD ID", "list"]) == 2


@pytest.mark.parametrize(
    "command",
    [["insert", "--set", "name=x", "--set", "contact=y", "--set", "department=z"],
     ["list"], ["get", "--row", "1"]],
    ids=lambda c: c[0],
)
def test_a_tenant_with_a_trailing_newline_exits_2_untouched(store_path, capsys, command):
    main(insert_args(store_path, "uni_a"))
    before = Path(store_path).read_bytes()
    capsys.readouterr()
    assert main(["--store", store_path, "--tenant", "uni_a\n", *command]) == 2
    assert capsys.readouterr().out == ""
    assert Path(store_path).read_bytes() == before


def test_non_utf8_value_exit_2(store_path):
    # a raw 0xff byte in argv, as a shell passes $'name=\xff'
    result = run_cmt([
        "--store", store_path, "--tenant", "uni_a", "insert",
        b"--set", b"name=\xff", "--set", "contact=C", "--set", "department=D",
    ])
    assert result.returncode == 2
    assert "Traceback" not in result.stderr
    assert "UTF-8" in result.stderr


def test_malformed_event_exit_3(store_path):
    main(insert_args(store_path, "uni_a"))
    with open(store_path, "a", encoding="utf-8") as fh:
        fh.write('{"op":"ins","t":"x","ts":1,"f":{}}\n')
    result = run_cmt(["--store", store_path, "--tenant", "uni_a", "get", "--row", "1"])
    assert result.returncode == 3
    assert result.stdout == ""
    assert "Traceback" not in result.stderr
    assert "line 3" in result.stderr


@pytest.mark.parametrize("names", [("name", "contact", "zzz"), ("name", "contact"),
                                   ("name", "contact", "department", "zzz")])
def test_event_fields_other_than_the_header_exit_3(store_path, names):
    # genuine values under field names the header does not list, or a row
    # short of one field or with one too many
    main(insert_args(store_path, "uni_a"))
    with open(store_path, encoding="ascii") as fh:
        value = json.loads(fh.read().splitlines()[1])["f"]["name"]
    with open(store_path, "a", encoding="ascii") as fh:  # as `cmt` spells a line
        fh.write(json.dumps({"op": "upd", "t": "uni_a", "r": 1, "f": dict.fromkeys(names, value)},
                            separators=(",", ":")) + "\n")
    for command in (["get", "--row", "1"], ["list"]):
        result = run_cmt(["--store", store_path, "--tenant", "uni_a"] + command)
        assert result.returncode == 3
        assert result.stdout == ""
        assert "Traceback" not in result.stderr
        assert "line 3" in result.stderr


def test_oversized_value_exit_2(store_path):
    args = insert_args(store_path, "uni_a", name="x" * (MAX_FIELD_BYTES + 1))
    assert main(args) == 2


def test_locked_store_exit_3(store_path, capsys):
    with open_store(store_path, MasterKey(bytes.fromhex(HEX_KEY))):
        assert main(["--store", store_path, "--tenant", "uni_a", "list"]) == 3
    assert "locked" in capsys.readouterr().err


def test_locked_store_through_a_symlink_exit_3(store_path, tmp_path, capsys):
    link = str(tmp_path / "link.cmt")
    os.symlink(store_path, link)
    with open_store(store_path, MasterKey(bytes.fromhex(HEX_KEY))):
        assert main(["--store", link, "--tenant", "uni_a", "list"]) == 3
    assert "locked" in capsys.readouterr().err


def test_commands_leave_only_the_store_file(store_path, tmp_path):
    assert main(insert_args(store_path, "uni_a")) == 0
    for command in (
        ["get", "--row", "1"],
        ["list"],
        ["update", "--row", "1", "--set", "name=M", "--set", "contact=C", "--set", "department=D"],
        ["delete", "--row", "1"],
    ):
        assert main(["--store", store_path, "--tenant", "uni_a"] + command) == 0
    assert os.listdir(tmp_path) == [os.path.basename(store_path)]


@pytest.mark.parametrize(
    "header",
    ['{"v":99,"table":"t","fields":["a"]}', "not json"],
    ids=["VersionMismatch", "CorruptHeader"],
)
def test_unreadable_header_exit_3(tmp_path, monkeypatch, header):
    monkeypatch.setenv(MASTER_KEY_ENV, HEX_KEY)
    path = tmp_path / "s.cmt"
    path.write_text(header + "\n")
    assert main(["--store", str(path), "--tenant", "uni_a", "list"]) == 3


def test_every_error_class_carries_its_exit_code():
    codes = {
        cls.__name__: cls.exit_code
        for cls in vars(errors).values()
        if isinstance(cls, type) and issubclass(cls, errors.CmtError)
    }
    assert codes == {
        "CmtError": 3, "MissingKey": 3, "MalformedKey": 3, "InvalidTenantId": 2,
        "FieldTooLarge": 2, "AuthError": 6, "StoreError": 3,
        "AlreadyExists": 2, "InvalidSchema": 2, "CorruptHeader": 3,
        "VersionMismatch": 3, "CorruptLog": 3, "SchemaMismatch": 2, "NotFound": 4,
        "IsolationDenied": 5, "StoreLocked": 3,
    }


def test_short_values_never_load_numpy(tmp_path):
    # numpy is imported on the first use of the multi-lane kernel only
    script = (
        "import sys\n"
        "from cmt.cli import main\n"
        f"path = {str(tmp_path / 's.cmt')!r}\n"
        f"main(['--store', path, 'init', '--table', 't', '--fields', {FIELDS!r}])\n"
        "main(['--store', path, '--tenant', 'uni_a', 'insert', '--set', 'name=Asha',"
        " '--set', 'contact=98765', '--set', 'department=cs'])\n"
        "main(['--store', path, '--tenant', 'uni_a', 'get', '--row', '1'])\n"
        "print('numpy' in sys.modules)\n"
    )
    env = dict(os.environ, **{MASTER_KEY_ENV: HEX_KEY})
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "False"


def test_one_shot_get_and_list_never_load_numpy(tmp_path):
    # a `cmt get` of a 4 KB value or a `cmt list` of 20 rows is cheaper on
    # the block chain than the kernel's numpy import
    path = str(tmp_path / "s.cmt")
    main(["--store", path, "init", "--table", "t", "--fields", FIELDS])
    with open_store(path, MasterKey(bytes.fromhex(HEX_KEY))) as s:
        big = s.insert("uni_a", {"name": "x" * 4096, "contact": "c", "department": "d"})
        for i in range(20):
            s.insert("uni_b", {"name": f"n{i}", "contact": "c" * 40, "department": "d" * i})
    env = dict(os.environ, **{MASTER_KEY_ENV: HEX_KEY})
    for tenant, command in (("uni_a", ["get", "--row", str(big)]), ("uni_b", ["list"])):
        script = (
            "import sys\n"
            "from cmt.cli import main\n"
            f"code = main(['--store', {path!r}, '--tenant', {tenant!r}] + {command!r})\n"
            "print(code, 'numpy' in sys.modules, file=sys.stderr)\n"
        )
        result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
        assert result.returncode == 0, result.stderr
        assert result.stderr.splitlines()[-1] == "0 False"
        assert result.stdout.count("\n") >= (1 if tenant == "uni_a" else 20)


# Runs `python -c SCRIPT ARGS...` with its output discarded and prints its
# exit code and peak RSS in KB. A process's ru_maxrss starts from the RSS of
# the process it was spawned from, so the script runs under this launcher,
# a `python -S` smaller than any `cmt` child, not straight from pytest.
_PEAK_RSS = """\
import os, sys
devnull = [(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)]
pid = os.posix_spawn(sys.executable, [sys.executable, "-c", *sys.argv[1:]], os.environ, file_actions=devnull)
_, status, usage = os.wait4(pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


@pytest.mark.parametrize("numpy", [True, False], ids=["numpy", "no_numpy"])
def test_a_list_peaks_at_a_small_multiple_of_the_store_above_a_bare_process(tmp_path, numpy):
    # a 3.6 MB store of 110 rows of three 8,000-byte values: one row
    # encrypted through the library, its line appended again under each
    # next row id, as valid a log as 110 inserts. Its `cmt list` peaked at
    # 6.0 times the file above a bare process that imports the same modules
    # with the kernel, and at 5.5-5.6 times on the packed rounds; when the
    # kernel decrypted the whole batch in one call, at 15.3 times
    if numpy:
        pytest.importorskip("numpy")
    path = tmp_path / "s.cmt"
    with create_store(str(path), TableSchema("t", FIELDS.split(",")), MasterKey(bytes.fromhex(HEX_KEY))) as s:
        s.insert("uni_a", dict.fromkeys(FIELDS.split(","), "v" * 8000))
    _, line = path.read_bytes().splitlines(keepends=True)
    with open(path, "ab") as f:
        f.writelines([line.replace(b'"r":1,', b'"r":%d,' % r, 1) for r in range(2, 111)])
    blocked = "" if numpy else "import sys; sys.modules['numpy'] = None\n"
    scripts = (blocked + "import cmt.cli" + ("; import numpy" if numpy else ""),
               blocked + "from cmt.cli import run; run()")
    env = dict(os.environ, **{MASTER_KEY_ENV: HEX_KEY})
    peaks = []
    for script, args in zip(scripts, ([], ["--store", str(path), "--tenant", "uni_a", "list"])):
        result = subprocess.run([sys.executable, "-S", "-c", _PEAK_RSS, script, *args],
                                capture_output=True, text=True, env=env)
        code, peak = map(int, result.stdout.split())
        assert code == 0, result.stderr
        peaks.append(peak * 1024)
    assert (peaks[1] - peaks[0]) / path.stat().st_size < 8


ARGPARSE_MODULES = ["argparse", "gettext", "locale"]


def test_import_loads_only_what_a_command_uses(tmp_path):
    # a one-shot process pays for every module it imports; the package binds
    # no names, so the cipher alone loads no other module of it
    unused = {
        "cmt.cli": ["dataclasses", "inspect", "logging", "hashlib", "_hashlib", "numpy",
                    "cmt.selftest", "base64", "json", *ARGPARSE_MODULES],
        "cmt.aes_core": ["cmt.tenant_store", "cmt.key_service", "cmt.crypto_codec",
                         "cmt.errors", "cmt.cli", "cmt.selftest", "json", "fcntl"],
    }
    for module, names in unused.items():
        script = f"import sys\nimport {module}\nprint([m for m in {names!r} if m in sys.modules])\n"
        result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines()[-1] == "[]", module
    # the placed tables wait for the first encryption of PLACED_MIN_BLOCKS
    # blocks
    script = (
        "from cmt import aes_core\n"
        "before = aes_core._PLACED_ENC is not None\n"
        "aes_core.encrypt_cbc(bytes(16 * 64), aes_core.expand_key(bytes(16)), bytes(16))\n"
        "print(before, aes_core._PLACED_ENC is not None)\n"
    )
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert result.stdout.splitlines()[-1] == "False True", result.stderr
    # a plainly spelled command line runs without argparse, which only a
    # line of any other spelling loads, and no command loads json
    path = str(tmp_path / "s.cmt")
    env = dict(os.environ, **{MASTER_KEY_ENV: HEX_KEY})
    values = ["--set", "name=A", "--set", "contact=C", "--set", "department=D"]
    commands = [
        ["init", "--table", "t", "--fields", FIELDS],
        ["--tenant", "uni_a", "insert", *values],
        ["--tenant", "uni_a", "insert", *values],
        ["--tenant", "uni_a", "update", "--row", "1", *values],
        ["--tenant", "uni_a", "delete", "--row", "2"],
        ["--tenant", "uni_a", "get", "--row", "1"],
        ["--tenant", "uni_a", "list"],
    ]
    for command in commands:
        script = (
            "import sys\n"
            "from cmt.cli import main\n"
            f"code = main(['--store', {path!r}] + {command!r})\n"
            f"print(code, [m for m in {ARGPARSE_MODULES!r} if m in sys.modules], 'json' in sys.modules,\n"
            "      file=sys.stderr)\n"
        )
        result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
        assert result.stderr.splitlines()[-1] == "0 [] False", (command, result.stderr)
    # and all of them in one process, on a new store
    os.unlink(path)
    script = (
        "import sys\n"
        "from cmt.cli import main\n"
        f"codes = [main(['--store', {path!r}] + command) for command in {commands!r}]\n"
        "print(codes, 'json' in sys.modules, file=sys.stderr)\n"
    )
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert result.stderr.splitlines()[-1] == f"{[0] * len(commands)} False", result.stderr
    for argv in (["--help"], ["get", "--help"]):
        result = subprocess.run([sys.executable, "-m", "cmt.cli", *argv], capture_output=True, text=True)
        assert result.returncode == 0 and result.stdout.startswith("usage: cmt "), result


def test_selftest_passes_in_a_fresh_process(monkeypatch):
    monkeypatch.delenv(MASTER_KEY_ENV, raising=False)
    result = subprocess.run(
        [sys.executable, "-m", "cmt.cli", "selftest"], capture_output=True, text=True
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert "FAIL" not in result.stdout
    assert re.search(r"throughput: [0-9.]+ MB/s over 16 MB on the multi-lane kernel\n", result.stdout)


def test_selftest_passes_without_numpy(monkeypatch):
    # where numpy is not installed, the throughput check times the packed
    # rounds, and its line says so
    monkeypatch.delenv(MASTER_KEY_ENV, raising=False)
    result = run_without_numpy(CMT, "selftest")
    assert result.returncode == 0, result.stdout + result.stderr
    assert "FAIL" not in result.stdout
    assert re.search(r"throughput: [0-9.]+ MB/s over 16 MB on the packed rounds\n", result.stdout)


def test_bad_subcommand_exit_2(capsys):
    assert main(["frobnicate"]) == 2


def test_the_console_script_exits_with_mains_code(tmp_path, monkeypatch, capsys):
    # `cmt`, the script pyproject.toml declares, is `run`: main's code as the
    # process's exit status; here a get without --row, before any store is made
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sys, "argv", ["cmt", "--tenant", "x", "get"])
    with pytest.raises(SystemExit) as exc:
        run()
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("usage: ") and "--row" in err
    assert list(tmp_path.iterdir()) == []


def test_master_key_file_flag(store_path, tmp_path, monkeypatch, capsys):
    main(insert_args(store_path, "uni_a", name="viafile"))
    capsys.readouterr()
    monkeypatch.delenv(MASTER_KEY_ENV)
    key_file = tmp_path / "master.key"
    key_file.write_text(HEX_KEY + "\n")
    code = main([
        "--store", store_path, "--master-key-file", str(key_file),
        "--tenant", "uni_a", "get", "--row", "1",
    ])
    assert code == 0
    assert "name=viafile" in capsys.readouterr().out


def test_wrong_master_key_exit_6(store_path, monkeypatch):
    main(insert_args(store_path, "uni_a"))
    monkeypatch.setenv(MASTER_KEY_ENV, "ff" * 16)
    assert main(["--store", store_path, "--tenant", "uni_a", "get", "--row", "1"]) == 6


# --- selftest ----------------------------------------------------------------

def test_selftest_runs_without_key_or_store(monkeypatch, capsys):
    monkeypatch.delenv(MASTER_KEY_ENV, raising=False)
    assert main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert "pass kat-cipher-example" in out
    assert "FAIL" not in out


def test_selftest_fails_on_corrupted_sbox(monkeypatch, capsys):
    from cmt import aes_core

    mutated = list(aes_core.SBOX)
    mutated[7] ^= 0x01
    monkeypatch.setattr(aes_core, "SBOX", mutated)
    assert main(["selftest"]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_selftest_times_only_a_kernel_that_matches_the_scalar_cipher(monkeypatch, capsys):
    from cmt import aes_core

    lane_rounds = aes_core._lane_rounds

    def zero_decryption(states, keys, backward):
        # the kernel's MAC steps stay right, its decryption returns zeros
        out = lane_rounds(states, keys, backward)
        return out * 0 if backward else out

    monkeypatch.setattr(aes_core, "_lane_rounds", zero_decryption)
    assert main(["selftest"]) == 1
    out = capsys.readouterr().out
    assert "FAIL block-throughput" in out
    assert "throughput:" not in out


@pytest.mark.parametrize("broken", ["encryption", "decryption"])
def test_selftest_fails_when_the_packed_rounds_disagree(broken, monkeypatch, capsys):
    from cmt import aes_core

    packed_rounds = aes_core._packed_rounds

    def one_bit_off(x, n, keys, backward):
        # one direction of the packed rounds flips the last bit of its output
        out = packed_rounds(x, n, keys, backward)
        return out ^ (backward == (broken == "decryption"))

    monkeypatch.setattr(aes_core, "_packed_rounds", one_bit_off)
    assert main(["selftest"]) == 1
    out = capsys.readouterr().out
    assert "FAIL block-throughput" in out
    assert "throughput:" not in out


@pytest.mark.parametrize("engine", ["the packed rounds", "the multi-lane kernel"])
def test_selftest_checks_the_output_of_its_timed_decryption(engine, monkeypatch, capsys):
    # the timed decryption runs on the packed rounds, as without numpy, or
    # on the kernel, in three full chunks and a narrower last one; in every
    # decryption the full-width chunks after the first come out with every
    # bit flipped, which only the timed one has (the agreement checks'
    # batch has one)
    from cmt import aes_core, selftest

    lanes = engine == "the multi-lane kernel"
    if lanes:
        pytest.importorskip("numpy")
    name = "_lane_rounds" if lanes else "_packed_rounds"
    decrypt_cbc, rounds = aes_core.decrypt_cbc, getattr(aes_core, name)
    full, corrupted = [0], []

    def decrypting(*args):
        full[0] = 0
        return decrypt_cbc(*args)

    def later_chunks_off(*args):
        out, backward = rounds(*args), args[-1]
        n = args[0].shape[1] if lanes else args[1]
        if backward and n == aes_core.PACKED_MAX_LANES:
            full[0] += 1
            if full[0] > 1:
                corrupted.append(n)
                return ~out if lanes else out ^ (1 << 128 * n) - 1
        return out

    monkeypatch.setattr(aes_core, "use_lanes", lambda messages: lanes)
    monkeypatch.setattr(selftest, "THROUGHPUT_BUFFER_BYTES", 4 * 16 * aes_core.PACKED_MAX_LANES)
    monkeypatch.setattr(aes_core, "decrypt_cbc", decrypting)
    monkeypatch.setattr(aes_core, name, later_chunks_off)
    assert main(["selftest"]) == 1
    out = capsys.readouterr().out
    assert f"on {engine}" in out
    assert "FAIL block-throughput" in out
    assert len(corrupted) == 2


# --- restart durability (real separate processes) ------------------------------

def run_cmt(args, env_key=HEX_KEY, timeout=None):
    env = dict(os.environ)
    env[MASTER_KEY_ENV] = env_key
    return subprocess.run(
        [sys.executable, "-m", "cmt.cli", *args],
        capture_output=True, text=True, env=env, timeout=timeout,
    )


@pytest.mark.parametrize("where", ["header", "event"])
def test_a_line_nested_too_deep_exits_3_without_a_traceback(tmp_path, where):
    # json's scanner, which once read such a line, raised RecursionError on
    # it, which is no ValueError
    nested = "[" * 100_000 + "]" * 100_000 + "\n"
    path = tmp_path / "s.cmt"
    header = '{"v":1,"table":"t","fields":["a"]}\n'
    path.write_text(nested if where == "header" else header + nested)
    result = run_cmt(["--store", str(path), "--tenant", "uni_a", "list"])
    assert result.returncode == 3
    assert result.stderr.startswith("cmt: error: ")
    assert result.stderr.count("\n") == 1
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize(
    "content, message",
    [("", "empty store file: {!r}"), ('\n{"v":1,"table":"t","fields":["a"]}\n', "empty header line in {!r}")],
    ids=["empty_file", "leading_newline"],
)
def test_an_empty_header_line_exits_3_with_its_own_message(tmp_path, content, message):
    path = tmp_path / "s.cmt"
    path.write_text(content)
    result = run_cmt(["--store", str(path), "--tenant", "uni_a", "list"])
    assert result.returncode == 3
    assert result.stderr == f"cmt: error: {message.format(str(path))}\n"


def test_a_store_that_is_not_a_regular_file_exits_3(tmp_path):
    # a FIFO would block `list` in the replay's read until killed
    path = tmp_path / "s.cmt"
    os.mkfifo(path)
    result = run_cmt(["--store", str(path), "--tenant", "uni_a", "list"], timeout=60)
    assert result.returncode == 3
    assert result.stderr == f"cmt: error: not a regular file: {str(path)!r}\n"
    assert result.stdout == ""


def test_values_survive_process_restart(tmp_path):
    path = str(tmp_path / "s.cmt")
    assert run_cmt(["--store", path, "init", "--table", "t", "--fields", FIELDS]).returncode == 0
    ins = run_cmt(insert_args(path, "uni_a", name="Alice"))
    assert ins.returncode == 0 and ins.stdout.strip() == "1"
    got = run_cmt(["--store", path, "--tenant", "uni_a", "get", "--row", "1"])
    assert got.returncode == 0
    assert "name=Alice" in got.stdout


@pytest.mark.parametrize("header", ['{"v":2,"table":"t","fields":["name"]}',
                                    '{"v": 2, "table": "t", "fields": ["name"]}'],
                         ids=["as_cmt_writes_it", "spaced"])
@pytest.mark.parametrize("command", [["get", "--row", "1"], ["list"]])
def test_a_store_of_another_version_exits_3_naming_both(tmp_path, header, command):
    # a header spaced otherwise than `cmt` writes one is no header of any
    # version
    path = tmp_path / "s.cmt"
    path.write_text(header + "\n")
    result = run_cmt(["--store", str(path), "--tenant", "uni_a", *command])
    assert result.returncode == 3 and result.stdout == ""
    assert result.stderr == (f"cmt: error: store {str(path)!r} is format version 2; cmt reads version 1\n"
                             if "{\"v\":2," in header else
                             f"cmt: error: header of {str(path)!r} is not one cmt writes\n")
    assert path.read_text() == header + "\n"


def test_a_log_whose_events_carry_ts_still_opens(tmp_path):
    # every earlier version wrote a never-read "ts" (unix seconds) after "r"
    path = str(tmp_path / "s.cmt")
    master = MasterKey(bytes.fromhex(HEX_KEY))
    with create_store(path, TableSchema("t", tuple(FIELDS.split(","))), master) as s:
        for tenant, name in (("uni_a", "Asha"), ("uni_a", "Ravi"), ("uni_b", "Mei")):
            s.insert(tenant, {"name": name, "contact": "C", "department": "D"})
        s.update("uni_a", 2, {"name": "Ravi K", "contact": "C2", "department": "D"})
        s.delete("uni_b", 3)
        expected = {t: s.list(t) for t in ("uni_a", "uni_b")}
    with open(path, encoding="ascii") as fh:
        header, *events = fh.read().splitlines()
    old = [header]
    for ts, line in enumerate(events, start=1_700_000_000):
        event = json.loads(line)
        stamped = {"op": event["op"], "t": event["t"], "r": event["r"], "ts": ts}
        stamped.update({"f": event["f"]} if "f" in event else {})
        old.append(json.dumps(stamped, separators=(",", ":")))
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(old) + "\n")
    with open_store(path, master) as s:
        assert {t: s.list(t) for t in expected} == expected
        assert s.get("uni_a", 2) == expected["uni_a"][1]
        assert s.insert("uni_b", {"name": "Lin", "contact": "C", "department": "D"}) == 4
    with open(path, encoding="ascii") as fh:
        assert fh.read().splitlines()[:-1] == old
    got = run_cmt(["--store", path, "--tenant", "uni_a", "get", "--row", "2"])
    assert got.returncode == 0
    assert "name=Ravi K" in got.stdout
    got = run_cmt(["--store", path, "--tenant", "uni_b", "get", "--row", "4"])
    assert got.returncode == 0 and "name=Lin" in got.stdout


def test_master_key_file_not_utf8_exit_3(store_path, tmp_path):
    key_file = tmp_path / "master.key"
    key_file.write_bytes(bytes(range(216, 256)))  # 40 bytes that are not UTF-8
    result = run_cmt([
        "--store", store_path, "--master-key-file", str(key_file),
        "--tenant", "uni_a", "get", "--row", "1",
    ])
    assert result.returncode == 3
    assert result.stdout == ""
    assert "Traceback" not in result.stderr


def test_a_torn_tail_warns_on_every_open_until_a_write_cuts_it(store_path):
    main(insert_args(store_path, "uni_a", name="Kept"))
    whole = Path(store_path).read_bytes()
    with open(store_path, "ab") as fh:
        fh.write(b'{"op":"ins","t":"uni_a","r":2,')  # a crash mid-append
    torn = Path(store_path).read_bytes()
    get = ["--store", store_path, "--tenant", "uni_a", "get", "--row", "1"]
    warning = f"torn trailing write in {store_path!r} (30 bytes): the next write cuts it\n"
    for _ in range(2):  # a get writes nothing, so the next open warns again
        result = run_cmt(get)
        assert result.returncode == 0, result.stderr
        assert result.stdout == "row=1\nname=Kept\ncontact=C\ndepartment=D\n"
        assert result.stderr == warning
        assert Path(store_path).read_bytes() == torn
    inserted = run_cmt(insert_args(store_path, "uni_a", name="Next"))
    assert (inserted.returncode, inserted.stdout, inserted.stderr) == (0, "2\n", warning)
    # the insert cut the tail and appended its line right after the last complete one
    data = Path(store_path).read_bytes()
    assert data.startswith(whole) and data.endswith(b"\n")
    assert data.count(b"\n") == whole.count(b"\n") + 1
    after = run_cmt(get)
    assert (after.returncode, after.stderr) == (0, "")


@pytest.mark.parametrize("case", ["init", "torn_tail", "corrupt_log", "locked", "missing_key"])
def test_a_path_holding_a_newline_is_named_on_one_stderr_line(tmp_path, case):
    # every message names a path by its repr, so a newline in one cannot
    # start a stderr line of its own
    folder = tmp_path / "a\nb"
    folder.mkdir()
    store, key_file = str(folder / "s\n.cmt"), str(folder / "key\nfile")
    args = ["--store", store, "--master-key-file", key_file]
    if case != "missing_key":
        Path(key_file).write_text(HEX_KEY)
    if case == "init":
        result = run_cmt([*args, "init", "--table", "t", "--fields", FIELDS])
        assert (result.returncode, result.stderr) == (
            0, f"created store {store!r}: table t (name, contact, department)\n")
        return
    with create_store(store, TableSchema("t", FIELDS.split(",")), MasterKey(bytes.fromhex(HEX_KEY))) as s:
        s.insert("uni_a", {"name": "N", "contact": "C", "department": "D"})
    expected = {
        "torn_tail": (0, f"torn trailing write in {store!r} ({len(TORN)} bytes): the next write cuts it"),
        "corrupt_log": (3, f"cmt: error: corrupt event at line 3 of {store!r}: not a well-formed event"),
        "locked": (3, f"cmt: error: store is locked by another process: {store!r}"),
        "missing_key": (3, f"cmt: error: master key file not found: {key_file!r}"),
    }[case]
    with open(store, "ab") as fh:
        fh.write({"torn_tail": TORN, "corrupt_log": b'{"op":"zap"}\n'}.get(case, b""))
    with contextlib.ExitStack() as stack:
        if case == "locked":
            stack.enter_context(open_store(store, MasterKey(bytes.fromhex(HEX_KEY))))
        result = run_cmt([*args, "--tenant", "uni_a", "get", "--row", "1"])
    assert (result.returncode, result.stderr) == (expected[0], expected[1] + "\n")


@pytest.mark.parametrize(
    "command", [["get"], ["update", "--set", "name=N"], ["delete"]], ids=lambda c: c[0]
)
def test_a_command_without_row_exits_2_before_the_store_is_opened(
    store_path, monkeypatch, capsys, command
):
    main(insert_args(store_path, "uni_a"))
    with open(store_path, "ab") as fh:
        fh.write(b'{"op":"ins","t":"uni_a","r":2,')  # a torn tail that a write would cut
    before = Path(store_path).read_bytes()
    monkeypatch.delenv(MASTER_KEY_ENV)  # refused before any key is loaded
    capsys.readouterr()
    assert main(["--store", store_path, "--tenant", "uni_a", *command]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: ") and "--row" in err
    assert Path(store_path).read_bytes() == before


@pytest.mark.parametrize("command", [["insert"], ["update", "--row", "1"]], ids=lambda c: c[0])
def test_a_command_without_set_exits_2_before_the_store_is_opened(
    store_path, monkeypatch, capsys, command
):
    main(insert_args(store_path, "uni_a"))
    with open(store_path, "ab") as fh:
        fh.write(b'{"op":"ins","t":"uni_a","r":2,')  # a torn tail that a write would cut
    before = Path(store_path).read_bytes()
    monkeypatch.delenv(MASTER_KEY_ENV)  # refused before any key is loaded
    capsys.readouterr()
    assert main(["--store", store_path, "--tenant", "uni_a", *command]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: ") and "--set" in err
    assert Path(store_path).read_bytes() == before


@pytest.mark.parametrize("with_key", [True, False], ids=["key", "no_key"])
@pytest.mark.parametrize(
    "command", [["--tenant", "BAD", "list"], ["--tenant", "uni_a", "insert", "--set", "novalue"]],
    ids=["bad_tenant", "malformed_set"],
)
def test_a_refused_command_line_exits_2_before_the_key_and_the_store(
    store_path, monkeypatch, capsys, command, with_key
):
    main(insert_args(store_path, "uni_a"))
    with open(store_path, "ab") as fh:
        fh.write(b'{"op":"ins","t":"uni_a","r":2,')  # a torn tail that a write would cut
    before = Path(store_path).read_bytes()
    if not with_key:
        monkeypatch.delenv(MASTER_KEY_ENV)
    capsys.readouterr()
    assert main(["--store", store_path, *command]) == 2
    assert capsys.readouterr().err.startswith("cmt: error: ")
    assert Path(store_path).read_bytes() == before


def test_a_key_fifo_whose_writer_holds_it_open_exits_3(tmp_path):
    key_file = str(tmp_path / "master.key")
    args = ["--store", str(tmp_path / "s.cmt"), "--master-key-file", key_file, "--tenant", "uni_a"]
    with a_fifo_held_open(key_file, HEX_KEY + "\n" * 10_000):
        result = run_cmt([*args, "list"], timeout=60)
    assert result.returncode == 3
    assert result.stderr == "cmt: error: master key must be 32 hex characters\n"
    assert result.stdout == ""


# --- forged values ----------------------------------------------------------------

def _forge(values, kind):
    """The target row's fields after one forgery, built the way the
    benchmark's tamper set builds it; `values` are rows 1..3's raw fields."""
    fields = dict(values[1])
    if kind == "bit_flip":
        raw = bytearray(fields["name"])
        raw[20] ^= 0x01  # a bit of the first ciphertext block
        fields["name"] = bytes(raw)
    elif kind == "cross_tenant_value":
        fields["name"] = values[3]["name"]
    elif kind == "cbc_mac_length_extension":
        raw = fields["name"]
        iv, ct, tag = raw[:16], raw[16:-16], raw[-16:]
        # CBC-MAC(IV || ct) = tag, so the chain restarts at IV ^ tag
        fields["name"] = iv + ct + bytes(a ^ b for a, b in zip(iv, tag)) + ct + tag
    return fields


@pytest.mark.parametrize("kind", ["bit_flip", "cross_tenant_value", "cbc_mac_length_extension"])
def test_forged_value_exit_6(store_path, kind):
    # a name of two blocks or more: a length extension keeps valid padding
    # and fails only on the UTF-8 of its spliced blocks
    main(insert_args(store_path, "uni_a", name="Tamper Target Name 01"))
    main(insert_args(store_path, "uni_a", name="Second Row Of Tenant A"))
    main(insert_args(store_path, "uni_b", name="Row Of The Other Tenant"))
    with open(store_path, encoding="ascii") as fh:
        events = [json.loads(line) for line in fh.read().splitlines()[1:]]
    values = {e["r"]: {k: base64.b64decode(v) for k, v in e["f"].items()} for e in events}
    forged = {k: base64.b64encode(v).decode("ascii") for k, v in _forge(values, kind).items()}
    with open(store_path, "a", encoding="ascii") as fh:  # as `cmt` spells a line
        fh.write(json.dumps({"op": "upd", "t": "uni_a", "r": 1, "f": forged}, separators=(",", ":")) + "\n")
    result = run_cmt(["--store", store_path, "--tenant", "uni_a", "get", "--row", "1"])
    assert result.returncode == 6
    assert result.stdout == ""
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize("tampering", ["foreign_delete", "update_of_a_row_never_inserted",
                                       "insert_and_update_swapped"])
def test_an_event_cmt_never_writes_exits_3_untouched(store_path, tampering):
    # an update or a delete of a row not live under the event's tenant. Each
    # used to open: the foreign delete took row 1 from its owner, and the
    # update of row 50 made a row of row 1's values
    main(insert_args(store_path, "uni_a", name="First"))
    update = insert_args(store_path, "uni_a", name="Second")
    update[update.index("insert")] = "update"
    assert main(update + ["--row", "1"]) == 0
    header, ins, upd, _ = Path(store_path).read_bytes().split(b"\n")
    tampered, number = {
        "foreign_delete": ([ins, upd, b'{"op":"del","t":"zz","r":1}'], 4),
        "update_of_a_row_never_inserted": (
            [ins, upd, ins.replace(b'"op":"ins"', b'"op":"upd"').replace(b'"r":1,', b'"r":50,')], 4),
        "insert_and_update_swapped": ([upd, ins], 2),
    }[tampering]
    Path(store_path).write_bytes(b"\n".join([header, *tampered, b""]))
    before = Path(store_path).read_bytes()
    for command in (["get", "--row", "1"], ["list"]):
        result = run_cmt(["--store", store_path, "--tenant", "uni_a", *command])
        assert (result.returncode, result.stdout, result.stderr) == (3, "", (
            f"cmt: error: corrupt event at line {number} of {store_path!r}: no live row of its tenant\n"))
        assert Path(store_path).read_bytes() == before


_BASE64 = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"


@pytest.mark.parametrize("spelling", ["spaced_delete", "pad_bit_set"])
def test_a_line_cmt_never_spells_exits_3_untouched(store_path, spelling):
    # json reads the spaced line as the delete of row 1 by its owner, and
    # strict base64 the value with a pad bit set as the value written: the
    # first used to delete the row, the second to read back as written
    main(insert_args(store_path, "uni_a", name="Tamper Target Name 01"))  # a 64-byte value
    header, ins, _ = Path(store_path).read_bytes().split(b"\n")
    b64 = re.search(rb'"name":"([^"]*)"', ins)[1]
    assert len(b64) == 88 and b64.endswith(b"==")
    bumped = b64[:-3] + bytes([_BASE64[_BASE64.index(b64[-3]) + 1]]) + b"=="
    assert base64.b64decode(bumped) == base64.b64decode(b64) and bumped != b64
    lines, number = {
        "spaced_delete": ([ins, b'{"op": "del", "t": "uni_a", "r": 1}'], 3),
        "pad_bit_set": ([ins.replace(b64, bumped)], 2),
    }[spelling]
    Path(store_path).write_bytes(b"\n".join([header, *lines, b""]))
    before = Path(store_path).read_bytes()
    for command in (["get", "--row", "1"], ["list"]):
        result = run_cmt(["--store", store_path, "--tenant", "uni_a", *command])
        assert (result.returncode, result.stdout, result.stderr) == (3, "", (
            f"cmt: error: corrupt event at line {number} of {store_path!r}: not a well-formed event\n"))
        assert Path(store_path).read_bytes() == before


# --- the command-line contract, fuzzed -------------------------------------------

FUZZ_FIELDS = tuple(FIELDS.split(","))
# the good store's rows: plaintext that no diagnostic may show
FUZZ_ROWS = [("uni_a", ("sentinel-a1", "sentinel-a2", "sentinel-a3")),
             ("uni_b", ("sentinel-b1", "sentinel-b2", "sentinel-b3"))]
NESTED_LINE = b"[" * 100_000 + b"]" * 100_000 + b"\n"
STORES = ("good", "torn", "header", "missing", "empty", "corrupt", "nested_event",
          "nested_header", "directory", "locked")
KEYS_THAT_LOAD = ("good", "wrong", "env")
KEYS = KEYS_THAT_LOAD + ("missing", "short", "not_utf8", "none")
TORN = b'{"op":"ins","t":"uni_a","r":9,'
REQUIRED = {"init": ("--table", "--fields"), "insert": ("--tenant", "--set"),
            "get": ("--tenant", "--row"), "list": ("--tenant",),
            "update": ("--tenant", "--row", "--set"), "delete": ("--tenant", "--row")}
# the documented name patterns, matched against the whole string
TENANT_ID = re.compile(r"[a-z0-9_-]{1,64}")
NAME = re.compile(r"[a-z0-9_]{1,64}")


@pytest.fixture(scope="module")
def good_store(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "s.cmt"
    with create_store(str(path), TableSchema("student_entry", FUZZ_FIELDS),
                      MasterKey(bytes.fromhex(HEX_KEY))) as store:
        for tenant, values in FUZZ_ROWS:
            store.insert(tenant, dict(zip(FUZZ_FIELDS, values)))
    return path.read_bytes()


# each flag's well-formed values and malformed ones; a --set "value" is a
# list of FIELD=VALUE pairs, "\udcff" is a value with no UTF-8 encoding
_VALUES = st.sampled_from(["v", "\udcff", "", "é", "a=b"])
_NAME = st.sampled_from(FUZZ_FIELDS + ("student_entry",))
_BAD_NAME = (_NAME.map("{}\n".format) | st.sampled_from(["Name", "x" * 65, "", "a-b"])
             | st.text("az_-A\n", max_size=4))
_TENANT = st.sampled_from(["uni_a", "uni_b"])
_BAD_TENANT = (_TENANT.map("{}\n".format) | st.sampled_from(["UNI_A", "u" * 65, "", "a b", "-x"])
               | st.text("ab_-B\n ", max_size=4))
_FLAGS = {
    "--tenant": (_TENANT, _BAD_TENANT),
    "--table": (_NAME, _BAD_NAME),
    "--fields": (st.lists(_NAME, min_size=1, max_size=3).map(",".join),
                 st.lists(_NAME | _BAD_NAME, min_size=1, max_size=3).map(",".join)),
    "--row": (st.sampled_from(["1", "2", "3"]),
              st.sampled_from(["999", "0", "-1", "x", "1.5", "1\n"])),
    "--set": (st.lists(_VALUES, min_size=3, max_size=3).map(
                  lambda vs: [f"{name}={v}" for name, v in zip(FUZZ_FIELDS, vs)]),
              st.lists(st.builds("{}={}".format, _NAME | _BAD_NAME, _VALUES)
                       | st.sampled_from(["novalue", "=x"]), min_size=1, max_size=4)),
}


@st.composite
def command_lines(draw):
    """A well-formed command line with up to two faults, each a flag missing,
    repeated or malformed, or a stray token."""
    command = draw(st.sampled_from(sorted(REQUIRED)))
    names = dict.fromkeys(("--tenant",) + REQUIRED[command])
    flags = {flag: [draw(_FLAGS[flag][0])] for flag in names}
    strays = []
    faults = st.sampled_from(["missing", "missing", "repeated", "malformed", "malformed", "stray"])
    for fault in draw(st.lists(faults, max_size=2)):
        flag = draw(st.sampled_from(sorted(flags)))
        if fault == "missing":
            flags[flag] = []
        elif fault == "repeated":
            flags[flag].append(draw(_FLAGS[flag][0] | _FLAGS[flag][1]))
        elif fault == "malformed":
            flags[flag] = [draw(_FLAGS[flag][1])]
        else:
            strays.append(draw(st.sampled_from(["--bogus", "extra", "a\nb", "-h"])))
    argv = []
    for flag, values in flags.items():  # --tenant, a global flag, first
        for value in values:
            items = value if flag == "--set" else [value]
            argv += [arg for item in items for arg in (flag, item)]
        if flag == "--tenant":
            argv.append(command)
    for stray in strays:
        argv.insert(draw(st.integers(0, len(argv))), stray)
    return command, argv


def _last(argv, flag):
    """The value argparse keeps for `flag`: its last one, or None."""
    values = [argv[i + 1] for i, arg in enumerate(argv[:-1]) if arg == flag]
    return values[-1] if values else None


def _put_store(path, state, good):
    content = {"empty": b"", "header": good[: good.index(b"\n") + 1], "good": good,
               "locked": good, "torn": good + TORN, "corrupt": good + b'{"op":"zap"}\n',
               "nested_event": good + NESTED_LINE, "nested_header": NESTED_LINE}
    if state == "directory":
        path.mkdir()
    elif state != "missing":
        path.write_bytes(content[state])


def _key_args(tmp, key, mp):
    mp.delenv(MASTER_KEY_ENV, raising=False)
    if key == "env":
        mp.setenv(MASTER_KEY_ENV, HEX_KEY)
    if key in ("env", "none"):
        return []
    path = tmp / "key"
    content = {"good": HEX_KEY.encode(), "wrong": b"ff" * 16, "short": HEX_KEY[:30].encode(),
               "not_utf8": b"\xff" * 32}
    if key != "missing":
        path.write_bytes(content[key])
    return ["--master-key-file", str(path)]


def _call(tmp, command, argv, store, key, good):
    """main(argv) on a store and key of the given kinds, checked against the
    contract's rules."""
    shutil.rmtree(tmp)  # what an earlier call, failed or not, left
    tmp.mkdir()
    path = tmp / "s.cmt"
    _put_store(path, store, good)
    before = path.read_bytes() if path.is_file() else path.exists()
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as mp, contextlib.ExitStack() as stack:
        full = ["--store", str(path)] + _key_args(tmp, key, mp) + argv
        if store == "locked":
            stack.enter_context(open_store(str(path), MasterKey(bytes.fromhex(HEX_KEY))))
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(full)
    out, err = out.getvalue(), err.getvalue()
    after = path.read_bytes() if path.is_file() else path.exists()
    # 1. a documented exit code, and 1 only for selftest (never drawn)
    assert code in (0, 2, 3, 4, 5, 6), (full, code, err)
    # 2. stderr holds error lines, argparse's usage text on exit 2, init's
    # confirmation on exit 0 and the warning of an open that found a torn tail
    if code == 2 and err.startswith("usage: "):
        # usage text, then argparse's one error line, which names every
        # argument by its repr, so a newline in one starts no line of its own
        *usage, error = err.splitlines()
        assert all(line.startswith(("usage: ", " ")) for line in usage), (full, err)
        assert re.match(r"cmt( \w+)?: error: ", error), (full, err)
    else:
        allowed = ("cmt: error: ", "cmt: i/o error: ", "torn trailing write in ")
        for line in err.splitlines():
            assert line.startswith(allowed + (("created store ",) if code == 0 else ())), (full, err)
    # 3. no plaintext the store holds reaches stderr
    assert not any(value in err for _, row in FUZZ_ROWS for value in row), (full, err)
    # 4. stdout only on success
    assert code == 0 or out == "", (full, code, out)
    # 5. a failed command, a get and a list change no store: only a write
    # cuts a torn tail
    if code != 0 or command in ("get", "list"):
        assert after == before, (full, code, err)
    if "-h" in argv:  # help exits 0 before any other check
        return
    # 6. a command line without a flag its command requires exits 2
    if any(flag not in argv for flag in REQUIRED[command]):
        assert code == 2, (full, code, err)
    # 7. a name that does not wholly match its pattern exits 2, whatever the
    # key and the store: the command line is checked before either is loaded
    tenant, table, fields = (_last(argv, flag) for flag in ("--tenant", "--table", "--fields"))
    if command == "init" and table is not None and fields is not None:
        if not all(NAME.fullmatch(name) for name in [table, *fields.split(",")]):
            assert code == 2, (full, code, err)
    elif command != "init" and tenant is not None and not TENANT_ID.fullmatch(tenant):
        assert code == 2, (full, code, err)
    # 8. a get or a list that succeeds prints 1 + fields lines per record:
    # a get one record, a list one per row of the tenant, of which a store
    # that opens holds FUZZ_ROWS or, a bare header, none
    if code == 0 and command in ("get", "list"):
        rows = [] if store == "header" else FUZZ_ROWS
        records = 1 if command == "get" else sum(owner == tenant for owner, _ in rows)
        lines = out.split("\n")
        assert lines.pop() == "" and len(lines) == records * (1 + len(FUZZ_FIELDS)), (full, out)
        assert all(line.startswith("row=") for line in lines[:: 1 + len(FUZZ_FIELDS)]), (full, out)


@given(line=command_lines(), store=st.sampled_from(STORES),
       key=st.sampled_from(KEYS_THAT_LOAD) | st.sampled_from(KEYS))
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_every_command_line_keeps_the_exit_code_contract(tmp_path, good_store, line, store, key):
    # the drawn store and key, then the same command line on a good store
    # under a key that loads, which reaches the command itself
    _call(tmp_path, *line, store, key, good_store)
    _call(tmp_path, *line, "good", key if key in KEYS_THAT_LOAD else "good", good_store)


# --- the plainly spelled command line, held to argparse ---------------------------

# each command's options, every one required; the global options may come
# before the command in any order and number
PLAIN_OPTIONS = {"init": ("--table", "--fields"), "insert": ("--set",), "get": ("--row",),
                 "list": (), "update": ("--row", "--set"), "delete": ("--row",), "selftest": ()}
GLOBAL_OPTIONS = ("--store", "--master-key-file", "--tenant")
# values that hold spaces, "=", newlines, non-ASCII characters or nothing,
# or that are command names; none begins with "-"
_PLAIN_VALUE = (st.sampled_from(["", "a b", "a=b", "=", "a\nb", "\n", "é", "\udcff",
                                 " -x", "ünï_a", *PLAIN_OPTIONS])
                | st.text(max_size=6).filter(lambda v: not v.startswith("-")))
# --row values that int() accepts
_PLAIN_ROW = st.integers(0, 10**6).map(str) | st.sampled_from([" 7 ", "1_000", "+4", "\u0663", "007"])


@st.composite
def plain_lines(draw):
    """A plainly spelled command line: global options, a command, then each
    of its options at least once, each option followed by its value."""
    command = draw(st.sampled_from(sorted(PLAIN_OPTIONS)))
    options = PLAIN_OPTIONS[command]
    before = draw(st.lists(st.sampled_from(GLOBAL_OPTIONS), max_size=4))
    repeated = draw(st.lists(st.sampled_from(options), max_size=3)) if options else []
    after = draw(st.permutations([*options, *repeated]))
    argv = []
    for option in before + [command] + after:
        argv.append(option)
        if option != command:
            argv.append(draw(_PLAIN_ROW if option == "--row" else _PLAIN_VALUE))
    return argv


def _argparse_vars(argv):
    """vars() of what argparse parses from argv, or None if it refuses it."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(_build_parser().parse_args(argv))
        except SystemExit:
            return None


@given(plain=plain_lines(), fuzzed=command_lines(), data=st.data(),
       store=st.sampled_from([[], ["--store", "s.cmt"]]))
@settings(max_examples=300, deadline=None)
def test_a_plainly_spelled_line_parses_as_argparse_parses_it(plain, fuzzed, data, store):
    # the recognizer takes every plainly spelled line; for it, for it with
    # a token or an option and its value spliced in, and for the CLI fuzz's
    # line, it declines or returns argparse's namespace
    assert _parse_plain(plain) is not None, plain
    splice = data.draw(st.sampled_from([*PLAIN_OPTIONS, "--store=x", "--ten", "--", "-h", "x"])
                       .map(lambda token: [token])
                       | st.tuples(st.sampled_from([*GLOBAL_OPTIONS, "--table", "--fields", "--set"]),
                                   _PLAIN_VALUE).map(list)
                       | st.tuples(st.just("--row"), _PLAIN_ROW).map(list))
    at = data.draw(st.integers(0, len(plain)))
    spliced = plain[:at] + splice + plain[at:]
    for argv in (plain, spliced, store + fuzzed[1]):
        args = _parse_plain(argv)
        assert args is None or vars(args) == _argparse_vars(argv), argv
