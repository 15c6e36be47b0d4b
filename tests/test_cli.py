"""CLI tests: the Student Entry flow, exit-code contract, stream discipline."""

import os
import subprocess
import sys

import pytest

from cmt import errors
from cmt.cli import main
from cmt.crypto_codec import MAX_FIELD_BYTES
from cmt.key_service import MASTER_KEY_ENV, MasterKey
from cmt.tenant_store import open_store

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
    assert main(["--store", store_path, "--tenant", "uni_a", "get", "--row", "1"]) == 0
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


def test_missing_master_key_exit_3(store_path, monkeypatch):
    monkeypatch.delenv(MASTER_KEY_ENV)
    assert main(insert_args(store_path, "uni_a")) == 3


def test_malformed_master_key_exit_3(store_path, monkeypatch):
    monkeypatch.setenv(MASTER_KEY_ENV, "nothex")
    assert main(insert_args(store_path, "uni_a")) == 3


def test_missing_tenant_exit_2(store_path):
    assert main(["--store", store_path, "list"]) == 2


def test_invalid_tenant_exit_2(store_path):
    assert main(["--store", store_path, "--tenant", "BAD ID", "list"]) == 2


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


def test_oversized_value_exit_2(store_path):
    args = insert_args(store_path, "uni_a", name="x" * (MAX_FIELD_BYTES + 1))
    assert main(args) == 2


def test_locked_store_exit_3(store_path, capsys):
    with open_store(store_path, MasterKey(bytes.fromhex(HEX_KEY))):
        assert main(["--store", store_path, "--tenant", "uni_a", "list"]) == 3
    assert "locked" in capsys.readouterr().err


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
        "PaddingError": 3, "FieldTooLarge": 2, "AuthError": 6, "StoreError": 3,
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


def test_bad_subcommand_exit_2(capsys):
    assert main(["frobnicate"]) == 2


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

    monkeypatch.setattr(aes_core, "decrypt_ecb", lambda data, schedule: bytes(len(data)))
    assert main(["selftest"]) == 1
    out = capsys.readouterr().out
    assert "FAIL block-throughput" in out
    assert "throughput:" not in out


# --- restart durability (real separate processes) ------------------------------

def run_cmt(args, env_key=HEX_KEY):
    env = dict(os.environ)
    env[MASTER_KEY_ENV] = env_key
    return subprocess.run(
        [sys.executable, "-m", "cmt.cli", *args],
        capture_output=True, text=True, env=env,
    )


def test_values_survive_process_restart(tmp_path):
    path = str(tmp_path / "s.cmt")
    assert run_cmt(["--store", path, "init", "--table", "t", "--fields", FIELDS]).returncode == 0
    ins = run_cmt(insert_args(path, "uni_a", name="Alice"))
    assert ins.returncode == 0 and ins.stdout.strip() == "1"
    got = run_cmt(["--store", path, "--tenant", "uni_a", "get", "--row", "1"])
    assert got.returncode == 0
    assert "name=Alice" in got.stdout
