#!/usr/bin/env bash
# README's CLI walkthrough, each step held to its exit code and output.
# Run it in an empty directory with `cmt` on PATH:
#     cd "$(mktemp -d)" && bash /path/to/tests/walkthrough.sh
# It writes studententry.cmt there and nothing else. The first step that
# differs stops it with a non-zero exit. Only `set -e`: with pipefail a
# `printf ... | grep -q` could fail on SIGPIPE.
set -e
export CMT_MASTER_KEY=000102030405060708090a0b0c0d0e0f
store=studententry.cmt
exits() {  # exits CODE ARGS...: cmt ARGS must exit with CODE
  code=0
  cmt --store "$store" "${@:2}" > /dev/null 2>&1 || code=$?
  test "$code" -eq "$1" || { echo "cmt ${*:2}: exit $code, expected $1" >&2; exit 1; }
}
cmt --store "$store" init --table student_entry --fields name,contact,department
row=$(cmt --store "$store" --tenant uni_a insert \
    --set name=Asha --set contact=98765 --set department=cs)
test "$row" = 1
asha=$(printf 'row=1\nname=Asha\ncontact=98765\ndepartment=cs')
got=$(cmt --store "$store" --tenant uni_a get --row 1)
test "$got" = "$asha"
got=$(cmt --store "$store" --tenant uni_a list)
test "$got" = "$asha"
exits 5 --tenant uni_b get --row 1
cmt --store "$store" --tenant uni_a update --row 1 \
    --set name=Ravi --set contact=12345 --set department=ee
got=$(cmt --store "$store" --tenant uni_a get --row 1)
test "$got" = "$(printf 'row=1\nname=Ravi\ncontact=12345\ndepartment=ee')"
cmt --store "$store" --tenant uni_a delete --row 1
exits 4 --tenant uni_a get --row 1
got=$(cmt --store "$store" --tenant uni_a list)
test -z "$got"
