#!/bin/sh
# Command-line rejection test for the ssq_* tools: every numeric option goes
# through the one strict parser in tools/cli.hpp, so a sign or an
# out-of-range value is a usage error, never a wrapped or saturated number;
# removed option values are rejected the same way. Every invocation below
# fails while parsing its arguments, before any simulation starts.
#
# Usage: cli_strict_test.sh <ssq_fuzz> <ssq_sim> <ssq_campaign> <workload>
set -eu

FUZZ=$1
SIM=$2
CAMPAIGN=$3
WORKLOAD=$4
TMP=$(mktemp -d "${TMPDIR:-/tmp}/ssq_cli_strict.XXXXXX")
trap 'rm -rf "$TMP"' EXIT INT TERM

fail() { echo "FAIL: $*" >&2; exit 1; }

# expect_reject <exit code> <stderr substring> <command...>
expect_reject() {
  want=$1
  msg=$2
  shift 2
  set +e
  "$@" >"$TMP/out" 2>"$TMP/err"
  got=$?
  set -e
  [ "$got" -eq "$want" ] || fail "'$*' exited $got, expected $want"
  grep -qF -- "$msg" "$TMP/err" \
    || fail "'$*' stderr lacks '$msg': $(cat "$TMP/err")"
}

expect_reject 2 "expected an unsigned integer" \
  "$FUZZ" --scenarios=1 --seed=-1
expect_reject 2 "expected an unsigned integer" \
  "$FUZZ" --scenarios=1 --seed=99999999999999999999999
expect_reject 2 "expected an unsigned integer" \
  "$FUZZ" --scenarios=1 --seed=12abc
expect_reject 2 "expected an unsigned integer" \
  "$CAMPAIGN" --new="$TMP/c" --seed=-1
expect_reject 1 "expected an unsigned integer" \
  "$SIM" "$WORKLOAD" --seed=-1
expect_reject 1 "--kernel expects bitsliced or scalar" \
  "$SIM" "$WORKLOAD" --kernel=simd
expect_reject 2 "unknown grid token 'simd'" \
  "$CAMPAIGN" --new="$TMP/c" --grid=simd
[ ! -e "$TMP/c" ] || fail "a rejected --new still created its directory"
expect_reject 2 "unknown option '--batch=8'" \
  "$FUZZ" --scenarios=1 --batch=8

echo "cli strict parsing: ok"
