#!/usr/bin/env bash
# usage: filtered-test.sh <cargo test args> -- [--test-binary-flags] <filter>...
#
# `cargo test -- <filter>` exits 0 when the filter matches nothing ("running
# 0 tests"), so a renamed test silently empties the CI step that selected it.
# This runs the command and then requires every filter to have run at least
# one test that passed.
set -euo pipefail
out=$(mktemp)
trap 'rm -f "$out"' EXIT
cargo test "$@" 2>&1 | tee "$out"
filters=0
while [ $# -gt 0 ] && [ "$1" != "--" ]; do shift; done
for filter in "${@:2}"; do
  case "$filter" in -*) continue ;; esac
  filters=$((filters + 1))
  if ! grep -Eq "^test [^ ]*${filter}[^ ]* \.\.\. ok$" "$out"; then
    echo "error: filter '${filter}' matched no passing test" >&2
    exit 1
  fi
done
if [ "$filters" -eq 0 ]; then
  echo "error: no test-name filter after '--'" >&2
  exit 1
fi
