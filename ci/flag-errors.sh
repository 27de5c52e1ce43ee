#!/usr/bin/env bash
# flag-errors.sh PKG ARGS...
#
# Requires a CLI to refuse each ARGS word list as a flag error. Builds the
# command package PKG (./cmd/NAME) once, runs it with each ARGS, and fails
# unless every run exits 2 and prints a stderr line starting "NAME: " (a Go
# panic also exits 2, so the message is required too). Every offending run
# is reported before the script exits 1. The binary is built because `go
# run` reports any non-zero exit as 1.
set -euo pipefail

pkg=${1:?usage: flag-errors.sh PKG ARGS...}
shift
name=$(basename "$pkg")
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

go build -o "$tmp/$name" "$pkg"
status=0
for args in "$@"; do
  rc=0
  # shellcheck disable=SC2086 # ARGS is a word list
  "$tmp/$name" $args >/dev/null 2>"$tmp/stderr" || rc=$?
  if ((rc != 2)) || ! grep -q "^$name: " "$tmp/stderr"; then
    cat "$tmp/stderr" >&2
    echo "flag-errors: $name $args exited $rc, want 2 with a '$name: ' message" >&2
    status=1
  fi
done
exit $status
