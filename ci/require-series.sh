#!/usr/bin/env bash
# require-series.sh URL SERIES...
#
# Fetches a Prometheus-text /metrics endpoint once and requires every named
# series to be present (a line starting with the name, so a histogram is
# probed by its _bucket or _count series). Every missing series is named on
# stderr and the exit status is 1; a dead endpoint is curl's failure. The
# fetched body goes to stdout, so a caller with more to check redirects it
# to a file and greps on. The CI -http smoke jobs use this to pin the series
# a live run must serve: a silently dropped counter or a dead endpoint is an
# observability regression even when the run itself passes.
set -euo pipefail

url=${1:?usage: require-series.sh URL SERIES...}
shift

body=$(curl -sf "$url")
printf '%s\n' "$body"
missing=0
for series in "$@"; do
  if ! grep -q "^$series" <<<"$body"; then
    echo "require-series: $url: missing series: $series" >&2
    missing=1
  fi
done
exit $missing
