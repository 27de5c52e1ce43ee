#!/usr/bin/env bash
# live-probe.sh [-kill] ADDR OUT PROBE... -- PKG [ARG...]
#
# Probes the live debug endpoint of a running CLI. Builds the command
# package PKG (./cmd/...), starts it in the background with ARG... -http
# ADDR, waits for its /metrics to answer (ci/wait-http.sh), lets it run one
# more second so its counters move, and probes it while it is still going:
# a PROBE starting with / is a path fetched from ADDR, and PATH~TEXT also
# requires TEXT in the body; any other PROBE is a series /metrics must
# serve (ci/require-series.sh, whose fetched body goes to OUT for the
# caller's own greps). Then it waits for the command and exits with its
# status; -kill stops the command instead, for a run that is only there to
# be probed. A failed probe stops the command and exits non-zero. The CI
# -http smoke jobs are this script plus their own checks on OUT.
set -euo pipefail

usage='usage: live-probe.sh [-kill] ADDR OUT PROBE... -- PKG [ARG...]'
stop=false
if [[ ${1:-} == -kill ]]; then
  stop=true
  shift
fi
addr=${1:?$usage}
out=${2:?$usage}
shift 2
series=() paths=()
while (($#)) && [[ $1 != -- ]]; do
  if [[ $1 == /* ]]; then paths+=("$1"); else series+=("$1"); fi
  shift
done
(($#)) && shift
pkg=${1:?$usage}
shift

here=$(dirname "$0")
tmp=$(mktemp -d)
pid=
trap '[[ -n $pid ]] && kill "$pid" 2>/dev/null; rm -rf "$tmp"' EXIT

go build -o "$tmp/cmd" "$pkg"
"$tmp/cmd" "$@" -http "$addr" &
pid=$!
"$here/wait-http.sh" "http://$addr/metrics"
sleep 1
"$here/require-series.sh" "http://$addr/metrics" "${series[@]}" >"$out"
for probe in "${paths[@]}"; do
  path=${probe%%~*}
  body=$(curl -sf "http://$addr$path")
  if [[ $probe == *~* ]] && ! grep -qF -- "${probe#*~}" <<<"$body"; then
    echo "live-probe: http://$addr$path: body lacks ${probe#*~}" >&2
    exit 1
  fi
done

if $stop; then
  kill "$pid"
  wait "$pid" || true
  pid=
  exit 0
fi
status=0
wait "$pid" || status=$?
pid=
exit $status
