#!/usr/bin/env bash
# Service smoke: boot gpuscaled on the test grid, exercise one call of
# every op over its Unix socket with the bundled one-shot client, then
# drain with SIGTERM and require a clean exit 0 (docs/service.md).
#
# usage: ci/service_smoke.sh [path-to-gpuscaled-binary]
#
# Exit codes: 0 service served and drained cleanly, 1 any call failed,
# the daemon never loaded its census, a census refresh grew the
# journal, or the drain did not exit 0.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
gpuscaled=${1:-"$root/build/src/tools/gpuscaled"}

if [ ! -x "$gpuscaled" ]; then
    echo "service_smoke: no gpuscaled binary at $gpuscaled" >&2
    exit 1
fi
# The daemon launches from a temp cwd, so a relative argument must be
# pinned to an absolute path first.
gpuscaled=$(cd "$(dirname "$gpuscaled")" && pwd)/$(basename "$gpuscaled")

tmp=$(mktemp -d)
sock="$tmp/gpuscaled.sock"
cleanup() {
    [ -n "${pid:-}" ] && kill -9 "$pid" 2> /dev/null || true
    rm -rf "$tmp"
}
trap cleanup EXIT

(cd "$tmp" && exec "$gpuscaled" --socket="$sock" \
    --pidfile="$tmp/gpuscaled.pid" --test-grid --checkpoint="$tmp" \
    serve) &
pid=$!

# Wait for the census to come hot; the test grid loads in well under
# a second, so 30 s is pure scheduling slack.
for i in $(seq 1 150); do
    if "$gpuscaled" --socket="$sock" call health 2> /dev/null |
        grep -q '"census_loaded":true'; then
        break
    fi
    if ! kill -0 "$pid" 2> /dev/null; then
        echo "service_smoke: daemon died during startup" >&2
        exit 1
    fi
    [ "$i" -eq 150 ] && { echo "service_smoke: census never loaded" >&2
                          exit 1; }
    sleep 0.2
done

kernels=$("$gpuscaled" --socket="$sock" call census |
    sed -n 's/.*"kernels":\([0-9]*\).*/\1/p')
echo "service_smoke: census reports ${kernels:-0} kernels"
[ "${kernels:-0}" -gt 0 ] || { echo "service_smoke: empty census" >&2
                               exit 1; }

# A refresh re-runs the census over the journal the daemon opened at
# startup; every kernel is already journaled, so it must append
# nothing.
journal="$tmp/census.journal"
before=$(wc -c < "$journal")
"$gpuscaled" --socket="$sock" --client=smoke call census refresh=true |
    grep -q '"ok":true'
after=$(wc -c < "$journal")
if [ "$after" -ne "$before" ]; then
    echo "service_smoke: census refresh grew the journal" \
        "($before -> $after bytes)" >&2
    exit 1
fi

"$gpuscaled" --socket="$sock" --client=smoke call classify \
    kernel=rodinia/hotspot/calculate_temp | grep -q '"ok":true'
"$gpuscaled" --socket="$sock" --client=smoke call predict \
    kernel=rodinia/hotspot/calculate_temp cu=8 core_clk_mhz=800 \
    mem_clk_mhz=1000 | grep -q '"runtime_s"'
"$gpuscaled" --socket="$sock" --client=smoke call stats |
    grep -q '"ok":true'

# A typed error, not a dropped connection, for an unknown kernel
# (the client exits 1 on an ok:false frame, hence the capture).
notfound=$("$gpuscaled" --socket="$sock" call classify \
    kernel=no/such/kernel || true)
echo "$notfound" | grep -q '"NOT_FOUND"'

# Drain: SIGTERM must finish in-flight work and exit 0.
kill -TERM "$pid"
rc=0
wait "$pid" || rc=$?
if [ "$rc" -ne 0 ]; then
    echo "service_smoke: drain exited $rc, want 0" >&2
    exit 1
fi
pid=
[ -S "$sock" ] && { echo "service_smoke: socket left behind" >&2
                    exit 1; }

echo "service_smoke: all ops answered, drain exited clean"
