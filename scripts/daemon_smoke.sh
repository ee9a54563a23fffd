#!/usr/bin/env bash
# End-to-end smoke for rc11d, the cache-fronted checking daemon.
#
# Drives the same sequence the tier-2 tests prove in-process, but through
# real processes and a real TCP socket:
#
#   1. `rc11 serve --cache DIR` in the background; parse the bound
#      address from its `rc11d: listening on ADDR` line.
#   2. Pass 1: submit the whole corpus — populates the cache.
#   3. Pass 2: resubmit with --expect-all-hits — every file must be
#      served from the in-memory cache, and --stats must report it.
#   4. Clean shutdown over the wire; the daemon process must exit.
#   5. Restart on the same cache directory; a third pass with
#      --expect-all-hits must be served entirely from the disk spill.
#   6. Hostile requests over a raw connection: a check whose `source` is
#      a 1 MiB JSON string, and one whose source holds 15,000 statements.
#      Each must come back as a structured error within a few seconds,
#      and the daemon must still answer `ping` afterwards.
#
# The daemon runs with --metrics throughout, so the smoke also covers the
# extended observability surface (DESIGN.md §9): the stats payload must
# carry the queue gauge/peak, the config echo, and the latency/worker/
# fingerprint-class sections; `rc11 top ADDR --once` must render them
# live; and a restart must reset the counters while echoing the same
# config.
#
# Usage: scripts/daemon_smoke.sh [path-to-rc11-binary]
set -euo pipefail

cd "$(dirname "$0")/.."

RC11=${1:-target/release/rc11}
if [ ! -x "$RC11" ]; then
    echo "daemon_smoke: building $RC11" >&2
    cargo build --release --locked --bin rc11
fi

WORK=$(mktemp -d "${TMPDIR:-/tmp}/rc11-daemon-smoke.XXXXXX")
LOG="$WORK/serve.log"
CACHE="$WORK/cache"
SERVE_PID=""

cleanup() {
    if [ -n "$SERVE_PID" ] && kill -0 "$SERVE_PID" 2>/dev/null; then
        kill "$SERVE_PID" 2>/dev/null || true
        wait "$SERVE_PID" 2>/dev/null || true
    fi
    rm -rf "$WORK"
}
trap cleanup EXIT

# Start the daemon and wait for its listening line (ephemeral port).
start_daemon() {
    : > "$LOG"
    "$RC11" serve --addr 127.0.0.1:0 --cache "$CACHE" --metrics >"$LOG" 2>&1 &
    SERVE_PID=$!
    ADDR=""
    for _ in $(seq 1 100); do
        ADDR=$(sed -n 's/^rc11d: listening on //p' "$LOG" | head -n1)
        [ -n "$ADDR" ] && return 0
        if ! kill -0 "$SERVE_PID" 2>/dev/null; then
            echo "daemon_smoke: daemon died on startup:" >&2
            cat "$LOG" >&2
            exit 1
        fi
        sleep 0.1
    done
    echo "daemon_smoke: daemon never printed its address:" >&2
    cat "$LOG" >&2
    exit 1
}

stop_daemon() {
    "$RC11" submit --addr "$ADDR" --shutdown
    for _ in $(seq 1 100); do
        kill -0 "$SERVE_PID" 2>/dev/null || { SERVE_PID=""; return 0; }
        sleep 0.1
    done
    echo "daemon_smoke: daemon did not exit after shutdown" >&2
    exit 1
}

# Send one JSON request line (read from file $1) to the daemon over a raw
# bash TCP connection and print the single response line, failing unless
# it arrives within $2 seconds.
raw_request() {
    local line_file=$1 timeout=$2 reply
    exec 3<>"/dev/tcp/${ADDR%:*}/${ADDR##*:}"
    cat "$line_file" >&3
    if ! IFS= read -r -t "$timeout" reply <&3; then
        exec 3<&-
        echo "daemon_smoke: no response within ${timeout}s to $(basename "$line_file")" >&2
        exit 1
    fi
    exec 3<&-
    printf '%s\n' "$reply"
}

# The response must be a structured error: `"ok":false` with a message.
must_be_error() {
    local reply=$1 what=$2
    case "$reply" in
        *'"ok":false'*'"error":'*) ;;
        *) echo "daemon_smoke: $what: expected a structured error, got: ${reply:0:200}" >&2
           exit 1 ;;
    esac
}

# Grep the raw stats JSON (the `stats: {...}` line of `submit --stats`)
# for a required substring.
stats_must_have() {
    local stats_out=$1 needle=$2 why=$3
    echo "$stats_out" | grep -qF "$needle" \
        || { echo "daemon_smoke: stats missing $needle ($why)" >&2; exit 1; }
}

N_FILES=$(ls corpus/*.litmus | wc -l | tr -d ' ')

echo "== pass 1: cold corpus (populates the cache) =="
start_daemon
"$RC11" submit corpus/ --addr "$ADDR"

echo "== pass 2: warm resubmission (must be 100% cache hits) =="
STATS=$("$RC11" submit corpus/ --addr "$ADDR" --expect-all-hits --stats)
echo "$STATS"
stats_must_have "$STATS" '"queue_peak"' "queue gauge must survive sampling"
stats_must_have "$STATS" '"config"' "the daemon must echo its config"
stats_must_have "$STATS" '"metrics":true' "--metrics must be echoed in the config"
stats_must_have "$STATS" '"probe_latency"' "extended metrics: latency percentiles"
stats_must_have "$STATS" '"explore_latency"' "extended metrics: latency split"
stats_must_have "$STATS" '"queue_wait"' "extended metrics: queue-wait samples"
stats_must_have "$STATS" '"workers"' "extended metrics: per-worker utilization"
stats_must_have "$STATS" '"fp_classes"' "extended metrics: cache efficiency by class"

echo "== rc11 top must render the live metrics =="
TOP=$("$RC11" top "$ADDR" --once)
echo "$TOP"
echo "$TOP" | grep -q "^rc11d " || { echo "daemon_smoke: top: no header" >&2; exit 1; }
echo "$TOP" | grep -q "metrics on" || { echo "daemon_smoke: top: config echo missing" >&2; exit 1; }
echo "$TOP" | grep -q "latency (ms):" || { echo "daemon_smoke: top: no latency table" >&2; exit 1; }
echo "$TOP" | grep -q "^workers:" || { echo "daemon_smoke: top: no worker row" >&2; exit 1; }

echo "== clean shutdown over the wire =="
stop_daemon

echo "== restart on the same cache dir: disk spill must serve =="
start_daemon
STATS=$("$RC11" submit corpus/ --addr "$ADDR" --expect-all-hits --stats)
echo "$STATS"
# Counters reset across restart: the request counter must reflect only
# this pass's corpus submission (+1 for the stats request itself arriving
# after the snapshot would not count; check requests == N_FILES), with
# zero states explored (pure disk hits) — while the config echo persists.
stats_must_have "$STATS" "\"requests\":$N_FILES" "counters must reset on restart"
stats_must_have "$STATS" '"states_explored":0' "disk hits must not explore"
stats_must_have "$STATS" '"metrics":true' "config echo must survive restart"
"$RC11" top "$ADDR" --once | grep -q "metrics on" \
    || { echo "daemon_smoke: top after restart failed" >&2; exit 1; }

echo "== hostile requests: structured errors, and the daemon survives =="
# A check whose source is one 1 MiB JSON string (not a litmus test).
{
    printf '{"cmd":"check","source":"'
    head -c $((1 << 20)) /dev/zero | tr '\0' 'a'
    printf '"}\n'
} > "$WORK/huge_string.json"
# A check whose source holds 15,000 statements in one thread (newlines
# JSON-escaped), past the parser's statement-sequence bound.
{
    printf '{"cmd":"check","source":"litmus \\"long\\"\\nvar x = 0\\nthread T {\\n'
    printf 'r = 1;\\n%.0s' $(seq 1 15000)
    printf '}\\nobserve T.r\\nexpected { (1) }\\n"}\n'
} > "$WORK/long_source.json"
printf '{"cmd":"ping"}\n' > "$WORK/ping.json"
for req in huge_string long_source; do
    REPLY=$(raw_request "$WORK/$req.json" 5)
    echo "$req: ${REPLY:0:160}"
    must_be_error "$REPLY" "$req"
done
REPLY=$(raw_request "$WORK/ping.json" 5)
echo "ping: $REPLY"
case "$REPLY" in
    *'"pong":true'*) ;;
    *) echo "daemon_smoke: no pong after the hostile requests: $REPLY" >&2; exit 1 ;;
esac
stop_daemon

echo "daemon_smoke: OK"
