#!/bin/sh
# e2e: build geniod + genioctl, boot a demo daemon, drive deploy/watch/
# cordon/drain/nodes over the wire, then SIGTERM the daemon and assert a
# clean drain-flush-close shutdown. Everything the CLI does here crosses
# the signed HTTP control plane — no in-process fallback.
set -eu

workdir="$(mktemp -d)"
daemon_pid=""
cleanup() {
    [ -n "$daemon_pid" ] && kill "$daemon_pid" 2>/dev/null || true
    rm -rf "$workdir"
}
trap cleanup EXIT INT TERM

fail() {
    echo "e2e: FAIL: $*" >&2
    echo "--- geniod log ---" >&2
    cat "$workdir/geniod.log" >&2 || true
    exit 1
}

echo "=== build"
go build -o "$workdir/geniod" ./cmd/geniod
go build -o "$workdir/genioctl" ./cmd/genioctl

addr="127.0.0.1:${GENIOD_E2E_PORT:-9650}"
identity="$workdir/ops.id"

echo "=== boot geniod on $addr"
"$workdir/geniod" -addr "$addr" -demo -identity-out "$identity" \
    >"$workdir/geniod.log" 2>&1 &
daemon_pid=$!

# Readiness: the identity file is written after the listener is up.
for _ in $(seq 1 50); do
    [ -s "$identity" ] && break
    kill -0 "$daemon_pid" 2>/dev/null || fail "geniod exited during startup"
    sleep 0.1
done
[ -s "$identity" ] || fail "geniod never wrote the client identity"

ctl() {
    "$workdir/genioctl" "$@"
}
export GENIOD_ADDR="$addr" GENIOD_IDENTITY="$identity"

echo "=== deploy --wait"
out="$(ctl deploy -name e2e-web -image acme/analytics:2.0.1 -wait)"
echo "$out"
echo "$out" | grep -q "PLACED: e2e-web" || fail "deploy did not place"
echo "$out" | grep -q "running" || fail "deploy -wait streamed no lifecycle"

echo "=== deploy (typed rejection over the wire)"
out="$(ctl deploy -name e2e-flagged -image acme/iot-gateway:1.4.2 || true)"
echo "$out"
echo "$out" | grep -q "REJECTED by admission" || fail "no typed admission verdict"

echo "=== watch (SSE lifecycle stream)"
out="$(ctl watch -deploys 3)"
echo "$out"
echo "$out" | grep -q -- "-> running" || fail "watch saw no terminal running"

echo "=== cordon / uncordon"
out="$(ctl cordon -node olt-01)"
echo "$out" | grep -q "olt-01 cordoned" || fail "cordon failed"
ctl cordon -node olt-01 -undo >/dev/null

echo "=== drain"
out="$(ctl drain -node olt-01)"
echo "$out"
echo "$out" | grep -q "stays cordoned" || fail "drain did not complete"

echo "=== nodes -top"
out="$(ctl nodes -top)"
echo "$out"
echo "$out" | grep -q "BINPACK" || fail "nodes -top printed no scores"

echo "=== graceful shutdown"
kill -TERM "$daemon_pid"
for _ in $(seq 1 100); do
    kill -0 "$daemon_pid" 2>/dev/null || break
    sleep 0.1
done
if kill -0 "$daemon_pid" 2>/dev/null; then
    fail "geniod still running 10s after SIGTERM"
fi
wait "$daemon_pid" || fail "geniod exited non-zero"
daemon_pid=""
grep -q "shutdown complete" "$workdir/geniod.log" || fail "no clean shutdown marker"

# --- crash-restart leg: kill -9 a durable daemon, restart on the same
# -data-dir, and assert the control-plane state survived the crash.
echo "=== crash-restart (durable -data-dir)"
addr2="127.0.0.1:${GENIOD_E2E_PORT2:-9651}"
datadir="$workdir/data"
identity2="$workdir/ops2.id"

boot_durable() {
    # $1: identity path. A fresh one each boot: the CA is deliberately
    # not persisted, so restart re-keys the cluster.
    "$workdir/geniod" -addr "$addr2" -demo -data-dir "$datadir" \
        -identity-out "$1" >"$workdir/geniod.log" 2>&1 &
    daemon_pid=$!
    for _ in $(seq 1 50); do
        [ -s "$1" ] && break
        kill -0 "$daemon_pid" 2>/dev/null || fail "durable geniod exited during startup"
        sleep 0.1
    done
    [ -s "$1" ] || fail "durable geniod never wrote the client identity"
}

boot_durable "$identity2"
export GENIOD_ADDR="$addr2" GENIOD_IDENTITY="$identity2"

out="$(ctl deploy -name e2e-durable -image acme/analytics:2.0.1 -wait)"
echo "$out" | grep -q "PLACED: e2e-durable" || fail "durable deploy did not place"
# A rejected hostile image records a blocked incident in the ledger.
ctl deploy -name e2e-durable-flagged -image acme/iot-gateway:1.4.2 >/dev/null 2>&1 || true

echo "=== kill -9, restart on the same -data-dir"
kill -9 "$daemon_pid"
wait "$daemon_pid" 2>/dev/null || true
daemon_pid=""

identity3="$workdir/ops3.id"
boot_durable "$identity3"
export GENIOD_IDENTITY="$identity3"

grep -q "durable state in" "$workdir/geniod.log" || fail "no recovery banner after restart"
recovered="$(grep "durable state in" "$workdir/geniod.log")"
echo "$recovered"
echo "$recovered" | grep -q "1 workloads" || fail "placement did not survive kill -9: $recovered"
echo "$recovered" | grep -Eq "[1-9][0-9]* incidents" || fail "incident ledger did not survive kill -9: $recovered"

# The surviving placement is live, not just counted: re-deploying the
# same name must be refused as a duplicate.
out="$(ctl deploy -name e2e-durable -image acme/analytics:2.0.1 2>&1 || true)"
echo "$out"
echo "$out" | grep -q "workload name in use" || fail "recovered placement not enforced: $out"

out="$(ctl nodes)"
echo "$out" | grep -q "olt-01" || fail "recovered fleet missing olt-01"

kill -TERM "$daemon_pid"
for _ in $(seq 1 100); do
    kill -0 "$daemon_pid" 2>/dev/null || break
    sleep 0.1
done
wait "$daemon_pid" || fail "durable geniod exited non-zero after recovery"
daemon_pid=""

# --- federated leg: boot a 3-cluster federation with a residency pin,
# deploy region-pinned over the wire, kill one member, and assert the
# evacuation re-placed its workloads without leaving the region dark.
echo "=== federated boot (3 clusters, gov pinned to west)"
addr3="127.0.0.1:${GENIOD_E2E_PORT3:-9652}"
identity4="$workdir/ops4.id"
"$workdir/geniod" -addr "$addr3" -demo \
    -federation "edge-a=west,edge-b=east,edge-c=east" -pin "gov=west" \
    -identity-out "$identity4" >"$workdir/geniod.log" 2>&1 &
daemon_pid=$!
for _ in $(seq 1 50); do
    [ -s "$identity4" ] && break
    kill -0 "$daemon_pid" 2>/dev/null || fail "federated geniod exited during startup"
    sleep 0.1
done
[ -s "$identity4" ] || fail "federated geniod never wrote the client identity"
export GENIOD_ADDR="$addr3" GENIOD_IDENTITY="$identity4"

echo "=== clusters"
out="$(ctl clusters)"
echo "$out"
for member in edge-a edge-b edge-c; do
    echo "$out" | grep -q "$member" || fail "clusters missing member $member"
done

echo "=== deploy -region (pinned tenant, allowed region)"
out="$(ctl deploy -name e2e-fed-gov -tenant gov -region west -wait)"
echo "$out"
echo "$out" | grep -q "PLACED: e2e-fed-gov" || fail "pinned deploy did not place"

echo "=== deploy -region (residency violation, typed over the wire)"
out="$(ctl deploy -name e2e-fed-leak -tenant gov -region east 2>&1 || true)"
echo "$out"
echo "$out" | grep -q "REJECTED by residency pin" || fail "no typed residency rejection"

echo "=== deploy into the doomed region"
out="$(ctl deploy -name e2e-fed-east -tenant acme -region east -wait)"
echo "$out"
echo "$out" | grep -q "PLACED: e2e-fed-east" || fail "east deploy did not place"
# Tenant ops hashes to edge-b on the (tenant, digest) ring, so this
# workload is guaranteed to sit on the member we are about to kill.
out="$(ctl deploy -name e2e-fed-ops -tenant ops -region east -wait)"
echo "$out"
echo "$out" | grep -q "PLACED: e2e-fed-ops on edge-b-" || fail "ops deploy did not land on edge-b"

echo "=== nodes -top (grouped per member)"
out="$(ctl nodes -top)"
echo "$out"
echo "$out" | grep -q "\[cluster edge-b\]" || fail "nodes -top not grouped by cluster"
out="$(ctl nodes -cluster edge-c)"
echo "$out"
echo "$out" | grep -q "edge-c-olt-01" || fail "nodes -cluster edge-c missing its node"
echo "$out" | grep -q "edge-b-olt" && fail "nodes -cluster edge-c leaked edge-b rows"

echo "=== evacuate edge-b"
out="$(ctl clusters -evacuate edge-b)"
echo "$out"
echo "$out" | grep -q "cluster edge-b evacuated: 1 moved, 0 lost" || fail "evacuation did not re-place edge-b's workload"
echo "$out" | grep -q "moved e2e-fed-ops" || fail "evacuation did not report the moved workload"
out="$(ctl clusters)"
echo "$out"
if echo "$out" | grep -q "edge-b"; then
    fail "edge-b still listed after evacuation"
fi
echo "$out" | grep -q "edge-c" || fail "edge-c gone after evacuating edge-b"

# The east region stays serviceable through the surviving member.
out="$(ctl deploy -name e2e-fed-after -tenant acme -region east -wait)"
echo "$out" | grep -q "PLACED: e2e-fed-after" || fail "post-evacuation east deploy failed"

kill -TERM "$daemon_pid"
for _ in $(seq 1 100); do
    kill -0 "$daemon_pid" 2>/dev/null || break
    sleep 0.1
done
wait "$daemon_pid" || fail "federated geniod exited non-zero"
daemon_pid=""
grep -q "shutdown complete" "$workdir/geniod.log" || fail "no clean federated shutdown marker"

# --- anonymous-allowing leg: a daemon that also accepts callers with no
# credential must still verify the ones that present one. An identity
# client acts as its certificate's subject, never as "anonymous".
addr4="127.0.0.1:${GENIOD_E2E_PORT4:-9653}"

boot_anonymous() {
    # $1: identity path; remaining args: extra geniod flags.
    id_path="$1"
    shift
    "$workdir/geniod" -addr "$addr4" -allow-anonymous -identity-subject e2e-ops \
        -identity-out "$id_path" "$@" >"$workdir/geniod.log" 2>&1 &
    daemon_pid=$!
    for _ in $(seq 1 50); do
        [ -s "$id_path" ] && break
        kill -0 "$daemon_pid" 2>/dev/null || fail "anonymous-allowing geniod exited during startup"
        sleep 0.1
    done
    [ -s "$id_path" ] || fail "anonymous-allowing geniod never wrote the client identity"
}

stop_daemon() {
    kill -TERM "$daemon_pid"
    wait "$daemon_pid" || fail "geniod exited non-zero"
    daemon_pid=""
}

echo "=== identity client against geniod -demo -allow-anonymous"
identity5="$workdir/ops5.id"
boot_anonymous "$identity5" -demo
export GENIOD_ADDR="$addr4" GENIOD_IDENTITY="$identity5"
out="$(ctl deploy -name e2e-anon-id -image acme/analytics:2.0.1 -wait)"
echo "$out"
echo "$out" | grep -q "PLACED: e2e-anon-id" || fail "identity deploy against -allow-anonymous did not place"
# The anonymous path sits next to it: the header names the caller and
# RBAC still decides (the fixture binds e2e-ops and anonymous only).
out="$(GENIOD_IDENTITY="" ctl nodes -subject anonymous)"
echo "$out" | grep -q "olt-01" || fail "anonymous subject header refused by -allow-anonymous"
out="$(GENIOD_IDENTITY="" ctl nodes -subject nobody 2>&1 || true)"
echo "$out" | grep -q "nobody" || fail "unbound anonymous subject not refused by name: $out"
stop_daemon

# With no fixture nobody is bound, so the RBAC refusal names whoever the
# daemon authenticated — the one place the wire shows the subject.
echo "=== ...and it is the certificate's subject the daemon sees"
identity6="$workdir/ops6.id"
boot_anonymous "$identity6"
export GENIOD_IDENTITY="$identity6"
out="$(ctl deploy -name e2e-anon-who -image acme/analytics:2.0.1 2>&1 || true)"
echo "$out"
echo "$out" | grep -q "e2e-ops may not" || fail "identity client not seen as e2e-ops: $out"
echo "$out" | grep -q "anonymous" && fail "identity client demoted to anonymous: $out"
stop_daemon

echo "e2e: PASS"
