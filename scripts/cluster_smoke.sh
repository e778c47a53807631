#!/usr/bin/env sh
# cluster_smoke.sh — end-to-end cluster smoke test, run by CI.
#
# Proves the two tentpole invariants with real processes on loopback:
#   1. A 3-process TCP training run (seaice-train -peers) with an
#      injected network partition finishes with weights byte-identical
#      to the never-failed single-process 3-worker run — for float64
#      and for float32 mixed precision ("weights sha256" lines match).
#   2. A 2-node sharded-serve cluster (seaice-serve -nodes coordinator)
#      answers a scene round trip with exactly the bytes a single
#      server produces, and keeps answering after one worker is killed.
#   3. Under offered load past capacity with a latched slow node and
#      client deadlines attached, the error surface stays bounded:
#      every request resolves as 200 (served), 429 (shed at admission),
#      or 504 (deadline expired before compute) — never a 5xx, a hang,
#      or a dropped connection — and an infeasible 1 ms budget is
#      refused or expired up front, never computed.
set -eu

cd "$(dirname "$0")/.."

TMP=$(mktemp -d)
PIDS=""
cleanup() {
    [ -n "$PIDS" ] && kill $PIDS 2>/dev/null || true
    rm -rf "$TMP"
}
trap cleanup EXIT INT TERM

go build -o "$TMP/seaice-train" ./cmd/seaice-train
go build -o "$TMP/seaice-serve" ./cmd/seaice-serve
go build -o "$TMP/seaice-label" ./cmd/seaice-label

TRAIN_FLAGS="-scenes 4 -size 64 -tile 16 -epochs 2 -batch 4 -max-tiles 32 -seed 7"
PEERS="127.0.0.1:17731,127.0.0.1:17732,127.0.0.1:17733"
FAULT="21:part@2:r1"

sha_of() { grep -o 'weights sha256: [0-9a-f]*' "$1" | head -n1 | cut -d' ' -f3; }

for prec in f64 f32; do
    echo "== training parity ($prec): golden single-process 3-worker run"
    "$TMP/seaice-train" $TRAIN_FLAGS -precision "$prec" -workers 3 \
        -ckpt "$TMP/golden-$prec.ckpt" >"$TMP/golden-$prec.log" 2>&1
    GOLD=$(sha_of "$TMP/golden-$prec.log")
    [ -n "$GOLD" ] || { echo "FAIL: golden run printed no weights sha256"; cat "$TMP/golden-$prec.log"; exit 1; }

    echo "== training parity ($prec): 3 loopback ranks with a network partition"
    RANK_PIDS=""
    for r in 0 1 2; do
        "$TMP/seaice-train" $TRAIN_FLAGS -precision "$prec" -peers "$PEERS" -rank "$r" \
            -chaos "$FAULT" -ckpt "$TMP/net-$prec.ckpt" >"$TMP/rank$r-$prec.log" 2>&1 &
        RANK_PIDS="$RANK_PIDS $!"
    done
    for pid in $RANK_PIDS; do
        wait "$pid" || { echo "FAIL: a cluster rank exited non-zero"; tail -n 20 "$TMP"/rank*-"$prec".log; exit 1; }
    done
    for r in 0 1 2; do
        GOT=$(sha_of "$TMP/rank$r-$prec.log")
        if [ "$GOT" != "$GOLD" ]; then
            echo "FAIL ($prec): rank $r weights $GOT != golden $GOLD"
            tail -n 20 "$TMP/rank$r-$prec.log"
            exit 1
        fi
    done
    grep -q 'part@2' "$TMP/rank1-$prec.log" || {
        echo "FAIL ($prec): partition fault was never delivered"; exit 1; }
    echo "ok: all 3 ranks recovered to golden weights $GOLD"
done

echo "== corruption parity: bitflip + NaN gradient injected into 3 TCP ranks"
# Silent-corruption defense end to end with real processes: one bit
# flipped in a data frame (after its CRC — the trailer must catch it)
# and one NaN planted in a rank's gradient (the -guard scan must roll
# it back). Both are transient, so the run must finish byte-identical
# to the clean f64 golden run.
GOLD=$(sha_of "$TMP/golden-f64.log")
CFAULT="51:bitflip@3:r1,nanstep@4:r0"
RANK_PIDS=""
for r in 0 1 2; do
    "$TMP/seaice-train" $TRAIN_FLAGS -precision f64 -peers "$PEERS" -rank "$r" \
        -chaos "$CFAULT" -guard skip -ckpt "$TMP/corrupt.ckpt" >"$TMP/crank$r.log" 2>&1 &
    RANK_PIDS="$RANK_PIDS $!"
done
for pid in $RANK_PIDS; do
    wait "$pid" || { echo "FAIL: a corruption-run rank exited non-zero"; tail -n 20 "$TMP"/crank*.log; exit 1; }
done
for r in 0 1 2; do
    GOT=$(sha_of "$TMP/crank$r.log")
    if [ "$GOT" != "$GOLD" ]; then
        echo "FAIL: corrupted-run rank $r weights $GOT != golden $GOLD"
        tail -n 20 "$TMP/crank$r.log"
        exit 1
    fi
done
grep -q 'delivered bitflip@3' "$TMP/crank1.log" || {
    echo "FAIL: bitflip fault was never delivered"; exit 1; }
grep -q 'delivered nanstep@4' "$TMP/crank0.log" || {
    echo "FAIL: nanstep fault was never delivered"; exit 1; }
grep -q 'guard:' "$TMP/crank0.log" || {
    echo "FAIL: the numeric guard never saw the injected NaN"; exit 1; }
echo "ok: bitflip + NaN runs recovered to golden weights $GOLD"

echo "== sharded serve: 2 worker nodes behind a coordinator"
"$TMP/seaice-label" -scenes 1 -size 64 -out "$TMP/scenes" >/dev/null 2>&1
SCENE="$TMP/scenes/scene00.png"
[ -f "$SCENE" ] || { echo "FAIL: no scene PNG generated"; exit 1; }

CKPT="$TMP/golden-f32.ckpt"
"$TMP/seaice-serve" -ckpt "$CKPT" -tile 32 -addr 127.0.0.1:17741 >"$TMP/worker1.log" 2>&1 &
W1=$!
"$TMP/seaice-serve" -ckpt "$CKPT" -tile 32 -addr 127.0.0.1:17742 >"$TMP/worker2.log" 2>&1 &
W2=$!
"$TMP/seaice-serve" -nodes 127.0.0.1:17741,127.0.0.1:17742 -tile 32 \
    -addr 127.0.0.1:17740 >"$TMP/coord.log" 2>&1 &
CO=$!
PIDS="$W1 $W2 $CO"

wait_healthy() {
    i=0
    until curl -sf "http://$1/healthz" >/dev/null 2>&1; do
        i=$((i + 1))
        [ "$i" -gt 50 ] && { echo "FAIL: $1 never became healthy"; exit 1; }
        sleep 0.2
    done
}
wait_healthy 127.0.0.1:17741
wait_healthy 127.0.0.1:17742
wait_healthy 127.0.0.1:17740

curl -sf -X POST --data-binary @"$SCENE" -H 'Content-Type: image/png' \
    "http://127.0.0.1:17741/classify" -o "$TMP/single.png"
curl -sf -X POST --data-binary @"$SCENE" -H 'Content-Type: image/png' \
    "http://127.0.0.1:17740/classify" -o "$TMP/sharded.png"
cmp -s "$TMP/single.png" "$TMP/sharded.png" || {
    echo "FAIL: sharded label map differs from single-server output"; exit 1; }
echo "ok: sharded round trip matches single-server bytes"

echo "== sharded serve: kill one worker, coordinator must reroute"
kill "$W1" 2>/dev/null
wait "$W1" 2>/dev/null || true
PIDS="$W2 $CO"
curl -sf -X POST --data-binary @"$SCENE" -H 'Content-Type: image/png' \
    "http://127.0.0.1:17740/classify" -o "$TMP/rerouted.png"
cmp -s "$TMP/single.png" "$TMP/rerouted.png" || {
    echo "FAIL: post-kill label map differs (rerouting broken)"; exit 1; }
echo "ok: survived worker kill with identical bytes"

echo "== overload: load past capacity with a slow node, deadlines attached"
# Fresh 2-node cluster built to overrun: node A latches a +200ms
# per-batch slow fault, queues are tiny, worker caches are off so every
# request really computes. 32 deadline-carrying clients, launched faster
# than the cluster drains them, then storm the coordinator; the only
# legal outcomes are 200/429/504.
"$TMP/seaice-serve" -ckpt "$CKPT" -tile 32 -addr 127.0.0.1:17751 -workers 1 \
    -batch 1 -queue 2 -cache 0 -chaos "11:slownode@0:200ms" >"$TMP/slow.log" 2>&1 &
S1=$!
"$TMP/seaice-serve" -ckpt "$CKPT" -tile 32 -addr 127.0.0.1:17752 -workers 1 \
    -batch 1 -queue 2 -cache 0 >"$TMP/fast.log" 2>&1 &
S2=$!
"$TMP/seaice-serve" -nodes 127.0.0.1:17751,127.0.0.1:17752 -tile 32 \
    -addr 127.0.0.1:17750 >"$TMP/ocoord.log" 2>&1 &
OC=$!
PIDS="$PIDS $S1 $S2 $OC"
wait_healthy 127.0.0.1:17751
wait_healthy 127.0.0.1:17752
wait_healthy 127.0.0.1:17750

# The storm is shaped by this host's speed: one healthy round trip to the
# fast node, timed now. Clients launch one round trip apart (at most
# 100 ms) — the fast node's full rate, and ≥4× what the slow node's
# +200 ms latch lets it drain, so the load stays past capacity — because
# launched all at once nothing orders their strips: each node admits
# whichever arrive first into its 2-tile queue, and about one run in
# twelve no request won a slot on BOTH nodes ("nothing served"; every
# status was 429, none 504). The deadline is 12 round trips, never under
# the 2 s that is ample on an idle machine. The invariants asserted below
# do not change.
RT_MS=$(curl -s -o /dev/null -w '%{time_total}' -X POST --data-binary @"$SCENE" \
    -H 'Content-Type: image/png' "http://127.0.0.1:17752/classify" |
    awk '{ printf "%d", $1 * 1000 + 1 }')
DEADLINE_MS=$((RT_MS * 12))
[ "$DEADLINE_MS" -lt 2000 ] && DEADLINE_MS=2000
GAP_MS=$RT_MS
[ "$GAP_MS" -gt 100 ] && GAP_MS=100
GAP=$(awk "BEGIN { printf \"%.3f\", $GAP_MS / 1000 }")
echo "healthy round trip ${RT_MS}ms -> client gap ${GAP}s, deadline ${DEADLINE_MS}ms"

rm -f "$TMP"/code.*
CURL_PIDS=""
i=0
while [ "$i" -lt 32 ]; do
    curl -s -o /dev/null -w '%{http_code}' -X POST --data-binary @"$SCENE" \
        -H 'Content-Type: image/png' -H "X-Seaice-Deadline-Ms: $DEADLINE_MS" \
        "http://127.0.0.1:17750/classify" >"$TMP/code.$i" &
    CURL_PIDS="$CURL_PIDS $!"
    i=$((i + 1))
    sleep "$GAP"
done
for pid in $CURL_PIDS; do wait "$pid" || true; done

ok=0; shed=0; bad=0
for f in "$TMP"/code.*; do
    c=$(cat "$f")
    case "$c" in
    200) ok=$((ok + 1)) ;;
    429 | 504) shed=$((shed + 1)) ;;
    *)
        bad=$((bad + 1))
        echo "unexpected status '$c' under overload"
        ;;
    esac
done
[ "$bad" -eq 0 ] || {
    echo "FAIL: overload produced statuses outside 200/429/504"
    tail -n 20 "$TMP/ocoord.log"; exit 1; }
[ "$ok" -ge 1 ] || {
    echo "FAIL: nothing served under overload"
    tail -n 20 "$TMP/ocoord.log"; exit 1; }
[ "$shed" -ge 1 ] || {
    echo "FAIL: load past capacity but nothing was shed"; exit 1; }
echo "ok: $ok served, $shed shed (429/504), 0 anomalous"

# An infeasible 1 ms budget aimed at the slow node must be refused at
# admission (429) or expire before compute (504) — its +200ms batch
# latch fires ahead of deadline triage, so a computed 200 is impossible
# and would mean expired work reached a forward pass.
c=$(curl -s -o /dev/null -w '%{http_code}' -X POST --data-binary @"$SCENE" \
    -H 'Content-Type: image/png' -H 'X-Seaice-Deadline-Ms: 1' \
    "http://127.0.0.1:17751/classify")
case "$c" in
429 | 504) ;;
*)
    echo "FAIL: infeasible 1ms-deadline request answered $c, want 429/504"
    exit 1
    ;;
esac
curl -s "http://127.0.0.1:17752/statz" | grep -q '"expired_dropped"' || {
    echo "FAIL: /statz lacks the deadline counters"; exit 1; }
echo "ok: infeasible budget never computed; deadline counters live"

kill "$S1" "$S2" "$OC" 2>/dev/null || true
wait "$S1" 2>/dev/null || true
wait "$S2" 2>/dev/null || true
wait "$OC" 2>/dev/null || true
PIDS="$W2 $CO"

echo "== graceful shutdown: SIGTERM drains and flushes stats"
kill -TERM "$CO" "$W2" 2>/dev/null
wait "$CO" 2>/dev/null || true
wait "$W2" 2>/dev/null || true
PIDS=""
grep -q 'shutdown complete' "$TMP/coord.log" || {
    echo "FAIL: coordinator did not shut down gracefully"; cat "$TMP/coord.log"; exit 1; }
grep -q 'final stats' "$TMP/worker2.log" || {
    echo "FAIL: worker did not flush final stats"; cat "$TMP/worker2.log"; exit 1; }

echo "cluster-smoke: ok"
