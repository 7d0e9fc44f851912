#!/bin/sh
# Shard smoke lane (make shard-smoke): start two real blindfl-shard worker
# processes on free loopback ports, then run a 2-shard blindfl-train root
# against them — the multi-process wiring (SHARD_LISTEN announce, connect
# exchange, fingerprint check, deterministic schedule, teardown) exercised
# end to end on a toy job. The root's -pool and -shortexp travel in the setup
# document, so each worker process installs a pool for its own key. Worker
# -timeout bounds a wedged run.
set -eu

tmp=$(mktemp -d)
trap 'kill $w1 $w2 2>/dev/null || true; rm -rf "$tmp"' EXIT

./bin/blindfl-shard -timeout 120s >"$tmp/w1.out" &
w1=$!
./bin/blindfl-shard -timeout 120s >"$tmp/w2.out" &
w2=$!

# addr polls a worker's stdout for its SHARD_LISTEN announcement.
addr() {
    for _ in $(seq 1 100); do
        a=$(sed -n 's/^SHARD_LISTEN //p' "$1" 2>/dev/null | head -n1)
        if [ -n "$a" ]; then
            echo "$a"
            return 0
        fi
        sleep 0.1
    done
    echo "shard-smoke: worker did not announce a listen address" >&2
    return 1
}

a1=$(addr "$tmp/w1.out")
a2=$(addr "$tmp/w2.out")

./bin/blindfl-train -dataset a9a -model lr -train 96 -test 48 -epochs 1 -batch 32 \
    -parties 2 -shards 2 -shard-connect "$a1,$a2" -pool 64 -shortexp 400

wait "$w1"
wait "$w2"
echo "shard-smoke: OK"
