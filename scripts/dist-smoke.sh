#!/usr/bin/env bash
# dist-smoke: the CI gate for distributed campaigns.
#
# Builds campaign, campaignd and campaignw under the race detector,
# produces the single-process smoke artifact as the reference, then runs
# the same matrix through a coordinator + two local workers under a
# series of injected faults — a clean run, a worker killed mid-shard, a
# straggler shard (exercising work stealing and duplicate discard), and
# a corrupted check-in payload. Every case must produce a merged
# artifact byte-identical (cmp) to the single-process one AND pass the
# committed baselines/campaign-smoke.json regression gate.
#
# Also asserts the CLI usage contract: malformed or out-of-range -shard
# specs exit 2 on both campaign and bisect, and negative numeric flags
# and unknown dimension overrides exit 2 on campaign, bisect, tourney,
# campaignd and campaignw.
set -euo pipefail
cd "$(dirname "$0")/.."

GO=${GO:-go}
tmp=$(mktemp -d)
pids=()
cleanup() {
    for p in "${pids[@]:-}"; do kill "$p" 2>/dev/null || true; done
    wait 2>/dev/null || true
    rm -rf "$tmp"
}
trap cleanup EXIT

echo "== dist-smoke: building (race) =="
$GO build -race -o "$tmp/campaign" ./cmd/campaign
$GO build -race -o "$tmp/campaignd" ./cmd/campaignd
$GO build -race -o "$tmp/campaignw" ./cmd/campaignw
$GO build -race -o "$tmp/bisect" ./cmd/bisect

echo "== dist-smoke: single-process reference artifact =="
"$tmp/campaign" -matrix smoke -q -out "$tmp/local.json" 2>"$tmp/local.log"

# start_worker <name> <fault-plan>: launch a campaignw on :0 and export
# <name>_url once the port file appears.
start_worker() {
    local name=$1 fault=$2
    rm -f "$tmp/$name.port"
    if [ -n "$fault" ]; then
        "$tmp/campaignw" -listen 127.0.0.1:0 -port-file "$tmp/$name.port" \
            -id "$name" -fault "$fault" 2>"$tmp/$name.log" &
    else
        "$tmp/campaignw" -listen 127.0.0.1:0 -port-file "$tmp/$name.port" \
            -id "$name" 2>"$tmp/$name.log" &
    fi
    pids+=($!)
    for _ in $(seq 100); do
        [ -s "$tmp/$name.port" ] && break
        sleep 0.05
    done
    if [ ! -s "$tmp/$name.port" ]; then
        echo "dist-smoke: worker $name failed to start:"
        cat "$tmp/$name.log"
        exit 1
    fi
    eval "${name}_url=http://127.0.0.1:\$(cat "$tmp/$name.port")"
}

# run_case <name> <w1-fault> <w2-fault> [extra campaignd flags...]
run_case() {
    local name=$1 f1=$2 f2=$3
    shift 3
    echo "== dist-smoke: case $name (faults: ${f1:-none} / ${f2:-none}) =="
    start_worker w1 "$f1"
    start_worker w2 "$f2"
    if ! "$tmp/campaignd" -matrix smoke -q \
        -workers "$w1_url,$w2_url" -shard-size 2 "$@" \
        -out "$tmp/dist-$name.json" \
        -baseline baselines/campaign-smoke.json \
        -diff-out "dist-smoke-$name-diff.txt" 2>"$tmp/d-$name.log"; then
        echo "dist-smoke: coordinator failed for case $name:"
        cat "$tmp/d-$name.log" "$tmp/w1.log" "$tmp/w2.log"
        exit 1
    fi
    if ! cmp "$tmp/dist-$name.json" "$tmp/local.json"; then
        echo "dist-smoke: case $name artifact is NOT byte-identical to the single-process run"
        cat "$tmp/d-$name.log"
        exit 1
    fi
    echo "   merged artifact byte-identical to single-process run; baseline gate clean"
    for p in "${pids[@]}"; do kill "$p" 2>/dev/null || true; done
    wait 2>/dev/null || true
    pids=()
}

run_case plain "" ""
run_case kill "kill:nth=1" ""
run_case delay "delay:nth=1,ms=8000" "" -straggler-after 1 -shard-timeout 20
run_case corrupt "corrupt:nth=1" ""

echo "== dist-smoke: -shard usage validation (must exit 2) =="
expect_exit() {
    local want=$1
    shift
    local got=0
    "$@" >/dev/null 2>&1 || got=$?
    if [ "$got" != "$want" ]; then
        echo "dist-smoke: FAIL: '$*' exited $got, want $want"
        exit 1
    fi
}
for spec in banana 0/3 4/3 1/0 -2/3 1.5/3 3 a/b; do
    expect_exit 2 "$tmp/campaign" -matrix smoke -shard "$spec" -out /dev/null
    expect_exit 2 "$tmp/bisect" -preset smoke -shard "$spec" -out /dev/null
done
echo "   malformed and out-of-range -shard specs exit 2 on campaign and bisect"

echo "== dist-smoke: out-of-range numeric flags and bad grammar (must exit 2) =="
$GO build -race -o "$tmp/tourney" ./cmd/tourney
for flag in horizon scale tolerance workers streak-k; do
    expect_exit 2 "$tmp/campaign" -matrix smoke -$flag -1 -out /dev/null
    expect_exit 2 "$tmp/bisect" -preset smoke -$flag -1 -out /dev/null
    expect_exit 2 "$tmp/tourney" -preset smoke -$flag -1 -out /dev/null
done
for flag in horizon scale tolerance local-workers streak-k metrics-cadence-ms; do
    expect_exit 2 "$tmp/campaignd" -matrix smoke -$flag -1 -out /dev/null
done
expect_exit 2 "$tmp/campaign" -matrix smoke -metrics-cadence-ms -1 -out /dev/null
expect_exit 2 "$tmp/campaignw" -workers -1
expect_exit 2 "$tmp/campaign" -matrix smoke -loads nas:nope -out /dev/null
expect_exit 2 "$tmp/bisect" -preset smoke -seeds 1,x -out /dev/null
expect_exit 2 "$tmp/tourney" -preset smoke -policies bugs -out /dev/null
expect_exit 2 "$tmp/campaignd" -matrix smoke -configs nope -out /dev/null
echo "   negative -horizon/-scale/-tolerance/-workers/-metrics-cadence-ms and bad overrides exit 2"

echo "dist-smoke: OK"
