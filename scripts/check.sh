#!/usr/bin/env bash
# check.sh — the checks CI runs beyond build/vet/test, one function
# each, runnable locally from any directory:
#
#   scripts/check.sh NAME
#
# where NAME is race, replay, fuzz, zero-alloc, smoke, invariance,
# int-replay, obs-endpoint, steelnetd, bench-module, reach, docs,
# orphans, handlers, fma or arch.
# Every file a check writes lands in the repo root under the name CI
# uploads; all of them are in .gitignore.
set -euo pipefail
cd "$(dirname "$0")/.."
trap 'kill $(jobs -p) 2>/dev/null || true' EXIT

# tests: run each "package regex" row below it as one verbose go test.
tests() {
    while read -r pkg regex; do
        go test -v -run "$regex" "./$pkg" </dev/null
    done
}

# jsonl FILE...: every line of every FILE is JSON, and no FILE is empty.
jsonl() {
    python3 - "$@" <<'EOF'
import json, sys
for p in sys.argv[1:]:
    if not [json.loads(l) for l in open(p)]:
        sys.exit(f"{p}: empty")
EOF
}

# The concurrency surfaces under the race detector: the whole suite in
# short mode; the sweep driver again at 1, 2 and 8 workers ten times
# (cells finishing on worker goroutines write the shared result slice
# and hand back their telemetry sinks); the cross-shard suite with its worker sweep
# widened to 4; and the obs.Fanout churn stress through the steelnetd
# hub, the obs broker and the hub registry read and rendered from many
# goroutines.
race() {
    go test -race -short ./...
    go test -race -count 10 -run 'TestRunCells' ./internal/sweep
    go test -race -run 'TestShardProp' ./internal/sim -args -shards=4
    go test -race -count 3 \
        -run 'TestHubConcurrentChurn|TestHubDropOnFullAndEviction|TestHubManySubscribersAllDelivered' \
        ./internal/steelnetd
    go test -race -count 3 \
        -run 'TestFanout|TestBrokerSubscribeChurnRace|TestSlowSubscriberEviction|TestSlowSubscriberDropsNotBlocks' \
        ./internal/obs
    go test -race -count 10 -run 'TestConcurrentReadsWhileObserving|TestConcurrentRendersShareSizeHint' ./internal/telemetry
}

# The checkpoint contract end to end: resume equivalence and the golden
# corpus, the eBPF VM against the reference interpreter (every
# TestDifferential* input source: seed programs, both fuzz corpora,
# random programs, the Fig. 4 shapes; the corpora again through used
# clones), and instaplcd's -checkpoint/-resume round trip.
replay() {
    tests <<'EOF'
internal/checkpoint TestResumeEquivalence|TestRestoreDetectsDivergence|TestGolden
internal/ebpf       TestDifferential|TestCompiledMatchesInterpreter
cmd/...             TestRunCheckpointResume
EOF
}

# Plain `go test` only replays the committed corpora; ten live seconds
# per target find the shallow regressions.
fuzz() {
    while read -r pkg target; do
        go test -run '^$' -fuzz "^$target\$" -fuzztime 10s "./$pkg" </dev/null
    done <<'EOF'
internal/sim        FuzzEngineOrder
internal/steelnetd  FuzzParseRule
internal/ebpf       FuzzVerifier
internal/ebpf       FuzzVM
internal/checkpoint FuzzCheckpointRead
internal/faults     FuzzParsePlan
internal/frame      FuzzUnmarshalInto
internal/int        FuzzParseSLOPlan
internal/telemetry  FuzzReadJSONL
internal/simnet     FuzzFIB
internal/steelnetd  FuzzRunSpec
internal/tshist     FuzzHistoryQuery
internal/frame      FuzzZeroTail
internal/simnet     FuzzFIFO
internal/enc        FuzzAppendString
internal/metrics    FuzzSeriesSort
EOF
}

# testing.AllocsPerRun guards, in four groups: telemetry off (forwarding,
# queueing, cross-shard links, byte-identical to pre-telemetry output);
# the Fig. 4 probe, Fig. 5 I/O cycle and Fig. 6 inference server once
# warm, plus the figures' byte budgets; the shard profiler off (and
# observational when on); and INT on, every stack attached from and
# stripped into the cell's frame.Pool. The last rows pin the gateway's
# publish and history bodies at one render each.
zero_alloc() {
    tests <<'EOF'
internal/simnet      TestForwardingHotPathZeroAllocs|TestQueuePathZeroAllocs|TestDisabledTelemetryIdenticalToSeed|TestCrossShardForwardingZeroAllocs|TestSetQueueDepthAllocatesNothing
internal/reflection  TestReflectionSteadyStateZeroAllocs
internal/instaplc    TestInstaPLCCycleZeroAllocs
internal/mlwork      TestMLServeZeroAllocs
internal/core        TestFigureAllocationBudgets
internal/sim         TestShardProfilingDisabledZeroAllocs|TestShardProfilingObservational|TestScheduleCallAllocFree
internal/core        TestCampusObservabilityIsObservational
internal/simnet      TestINTPooledPathZeroAllocs
internal/instaplc    TestInstaPLCCycleZeroAllocs/int=true
internal/core        TestHeadlessStepZeroAllocs
internal/obs         TestPublishRendersOnce
internal/tshist      TestServeQueryBuildsEachBodyOnce
EOF
}

# Tracing and in-band telemetry switched on: every export must load.
smoke() {
    go run ./cmd/instaplcd -horizon 500ms \
        -trace smoke.trace.jsonl -stats > smoke.stats.txt
    jsonl smoke.trace.jsonl
    python3 -c 'import json; json.load(open("smoke.trace.jsonl.chrome.json"))'
    go run ./cmd/instaplcd -horizon 1500ms -fail 700ms \
        -int smoke.int.jsonl -slo 'latency:*<1us' \
        -flightrec smoke.rec.jsonl > smoke.int.txt
    jsonl smoke.int.jsonl smoke.int.jsonl.slo.jsonl smoke.rec.jsonl
}

# same NAME FLAG ARGS...: `go run ARGS` with FLAG at 1, 2 and 4, each
# writing -trace and -int; stdout and both artefacts must cmp equal to
# the width-1 run.
same() {
    local name=$1 flag=$2 w f
    shift 2
    for w in 1 2 4; do
        go run "$@" "$flag" $w -trace $name.$w.trace.jsonl -int $name.$w.int.jsonl > $name.$w.out
    done
    for w in 2 4; do
        for f in out trace.jsonl int.jsonl; do cmp $name.1.$f $name.$w.$f; done
    done
}

# Worker and shard counts reach no output. Sweeps merge per-cell buffers
# in input order (2 workers is where heaviest-first dispatch reorders
# cells); each cell restarts its INT sequence numbers, so "reordered" in
# a sweep's -int export can only be a collector shared across cells. The
# campus places nodes by its partition, whatever the worker count.
invariance() {
    same refl -workers ./cmd/reflectbench -cycles 200
    same topo -workers ./cmd/topobench -clients 8,16 -horizon 100ms
    for s in refl topo; do
        if grep -n '"reordered"' $s.1.int.jsonl; then
            echo "$s: -int export reports reordering across sweep cells" >&2
            exit 1
        fi
    done
    same c -shards ./cmd/topobench -campus -horizon 5ms
}

# INT, the SLO watchdog and the flight recorder survive checkpoint and
# restore at the CLI: -checkpoint saves at the horizon, the resume
# replays the whole window into fresh instances, and every artefact and
# stdout must match the straight run's. The round trip runs on the
# default crash and again on a fault plan, which the checkpoint records
# and the restore decodes.
int_replay() {
    local plan='hoststall:vplc1@900ms+200ms,loss:dp.2@300ms+400ms*0.2'
    local p f faults
    for p in "" faulted.; do
        faults=()
        [ -z "$p" ] || faults=(-faults "$plan")
        go run ./cmd/instaplcd -horizon 1500ms -fail 700ms "${faults[@]}" \
            -int straight.${p}int.jsonl -slo 'latency:*<1us' \
            -flightrec straight.${p}rec.jsonl \
            -checkpoint ck.${p}bin > straight.${p}out
        go run ./cmd/instaplcd -resume ck.${p}bin "${faults[@]}" \
            -int resumed.${p}int.jsonl -slo 'latency:*<1us' \
            -flightrec resumed.${p}rec.jsonl > resumed.${p}out
        for f in int.jsonl int.jsonl.slo.jsonl rec.jsonl out; do
            cmp straight.$p$f resumed.$p$f
        done
    done
}

# A sharded campus run serving -obs-addr, scraped over HTTP the way an
# operator would; its stdout must equal an unwatched run's.
obs_endpoint() {
    local url=http://127.0.0.1:9377 i metric fam
    go run ./cmd/topobench -campus -shards 4 -horizon 20ms \
        -obs-addr 127.0.0.1:9377 -obs-linger 20s > observed.out 2> obs.err &
    local run=$!
    for i in $(seq 1 200); do # `go run` compiles before it serves
        if curl -sf $url/metrics > metrics.prom 2>/dev/null &&
            grep -q sim_shard_events_total metrics.prom; then
            break
        fi
        sleep 0.3
    done
    grep -q sim_shard_events_total metrics.prom || { cat obs.err; exit 1; }
    curl -sf $url/shards > shards.json
    curl -sf $url/healthz > healthz.json
    curl -sf $url/history > history.json
    metric=$(python3 -c 'import json; print(json.load(open("history.json"))["metrics"][0])')
    curl -sf --get $url/history --data-urlencode "metric=$metric" > series.json
    curl -sf --get $url/history --data-urlencode "metric=$metric" \
        --data-urlencode format=prom > series.prom.json
    curl -sf $url/debug/pprof/cmdline > /dev/null
    wait $run
    for fam in sim_shard_windows_total sim_shard_messages_total \
        sim_shard_events_total sim_shard_barrier_wait_ns_total \
        sim_shard_occupied_ns_total sim_shard_imbalance \
        campus_cell_tx_frames_total campus_int_observations_total; do
        grep -q "$fam" metrics.prom || { echo "missing family $fam" >&2; exit 1; }
    done
    python3 - <<'EOF'
import json
p = json.load(open("shards.json"))
assert p["shards"] >= 2, p
lanes = p["per_shard"]
assert lanes and all("barrier_wait_ns" in l for l in lanes), lanes
assert sum(l["events"] for l in lanes) > 0, lanes
h = json.load(open("healthz.json"))
assert h["ok"] and h["seq"] > 0, h
assert h["state"] in ("running", "done"), h
assert h["last_publish_age_ms"] >= 0, h
sr = json.load(open("series.json"))
assert sr["run"] == "sim" and sr["points"], sr
pm = json.load(open("series.prom.json"))
assert pm["data"]["result"][0]["values"], pm
EOF
    go run ./cmd/topobench -campus -shards 4 -horizon 20ms > plain.out
    cmp observed.out plain.out
}

# A real steelnetd driven with curl: a fleet SSE subscriber attaches, a
# run with loss/breach rules is POSTed, and the firings must reach the
# fake kafka log and the SSE stream; /metrics, history and the journal
# serve; SIGTERM dumps publish logs, journal and trace. Two headless
# reruns of one boot spec must write byte-identical journals.
steelnetd() {
    local url=http://127.0.0.1:9378 i state fam
    go build -o steelnetd-bin ./cmd/steelnetd
    ./steelnetd-bin -listen 127.0.0.1:9378 -publish-log smoke.publish \
        -journal-log smoke.journal.jsonl -trace smoke.trace.json 2> daemon.err &
    local daemon=$!
    for i in $(seq 1 100); do
        curl -sf $url/healthz > /dev/null 2>&1 && break
        sleep 0.2
    done
    curl -sf $url/healthz
    curl -sN $url/events > events.sse & # subscribed before the run starts
    local sse=$!
    sleep 1
    curl -sf -X POST $url/runs -d '{
        "id": "smoke",
        "run": {"seed": 1, "horizon": 400000000, "slice": 50000000, "slo": "latency:*<1us"},
        "rules": "loss:*>0.1->kafka:alerts;breach:*>0->mqtt:plant/slo"
    }'
    for i in $(seq 1 100); do
        state=$(curl -sf $url/runs/smoke | python3 -c 'import json,sys; print(json.load(sys.stdin)["state"])')
        [ "$state" = done ] && break
        sleep 0.2
    done
    [ "$state" = done ] || { echo "run never finished (state=$state)" >&2; cat daemon.err; exit 1; }
    curl -sf $url/backends/kafka/log > kafka.log.jsonl
    grep -q '"rule":"loss:' kafka.log.jsonl
    sleep 1
    kill $sse 2>/dev/null || true
    grep -q 'event: firing' events.sse
    grep -q '"run":"smoke"' events.sse
    curl -sf $url/metrics > daemon.prom
    for fam in steelnetd_http_requests_total steelnetd_http_request_duration_ns \
        steelnetd_run_transitions_total steelnetd_hub_queue_high_water \
        steelnetd_hub_max_lag steelnetd_journal_records_total \
        steelnetd_backend_published_total; do
        grep -q "$fam" daemon.prom || { echo "missing family $fam" >&2; exit 1; }
    done
    curl -sf $url/runs/smoke/history > history.json
    curl -sf $url/journal > journal.jsonl
    python3 - <<'EOF'
import json
h = json.load(open("history.json"))
assert h["run"] == "smoke" and h["metrics"], h
recs = [json.loads(l) for l in open("journal.jsonl")]
events = [r["event"] for r in recs if r["run"] == "smoke"]
assert events[0] == "created" and "started" in events and "done" in events, events
EOF
    kill -TERM $daemon
    wait $daemon
    test -s smoke.publish.kafka.jsonl
    test -f smoke.publish.mqtt.jsonl
    test -s smoke.journal.jsonl
    jsonl smoke.publish.kafka.jsonl smoke.journal.jsonl
    python3 -c 'import json; t = json.load(open("smoke.trace.json")); assert t["traceEvents"]'
    local spec='{"id":"golden","run":{"seed":7,"horizon":400000000,"slice":50000000,"slo":"latency:*<1us"},"rules":"loss:*>0.1->kafka:alerts"}'
    ./steelnetd-bin -listen "" -wait -run "$spec" -journal-log journal.a.jsonl > /dev/null
    ./steelnetd-bin -listen "" -wait -run "$spec" -journal-log journal.b.jsonl > /dev/null
    cmp journal.a.jsonl journal.b.jsonl
}

# bench/ is a nested module (replace steelnet => ../): root `go build`
# and `go test ./...` never compile it.
bench_module() {
    cd bench && go vet ./... && go test -short ./...
}

# Every function no entry point reaches. Each entry point is built with
# -cover and run under one GOCOVERDIR: the smoke, invariance,
# int-replay, obs-endpoint and steelnetd checks (their `go run`/`go
# build` honour GOFLAGS); the command-line paths no check runs (the
# chaos ladder, the hardware baseline, a fault plan, the requirements corpus, -stats on
# every figure and the campus's SLO watchdogs); every example; the
# four bench workloads at seed 1; and the documented `go test -bench`
# experiments. The profiles are merged, a block counting as reached
# when any run hit it, and the functions outside bench/ at 0 % are
# printed with their line spans (doc comment included) and written to
# reach.txt. The list is a report: this fails only when an entry point
# does.
reach() {
    local dir=$PWD/reach.covdata ex w
    rm -rf "$dir" && mkdir -p "$dir"
    (
        export GOFLAGS='-cover -coverpkg=steelnet/...' GOCOVERDIR=$dir
        smoke
        invariance
        int_replay
        obs_endpoint
        steelnetd
        go run ./cmd/instaplcd -chaos -horizon 800ms -fail 400ms > /dev/null
        go run ./cmd/gapminer -requirements > /dev/null
        go run ./cmd/reflectbench -cycles 120 -stats > /dev/null
        go run ./cmd/topobench -clients 8 -horizon 100ms -stats > /dev/null
        go run ./cmd/topobench -campus -horizon 5ms -stats -slo 'latency:*<1us' \
            -trace reach.trace.jsonl > /dev/null
        go run ./cmd/instaplcd -baseline > /dev/null
        go run ./cmd/instaplcd -faults 'hoststall:vplc1@1.3s+400ms,loss:dp.2@500ms+1s*0.2' > /dev/null
        for ex in examples/*/; do go run "./$ex" > /dev/null; done
        for w in paper_figs campus_10k gateway_stream gateway_query; do
            bench/run.sh -workload $w -seed 1 -seconds 1 > /dev/null
        done
    )
    go test -run '^$' -bench . -benchtime 1x \
        -coverpkg=./... -coverprofile=reach.root.out . > /dev/null
    go tool covdata textfmt -i="$dir" -o reach.bin.out
    # Dedupe blocks by position, as covercheck.sh does.
    awk 'FNR > 1 && $1 ~ /^steelnet\// && $1 !~ /^steelnet\/bench\// {
        if (!($1 in S)) { S[$1] = $2; order[n++] = $1 }
        if ($3 > 0) H[$1] = 1
    }
    END {
        print "mode: set"
        for (i = 0; i < n; i++) print order[i], S[order[i]], (order[i] in H) ? 1 : 0
    }' reach.bin.out reach.root.out > reach.out
    go tool cover -func=reach.out | python3 -c '
import re, sys
funcs = zero = lines = 0
out = []
for l in sys.stdin:
    m = re.match(r"steelnet/(\S+):(\d+):\s+(\S+)\s+([\d.]+)%", l)
    if not m:
        continue
    funcs += 1
    if float(m[4]) > 0:
        continue
    path, start = m[1], int(m[2])
    src = open(path).read().split("\n")
    end = start - 1  # a one-line func ends where it starts
    if not src[end].rstrip().endswith("}"):
        while src[end] != "}":
            end += 1
    first = start - 1
    while first > 0 and src[first - 1].startswith("//"):
        first -= 1
    zero += 1
    lines += end - first + 1
    out.append(f"{path}:{start}\t{m[3]}\t{end - first + 1}")
out.append(f"{zero} of {funcs} functions unreached, {lines} lines with doc comments")
open("reach.txt", "w").write("\n".join(out) + "\n")
print("\n".join(out))
'
}

# The documents' standing size rules: DESIGN.md stays under 40,000 B
# and every CHANGES.md entry from PR 31 on, newline included, within
# 1,536 B.
docs() {
    python3 - <<'EOF'
import re, sys
bad = []
n = len(open("DESIGN.md", "rb").read())
if n >= 40000:
    bad.append(f"DESIGN.md is {n} B, the cap is 40,000")
for line in open("CHANGES.md", "rb").read().split(b"\n"):
    m = re.match(rb"- PR (\d+)", line)
    if m and int(m[1]) >= 31 and len(line) + 1 > 1536:
        bad.append(f"CHANGES.md, PR {int(m[1])}: {len(line) + 1} B, the cap is 1,536")
if bad:
    sys.exit("\n".join(bad))
EOF
}

# Every package under internal/ is in the non-test import closure of a
# command, an example or the bench module; test-helper packages, named
# *test, are exempt. A package only tests import is code no run needs.
orphans() {
    local reached
    reached=$({ go list -deps ./cmd/... ./examples/... && (cd bench && go list -deps ./...); } | sort -u)
    if go list ./internal/... | grep -v 'test$' | grep -vxF -f <(echo "$reached"); then
        echo "orphans: the packages above are imported by no command, example or bench" >&2
        exit 1
    fi
}

# Every event of the model is a handler type, one per kind of event:
# sim.Func, the engine's closure adapter, is for tests. Any sim.Func in
# non-test Go outside internal/sim fails.
handlers() {
    local found
    found=$(grep -rn --include='*.go' --exclude='*_test.go' '\bsim\.Func\b' . | grep -v '^\./internal/sim/' || true)
    if [ -n "$found" ]; then
        echo "$found" >&2
        echo "handlers: schedule a handler type per kind of event, not a sim.Func" >&2
        exit 1
    fi
}

# No fused multiply-add anywhere a digest or a figure is computed. Go
# lets a compiler fuse x*y+z into one instruction that skips the
# product's rounding; arm64 does, amd64 at the default GOAMD64 does
# not, so a fused line makes pins and figures differ by architecture.
# An explicit float64(...) around the product rounds it and rules the
# fusion out. Every package of the module is compiled for arm64 and
# each fused instruction's file:line is listed unless fma_allow names it.
fma_allow=()
fma() {
    local found
    found=$(GOARCH=arm64 go build -gcflags=-S ./internal/... ./cmd/... ./examples/... 2>&1 |
        awk -v root="$PWD/" '/STEXT/ { fn = $1 }
            $4 ~ /^(FMADDD|FMSUBD|FNMADDD|FNMSUBD)$/ { loc = $3; gsub(/[()]/, "", loc); sub(root, "", loc); print loc, $4, "in", fn }' |
        sort -u)
    for a in "${fma_allow[@]}"; do
        found=$(grep -v "^$a " <<<"$found" || true)
    done
    if [ -n "$found" ]; then
        echo "$found" >&2
        echo "fma: wrap each product above in float64(...) so it is rounded before the add" >&2
        exit 1
    fi
}

# Tier-1 on the two other builds an amd64 machine runs natively: a
# 32-bit int (GOARCH=386) and GOAMD64=v3, where the compiler may use
# FMA and AVX2. Every pin, golden and digest test runs in both, so a
# digest that moves with the machine fails here.
arch() {
    GOARCH=386 go build ./...
    GOARCH=386 go test ./...
    GOAMD64=v3 go build ./...
    GOAMD64=v3 go test ./...
}

case "${1:-}" in
race | replay | fuzz | smoke | invariance | steelnetd | reach | docs | orphans | handlers | fma | arch) "$1" ;;
zero-alloc | int-replay | obs-endpoint | bench-module) "${1//-/_}" ;;
*)
    echo "usage: scripts/check.sh race|replay|fuzz|zero-alloc|smoke|invariance|int-replay|obs-endpoint|steelnetd|bench-module|reach|docs|orphans|handlers|fma|arch" >&2
    exit 2
    ;;
esac
