#!/usr/bin/env bash
# benchdiff.sh — run the allocation-sensitive micro-benchmarks, emit a
# machine-readable report, and diff it against the committed baseline
# (BENCH_15.json) with a per-benchmark delta table.
#
# Usage: scripts/benchdiff.sh [output.json] [--baseline FILE] [--check PCT]
#        scripts/benchdiff.sh --ab DIR
#
#   output.json      where to write the fresh report (default BENCH_sim.json)
#   --baseline FILE  committed baseline to diff against (default BENCH_15.json)
#   --check PCT      fail when any benchmark's ns/op regresses more than
#                    PCT percent against the baseline (CI passes 10)
#   --ab DIR         instead of the above, time BenchmarkSwitchForwarding/fib=8
#                    against the checkout at DIR (e.g. `git archive` of the
#                    parent commit): each side's test binary is built once,
#                    then the two alternate for 5 rounds and every sample
#                    is printed with each side's range and median. One run
#                    wobbles by ±10 % or more on a shared 2-vCPU box, so a
#                    forwarding-path change is judged on these ranges: a
#                    difference inside both is unresolved, not a regression.
#
# The report is a JSON array of {name, ns_per_op, bytes_per_op,
# allocs_per_op} rows parsed from `go test -bench -benchmem` output.
#
# The allocation guards are one table, under "Allocation guards" below,
# enforced on every run whatever --check says. The
# BenchmarkCampus10kShards{2,4,8} rungs are macro numbers without an
# exact guard; the baseline diff gives them the slack described there.
# Shards1, one worker, allocates the same count every run, so it has one.
# The ladder's ratios need a core per worker: the committed baseline was
# recorded on two cores, so re-record on wider hardware before quoting a
# speedup.
set -euo pipefail

cd "$(dirname "$0")/.."

out="BENCH_sim.json"
baseline="BENCH_15.json"
check_pct=""
ab_dir=""
while [ $# -gt 0 ]; do
    case "$1" in
    --ab)
        ab_dir="$2"
        shift 2
        ;;
    --baseline)
        baseline="$2"
        shift 2
        ;;
    --check)
        check_pct="$2"
        shift 2
        ;;
    *)
        out="$1"
        shift
        ;;
    esac
done

# --- Interleaved A/B of the forwarding path ---------------------------

if [ -n "$ab_dir" ]; then
    bin=$(mktemp -d)
    trap 'rm -rf "$bin"' EXIT
    (cd "$ab_dir" && go test -c -o "$bin/base" ./internal/simnet)
    go test -c -o "$bin/new" ./internal/simnet
    cd internal/simnet
    for round in 1 2 3 4 5; do
        for side in base new; do
            "$bin/$side" -test.run '^$' -test.bench 'BenchmarkSwitchForwarding/fib=8$' \
                -test.benchtime 300ms -test.benchmem |
                awk -v s="$side" -v r="$round" '/^Benchmark/ { print s, r, $3 }'
        done
    done | awk '
    { print "round " $2 "  " $1 "  " $3 " ns/op"; v[$1, ++n[$1]] = $3 }
    END {
        for (s = 0; s < 2; s++) {
            side = s ? "new" : "base"; m = n[side]
            for (a = 1; a <= m; a++) x[a] = v[side, a]
            for (a = 2; a <= m; a++) { # insertion sort: m is 5
                y = x[a]
                for (b = a - 1; b >= 1 && x[b] > y; b--) x[b + 1] = x[b]
                x[b + 1] = y
            }
            printf "%-4s  range %s-%s ns/op  median %s\n", side, x[1], x[m], x[(m + 1) / 2]
        }
    }'
    exit 0
fi

# Time-based samples (50ms each) and -count 7: iteration-count samples
# of nanosecond-scale ops are ±20-30% noisy on shared runners. The
# report keeps each benchmark's median ns/op — robust against both the
# occasional descheduled sample and the occasional lucky one — and the
# worst-case allocs/op so alloc guards can never pass on a lucky sample.
raw=$(go test -run '^$' -bench \
  'BenchmarkEngineScheduleAndRun|BenchmarkEngineQueueDepth|BenchmarkEngineBatchDrain|BenchmarkTickerChain|BenchmarkPriorityQueue|BenchmarkSwitchForwarding|BenchmarkCrossShardForwarding|BenchmarkVMReflectorProgram|BenchmarkReflectionProbe|BenchmarkInstaPLCCycle|BenchmarkEngineSharded|BenchmarkCampus10k|BenchmarkHubPublish|BenchmarkAppendTagsPayload|BenchmarkHistoryAppend|BenchmarkHistoryQuery|BenchmarkJournalAppend|BenchmarkJournaledPublish|BenchmarkRegistryValues|BenchmarkRegistryAppendValues|BenchmarkRegistryWritePrometheus' \
  -benchmem -benchtime 50ms -count 7 . ./internal/sim ./internal/simnet ./internal/ebpf ./internal/reflection ./internal/instaplc ./internal/core ./internal/steelnetd ./internal/tshist)
echo "$raw"

# Columns are found by their unit suffix, not position: benchmarks that
# b.ReportMetric extra columns (msg/s, p50-ns) would otherwise shift
# B/op and allocs/op out of the fixed fields.
echo "$raw" | awk '
/^Benchmark/ {
    name = $1; sub(/-[0-9]+$/, "", name)
    ns = 0; bytes = 0; allocs = 0
    for (f = 2; f <= NF; f++) {
        if ($f == "ns/op") ns = $(f - 1) + 0
        else if ($f == "B/op") bytes = $(f - 1) + 0
        else if ($f == "allocs/op") allocs = $(f - 1) + 0
    }
    cnt[name]++
    samples[name, cnt[name]] = ns
    if (bytes > maxB[name]) maxB[name] = bytes
    if (allocs > maxA[name]) maxA[name] = allocs
    if (!(name in seen)) { order[n++] = name; seen[name] = 1 }
}
END {
    print "["
    for (i = 0; i < n; i++) {
        name = order[i]
        m = cnt[name]
        for (a = 1; a <= m; a++) v[a] = samples[name, a]
        for (a = 2; a <= m; a++) { # insertion sort: m is tiny
            x = v[a]
            for (b = a - 1; b >= 1 && v[b] > x; b--) v[b + 1] = v[b]
            v[b + 1] = x
        }
        med = (m % 2) ? v[(m + 1) / 2] : (v[m / 2] + v[m / 2 + 1]) / 2
        printf "  {\"name\": \"%s\", \"ns_per_op\": %g, \"bytes_per_op\": %d, \"allocs_per_op\": %d}%s\n",
            name, med, maxB[name], maxA[name], (i < n - 1) ? "," : ""
    }
    print "]"
}
' >"$out"
echo "wrote $out"

# --- Allocation guards (on the fresh numbers) -------------------------

# One row per guard: benchmark (an awk regex, matched up to the
# -GOMAXPROCS suffix so SwitchForwarding never also matches
# SwitchForwardingINT), allocs/op budget, and why. Every -count sample
# must meet its budget, and a guard whose benchmark is missing from the
# run fails: a renamed benchmark must not retire its own guard unnoticed.
# A regression here puts GC churn back into every figure sweep.
while read -r name budget reason; do
    rc=0
    echo "$raw" | awk -v b="$budget" \
        "/^$name(-[0-9]+)?[[:space:]]/ { seen = 1; if (\$7 > b) bad = 1 } END { if (!seen) exit 2; exit bad ? 1 : 0 }" || rc=$?
    case "$rc" in
    0) ;;
    2)
        echo "FAIL: $name not found in the benchmark run; its $budget allocs/op guard protects nothing (renamed? update this script)" >&2
        exit 1
        ;;
    *)
        echo "FAIL: $name exceeds its $budget allocs/op budget ($reason)" >&2
        exit 1
        ;;
    esac
done <<'EOF'
BenchmarkEngineScheduleAndRun          0 the pooled event arena must stay allocation-free
BenchmarkEngineQueueDepth\/1           0 the event queue must hold any depth on the arena's own links
BenchmarkEngineQueueDepth\/64          0 the event queue must hold any depth on the arena's own links
BenchmarkEngineQueueDepth\/512         0 the event queue must hold any depth on the arena's own links
BenchmarkEngineQueueDepth\/4096        0 the event queue must hold any depth on the arena's own links
BenchmarkEngineBatchDrain              0 a same-instant batch must be staged on the slots' own links
BenchmarkPriorityQueue                 0 a class FIFO must link its frames through them, not buffer them
BenchmarkSwitchForwarding\/fib=8       0 telemetry disabled: two FIB lookups per transit, no allocation
BenchmarkSwitchForwarding\/fib=512     0 a populated FIB must forward without allocating
BenchmarkSwitchForwardingINT           0 INT stacks must attach from and strip into the frame pool
BenchmarkVMReflectorProgram            0 compiled eBPF must reuse its scratch context
BenchmarkReflectionProbe               0 a Fig. 4 probe's whole life (sender, tap pairing, reflector job) must not allocate
BenchmarkInstaPLCCycle                 0 a Fig. 5 I/O cycle through vPLCs, pipeline and device must recycle frames and jobs
BenchmarkEngineShardedLocalSteady      0 per-shard arenas: window barriers must run GC-free
BenchmarkEngineShardedCross            0 outbox slots, the barrier merge buffer and delivery slots must be reused
BenchmarkCrossShardForwarding          0 a frame crossing a cross-shard link must ride a recycled delivery slot, not a closure
BenchmarkCampus10kBuild            55395 graph, FIBs, switches, links, ports, hosts and traffic senders one slab each, one drop hook per pool: 54,846 allocs/op plus 1 %
BenchmarkCampus10kShards1          75685 build plus 1 ms of traffic: hop events carry their port, forwarding context or sender, so no per-port, per-switch or per-host closure; 74,935 allocs/op plus 1 %
BenchmarkHubPublish\/subs=1            0 hub publish must be one channel send, the payload bytes shared
BenchmarkHubPublish\/subs=64           0 hub fan-out must not allocate per subscriber
BenchmarkHubPublish\/subs=1024         0 hub fan-out must stay allocation-free at SSE-fleet scale
BenchmarkAppendTagsPayload             0 tag-frame assembly must append into its reused buffer
BenchmarkHistoryAppend                 0 history recording on the publish path must not allocate
BenchmarkJournalAppend                 0 journal records must amortize into the per-run buffer
BenchmarkJournaledPublish              0 the observable slice (history + journal + 1024-subscriber fan-out) must stay GC-free
BenchmarkRegistryValues                1 a registry read must be one walk and one result slice: no per-read sort, no label re-rendering
BenchmarkRegistryAppendValues          0 a publisher's registry read into its kept slice must not allocate
BenchmarkRegistryWritePrometheus       1 a text render is one buffer, sized by the previous render
EOF

# --- Baseline diff ----------------------------------------------------

if [ ! -f "$baseline" ]; then
    echo "no baseline at $baseline; skipping delta table"
    exit 0
fi

# Compare new vs baseline per benchmark. Output columns:
#   name  base-ns  new-ns  delta%  base-allocs  new-allocs
# With CHECK non-empty, exit nonzero when any ns/op delta exceeds it or
# any benchmark allocates more than its baseline did.
if ! python3 - "$baseline" "$out" "${check_pct:-}" <<'EOF'
import json, sys

baseline_path, fresh_path, check = sys.argv[1], sys.argv[2], sys.argv[3]
base = {r["name"]: r for r in json.load(open(baseline_path))}
new = {r["name"]: r for r in json.load(open(fresh_path))}

rows, failures = [], []
for name, nr in new.items():
    br = base.get(name)
    if br is None:
        rows.append((name, "-", f'{nr["ns_per_op"]:.1f}', "new", "-", str(nr["allocs_per_op"])))
        continue
    delta = (nr["ns_per_op"] - br["ns_per_op"]) / br["ns_per_op"] * 100
    rows.append((name, f'{br["ns_per_op"]:.1f}', f'{nr["ns_per_op"]:.1f}',
                 f"{delta:+.1f}%", str(br["allocs_per_op"]), str(nr["allocs_per_op"])))
    if check:
        if delta > float(check):
            failures.append(f"{name}: ns/op regressed {delta:+.1f}% (> {check}%)")
        # Alloc budget: tiny slack (max of +10% and +4 absolute) so macro
        # benchmarks whose counts wobble with goroutine scheduling (the
        # gateway fan-out runs whole fleets per iteration) do not flap,
        # while the zero-alloc micro set is still pinned exactly by the
        # guard table above.
        if nr["allocs_per_op"] > max(br["allocs_per_op"] * 1.10, br["allocs_per_op"] + 4):
            failures.append(f'{name}: allocs/op grew {br["allocs_per_op"]} -> {nr["allocs_per_op"]}')
# A baseline benchmark missing from the fresh run fails even without
# --check: it usually means a rename silently dropped the benchmark from
# the bench regex, and every delta below it would be comparing nothing.
missing = [name for name in base if name not in new]
for name in missing:
    print(f"FAIL: {name}: in baseline {baseline_path} but missing from the fresh run "
          "(renamed or deleted? fix the bench regex or re-record the baseline)", file=sys.stderr)

hdr = ("benchmark", "base ns/op", "new ns/op", "delta", "base allocs", "new allocs")
widths = [max(len(r[i]) for r in rows + [hdr]) for i in range(6)]
fmt = "  ".join(f"{{:<{w}}}" for w in widths)
print()
print(fmt.format(*hdr))
print(fmt.format(*("-" * w for w in widths)))
for r in sorted(rows):
    print(fmt.format(*r))

if failures:
    print()
    for f in failures:
        print(f"FAIL: {f}", file=sys.stderr)
if failures or missing:
    sys.exit(1)
EOF
then
    echo "benchdiff: regression against $baseline" >&2
    exit 1
fi
