#!/usr/bin/env bash
# CI gate: configure with every static gate on, build, run the lint
# label, the full tier-1 suite, the perf and obs labels, an
# incremental smoke (a study run twice: the second, warm-cache pass
# must aggregate purely from .ares entries with zero trace-decode
# bytes), then an obs smoke run that records a session, analyzes it
# with --self-trace / --metrics-out, and strict-validates both files
# with trace_check. The bench smokes are collected into a
# schema-checked bench/BENCH_smoke.json artifact (which must hold
# the `.ares` cache_load line), the smoke decode
# and the smoke /v1/patterns render must stay under their allocation
# gates, and stages more
# than 10 % slower than the newest committed BENCH_<n>.json are
# printed (never fatal: numbers from different hosts do not
# compare); the serve smoke
# additionally scrapes /metricsz?format=prom through
# `trace_check --prom`, correlates a query's X-Lag-Trace-Id with
# /debugz/requests, and a crash-dump smoke SIGABRTs a second lagd to
# prove the fatal-signal path leaves a valid .flightrec naming the
# smoke query's trace id. The tier-1 suite runs at full ctest
# parallelism in random order, then again from a Release build.
# Optionally sweep the sanitizer
# matrix: `ci/check.sh --sanitize TSAN` (or ASAN / UBSAN) builds an
# instrumented tree in build-<san> and runs the engine label under
# it (TSAN also the serve label: the hot store's readers render
# lock-free from a published snapshot while its writers, serialised
# by one mutex, refresh and ingest on the pool; TSAN then repeats the
# EnginePool, EngineParallelFor and TraceContext cases five times
# each; ASAN and UBSAN also
# the core label: the session builder and the flat-tree walks are
# index arithmetic over arrays). Exits nonzero on the first failure.
#
# Usage:
#   ci/check.sh                  # static analysis + lint + tier-1
#   ci/check.sh --sanitize ASAN  # add one sanitizer leg
#   ci/check.sh --jobs 8         # override parallelism
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
jobs="$(nproc 2>/dev/null || echo 2)"
sanitize=""

while [ $# -gt 0 ]; do
    case "$1" in
      --sanitize) sanitize="$2"; shift 2 ;;
      --jobs) jobs="$2"; shift 2 ;;
      *) echo "ci/check.sh: unknown argument '$1'" >&2; exit 2 ;;
    esac
done

build="$root/build-ci"
echo "== configure (LAG_STATIC_ANALYSIS=ON LAG_WERROR=ON)"
cmake -S "$root" -B "$build" \
    -DLAG_STATIC_ANALYSIS=ON -DLAG_WERROR=ON >/dev/null

echo "== build"
cmake --build "$build" -j "$jobs"

echo "== lint (ctest -L lint)"
(cd "$build" && ctest -L lint --output-on-failure)

echo "== lag_check (layering + lock discipline)"
"$build/tools/lag_check" --root "$root" --summary \
    --json "$build/lag_check_report.json" src tools

echo "== clang-tidy (new findings vs ci/clang_tidy_baseline)"
"$root/tools/run_clang_tidy.sh" "$build"

echo "== tier-1 suite (parallel, random order)"
(cd "$build" && ctest --output-on-failure -j "$jobs" --schedule-random)

echo "== perf smoke (ctest -L perf)"
(cd "$build" && ctest -L perf --output-on-failure)

echo "== micro smoke (flat hot-path signature check + rates)"
bench_art="$build/bench/BENCH_smoke.json"
mkdir -p "$build/bench"
(cd "$build" && bench/bench_micro --smoke) | tee "$bench_art.micro"

echo "== pipeline smoke (stage throughput JSON lines)"
(cd "$build" && bench/bench_perf_pipeline --smoke --jobs 4) \
    | tee "$bench_art.pipeline"

echo "== bench artifact (BENCH_smoke.json, schema-checked)"
grep -h '^{' "$bench_art.micro" "$bench_art.pipeline" > "$bench_art"
rm -f "$bench_art.micro" "$bench_art.pipeline"
"$build/tools/trace_check" --jsonl "$bench_art"

echo "== decode allocation gate (smoke mapped_allocs <= 751)"
# The sample columns decode with no allocation per sample, and the
# string table builds no intern index: the 60 s smoke fixture takes
# ~110 allocations per decode, against 7,511 for the nested
# per-sample vectors the columns replaced. The gate is a tenth of
# that old count.
python3 - "$bench_art" <<'PY'
import json
import sys

limit = 751
for line in open(sys.argv[1]):
    record = json.loads(line)
    if record.get("bench") == "decode_mb_per_s":
        allocs = record["mapped_allocs"]
        print(f"mapped_allocs {allocs} (gate {limit})")
        sys.exit(0 if allocs <= limit else 1)
print("no decode_mb_per_s line in the smoke output", file=sys.stderr)
sys.exit(1)
PY

echo "== render allocation gate (smoke render allocs <= 4 at any pattern count)"
# patternsJson reserves its body once and appends every field into
# it: a full /v1/patterns render takes 2 allocations (the sort order
# and the body) for the fixture's patterns and for half of them.
# A per-field temporary would make the count grow with the patterns.
python3 - "$bench_art" <<'PY'
import json
import sys

limit = 4
for line in open(sys.argv[1]):
    record = json.loads(line)
    if record.get("bench") == "render":
        allocs, half = record["allocs"], record["half_allocs"]
        print(f"render allocs {allocs}, half_allocs {half} (gate {limit})")
        sys.exit(0 if allocs <= limit and half <= limit else 1)
print("no render line in the smoke output", file=sys.stderr)
sys.exit(1)
PY

echo "== cache-load line (the .ares warm-start cost is in the artifact)"
# bench_diff.py reports its load_mb_per_s and merge_ms against the
# committed trajectory; a smoke run without the line would drop the
# warm-start stages from that report without a word.
python3 - "$bench_art" <<'PY'
import json
import sys

for line in open(sys.argv[1]):
    record = json.loads(line)
    if record.get("bench") == "cache_load":
        print(f"cache_load {record['entry_bytes']} bytes, "
              f"{record['load_mb_per_s']} MB/s, "
              f"merge {record['merge_ms']} ms")
        sys.exit(0)
print("no cache_load line in the smoke output", file=sys.stderr)
sys.exit(1)
PY

echo "== bench trajectory (smoke vs the newest BENCH_*.json; report only)"
python3 "$root/ci/bench_diff.py" "$bench_art" || true

echo "== incremental smoke (warm cache must not touch the decoder)"
(cd "$build" && bench/bench_perf_pipeline --incremental-smoke --jobs 4)

echo "== serve suite (ctest -L serve)"
(cd "$build" && ctest -L serve --output-on-failure)

echo "== serve smoke (lagd up, query, refresh, drain)"
serve_dir="$build/serve-smoke"
rm -rf "$serve_dir"
mkdir -p "$serve_dir"
"$build/src/serve/lagd" --quick 2 --port 0 --jobs 4 \
    --cache-dir "$serve_dir/cache" \
    --port-file "$serve_dir/port" >"$serve_dir/lagd.out" 2>&1 &
lagd_pid=$!
for _ in $(seq 1 100); do
    [ -s "$serve_dir/port" ] && break
    kill -0 "$lagd_pid" 2>/dev/null || {
        echo "lagd died during startup" >&2
        cat "$serve_dir/lagd.out" >&2
        exit 1
    }
    sleep 0.2
done
[ -s "$serve_dir/port" ] || {
    echo "lagd never wrote its port file" >&2
    exit 1
}
port="$(cat "$serve_dir/port")"
lq="$build/tools/lag_query"
"$lq" --port "$port" /healthz >/dev/null
"$lq" --port "$port" "/v1/apps" > "$serve_dir/apps.json"
"$lq" --port "$port" --print-trace-id \
    "/v1/patterns?app=GanttProject&sort=total_lag&limit=5" \
    > "$serve_dir/patterns.json" 2> "$serve_dir/patterns.trace"
"$lq" --port "$port" "/v1/figures/table3" > "$serve_dir/table3.json"
"$lq" --port "$port" --post /v1/refresh > "$serve_dir/refresh.json"
for f in apps patterns table3 refresh; do
    "$build/tools/trace_check" "$serve_dir/$f.json"
done

echo "== prometheus scrape (/metricsz?format=prom through trace_check)"
"$lq" --port "$port" "/metricsz?format=prom" \
    | "$build/tools/trace_check" --prom -

echo "== request tracing (/debugz/requests shows the smoke queries)"
trace_id="$(sed -n 's/^trace-id: //p' "$serve_dir/patterns.trace")"
[ -n "$trace_id" ] && [ "$trace_id" != "none" ] || {
    echo "lag_query --print-trace-id produced no trace id" >&2
    cat "$serve_dir/patterns.trace" >&2
    exit 1
}
# The summary is recorded just after the response goes out, so
# allow a few retries before calling it missing.
debug_ok=0
for _ in $(seq 1 50); do
    "$lq" --port "$port" /debugz/requests \
        > "$serve_dir/requests.json" 2>/dev/null || true
    if grep -q "$trace_id" "$serve_dir/requests.json" &&
        grep -q "/v1/patterns" "$serve_dir/requests.json"; then
        debug_ok=1
        break
    fi
    sleep 0.1
done
[ "$debug_ok" = 1 ] || {
    echo "/debugz/requests never showed trace $trace_id" >&2
    cat "$serve_dir/requests.json" >&2
    exit 1
}
"$build/tools/trace_check" "$serve_dir/requests.json"
"$lq" --port "$port" "/debugz/requests?trace=$trace_id" \
    > "$serve_dir/request_tree.json"
grep -q '"name": "serve.request"' "$serve_dir/request_tree.json" || {
    echo "/debugz/requests?trace= has no serve.request span" >&2
    cat "$serve_dir/request_tree.json" >&2
    exit 1
}
"$lq" --port "$port" /debugz/flightrecorder \
    > "$serve_dir/flightrec.json"
"$build/tools/trace_check" --flightrec "$serve_dir/flightrec.json"
# Unknown app must fail the query tool (exit 1 on a non-2xx).
if "$lq" --port "$port" "/v1/patterns?app=no-such-app" \
    >/dev/null 2>&1; then
    echo "lag_query should have failed on a 404" >&2
    exit 1
fi
kill -TERM "$lagd_pid"
wait "$lagd_pid" || {
    echo "lagd did not exit cleanly on SIGTERM" >&2
    cat "$serve_dir/lagd.out" >&2
    exit 1
}
grep -q "shut down cleanly" "$serve_dir/lagd.out" || {
    echo "lagd missing clean-shutdown line" >&2
    cat "$serve_dir/lagd.out" >&2
    exit 1
}

echo "== crash-dump smoke (SIGABRT must leave a valid .flightrec)"
crash_dir="$build/crash-smoke"
rm -rf "$crash_dir"
mkdir -p "$crash_dir"
# Reuse the warm cache from the serve smoke so startup is instant.
"$build/src/serve/lagd" --quick 2 --port 0 --jobs 4 \
    --cache-dir "$serve_dir/cache" \
    --flightrec-path "$crash_dir/crash.flightrec" \
    --port-file "$crash_dir/port" >"$crash_dir/lagd.out" 2>&1 &
crash_pid=$!
for _ in $(seq 1 100); do
    [ -s "$crash_dir/port" ] && break
    kill -0 "$crash_pid" 2>/dev/null || {
        echo "lagd died during crash-smoke startup" >&2
        cat "$crash_dir/lagd.out" >&2
        exit 1
    }
    sleep 0.2
done
crash_port="$(cat "$crash_dir/port")"
"$lq" --port "$crash_port" --print-trace-id "/v1/apps" \
    > /dev/null 2> "$crash_dir/apps.trace"
crash_trace="$(sed -n 's/^trace-id: //p' "$crash_dir/apps.trace")"
# Let the request summary land in the ring before the abort.
crash_seen=0
for _ in $(seq 1 50); do
    if "$lq" --port "$crash_port" /debugz/requests 2>/dev/null \
        | grep -q "$crash_trace"; then
        crash_seen=1
        break
    fi
    sleep 0.1
done
[ "$crash_seen" = 1 ] || {
    echo "crash-smoke query never appeared in /debugz/requests" >&2
    exit 1
}
kill -ABRT "$crash_pid"
rc=0
wait "$crash_pid" || rc=$?
[ "$rc" = 134 ] || {
    echo "lagd should have died on SIGABRT (got rc=$rc)" >&2
    exit 1
}
[ -s "$crash_dir/crash.flightrec" ] || {
    echo "SIGABRT left no flight-recorder dump" >&2
    cat "$crash_dir/lagd.out" >&2
    exit 1
}
"$build/tools/trace_check" --flightrec "$crash_dir/crash.flightrec"
grep -q "$crash_trace" "$crash_dir/crash.flightrec" || {
    echo "crash dump missing the smoke query's trace id" >&2
    exit 1
}

echo "== ingest smoke (lagd --follow vs the batch answer)"
ingest_dir="$build/ingest-smoke"
rm -rf "$ingest_dir"
mkdir -p "$ingest_dir/watch"
"$build/examples/record_session" GanttProject 10 0 \
    "$ingest_dir/source.lag" >/dev/null
rm -rf "$ingest_dir/source.lag.cache"
replay="$build/tools/lag_replay"
# The batch reference: the exact /v1/patterns body lagd must serve
# once the streamed copy of this trace completes.
"$replay" "$ingest_dir/source.lag" --batch-json \
    > "$ingest_dir/batch.json"
"$build/src/serve/lagd" --quick 2 --port 0 --jobs 4 \
    --follow "$ingest_dir/watch" --epoch-ms 50 \
    --cache-dir "$ingest_dir/cache" \
    --port-file "$ingest_dir/port" >"$ingest_dir/lagd.out" 2>&1 &
ingest_pid=$!
for _ in $(seq 1 100); do
    [ -s "$ingest_dir/port" ] && break
    kill -0 "$ingest_pid" 2>/dev/null || {
        echo "lagd --follow died during startup" >&2
        cat "$ingest_dir/lagd.out" >&2
        exit 1
    }
    sleep 0.2
done
ingest_port="$(cat "$ingest_dir/port")"
# Replay the trace into the watched directory, paced so the write
# overlaps several epochs (mid-record flushes via the prime chunk).
"$replay" "$ingest_dir/source.lag" \
    "$ingest_dir/watch/session.lag" --rps 20000 \
    > "$ingest_dir/replay.out" &
replay_pid=$!
ingest_ok=0
for _ in $(seq 1 200); do
    "$lq" --port "$ingest_port" /v1/ingest \
        > "$ingest_dir/ingest.json" 2>/dev/null || true
    if grep -q '"all_complete":true' "$ingest_dir/ingest.json"; then
        ingest_ok=1
        break
    fi
    sleep 0.1
done
wait "$replay_pid" || {
    echo "lag_replay failed" >&2
    cat "$ingest_dir/replay.out" >&2
    exit 1
}
[ "$ingest_ok" = 1 ] || {
    echo "/v1/ingest never reported all_complete" >&2
    cat "$ingest_dir/ingest.json" >&2
    cat "$ingest_dir/lagd.out" >&2
    exit 1
}
"$build/tools/trace_check" "$ingest_dir/ingest.json"
"$lq" --port "$ingest_port" "/v1/patterns?app=GanttProject" \
    > "$ingest_dir/live.json"
# Byte-for-byte the batch answer (both tools newline-terminate):
# the live-ingest correctness contract, end to end over HTTP.
cmp "$ingest_dir/batch.json" "$ingest_dir/live.json" || {
    echo "live /v1/patterns diverges from the batch answer" >&2
    exit 1
}
kill -TERM "$ingest_pid"
wait "$ingest_pid" || {
    echo "lagd --follow did not exit cleanly on SIGTERM" >&2
    cat "$ingest_dir/lagd.out" >&2
    exit 1
}

echo "== obs suite (ctest -L obs)"
(cd "$build" && ctest -L obs --output-on-failure)

echo "== obs smoke (--self-trace / --metrics-out validate)"
smoke="$build/obs-smoke"
mkdir -p "$smoke"
"$build/examples/record_session" GanttProject 30 0 \
    "$smoke/session.lag" >/dev/null
rm -rf "$smoke/session.lag.cache"
"$build/examples/analyze_trace" "$smoke/session.lag" \
    --self-trace "$smoke/self.json" \
    --metrics-out "$smoke/metrics.json" >/dev/null
"$build/tools/trace_check" --chrome "$smoke/self.json"
"$build/tools/trace_check" "$smoke/metrics.json"

echo "== release build (CMAKE_BUILD_TYPE=Release, tier-1)"
# -O3 enables GCC warnings the default RelWithDebInfo (-O2) build
# never sees; LAG_WERROR keeps them fatal here too.
release_build="$root/build-release"
cmake -S "$root" -B "$release_build" \
    -DCMAKE_BUILD_TYPE=Release -DLAG_WERROR=ON >/dev/null
cmake --build "$release_build" -j "$jobs"
(cd "$release_build" &&
    ctest --output-on-failure -j "$jobs" --schedule-random)

if [ -n "$sanitize" ]; then
    san_lc="$(echo "$sanitize" | tr '[:upper:]' '[:lower:]')"
    san_build="$root/build-$san_lc"
    echo "== sanitizer leg: $sanitize"
    cmake -S "$root" -B "$san_build" \
        -DLAG_SANITIZE="$sanitize" -DLAG_WERROR=ON >/dev/null
    cmake --build "$san_build" -j "$jobs"
    case "$san_lc" in
      tsan|thread) san_labels="engine|serve" ;;
      *) san_labels="engine|core" ;;
    esac
    (cd "$san_build" &&
        ctest -L "$san_labels" --output-on-failure -j "$jobs")
    if [ "$san_labels" = "engine|serve" ]; then
        # The pool, its one join and the trace context that rides
        # every task: repeated, since a race need not show on one run.
        (cd "$san_build" &&
            ctest -R '^(EnginePool|EngineParallelFor|TraceContext)\.' \
                --repeat until-fail:5 --output-on-failure -j "$jobs")
    fi
fi

echo "== ci/check.sh: all gates passed"
