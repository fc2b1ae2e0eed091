#!/usr/bin/env bash
# tools/perf_smoke.sh — CI's engine perf gates.
#
# Five gates, all comparing speedup *ratios* (never absolute seconds, so
# the gate holds across machines) against checked-in baselines, failing on
# a >25% regression of the geometric-mean ratio:
#
#   1. merge engines — bench_fig5_scalability at a small scale with
#      --compare-engines --reps=3 (every (n, θ) cell under the production
#      `parallel` merge engine and the hashed reference, whose
#      MergeRecords are differentially pinned to each other in
#      tests/diag_differential_test.cc; each keeps its smallest
#      stage.merge of three runs); gates on the hashed/parallel
#      stage.merge speedup vs bench/baselines/BENCH_rock_smoke.json.
#   2. neighbor engines — bench_neighbors_ablation --compare-engines
#      (packed bit-plane engine vs the scalar per-pair oracle, graphs
#      verified identical); gates on the packed/scalar stage.neighbors
#      speedup vs bench/baselines/BENCH_neighbors_smoke.json.
#   3. link engines — bench_links_ablation --compare-engines (bit-plane
#      popcount engine vs the Fig. 4 hashed-scatter oracle, frozen CSR
#      rows verified byte-identical); gates on the packed/hashed
#      stage.links speedup vs bench/baselines/BENCH_links_smoke.json.
#   4. serve loopback — bench_serve (label server vs direct Assign loop,
#      assignments verified identical); gates on the direct/serve
#      stage.label_query ratio vs bench/baselines/BENCH_serve_smoke.json,
#      plus an absolute ≥ 10k QPS floor on the served answers.
#   5. (retired) graph scale — its only subjects were the LSH neighbor
#      pass's time ratio and recall, and that pass is gone; the numbering
#      is kept so gate 6 keeps its name.
#   6. streaming appends — bench_stream (StreamingSession::Append vs the
#      direct Assign loop over the same held-out rows, assignments
#      verified identical); gates on the direct/stream stage.append_label
#      ratio vs bench/baselines/BENCH_stream_smoke.json, plus an absolute
#      ≥ 10k rows/s floor on appended-row labeling throughput.
#
# Usage: tools/perf_smoke.sh [build-dir]   (default: build)
#
# To refresh the baselines after an intentional perf change:
#   tools/perf_smoke.sh && \
#     cp build/BENCH_rock_smoke.json bench/baselines/BENCH_rock_smoke.json && \
#     cp build/BENCH_neighbors_smoke.json \
#         bench/baselines/BENCH_neighbors_smoke.json && \
#     cp build/BENCH_links_smoke.json bench/baselines/BENCH_links_smoke.json && \
#     cp build/BENCH_serve_smoke.json bench/baselines/BENCH_serve_smoke.json && \
#     cp build/BENCH_stream_smoke.json \
#         bench/baselines/BENCH_stream_smoke.json

set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build}"
SCALE=0.02  # DB ≈ 2300 tx -> sample sizes 1000 and 2000 only
BASELINE=bench/baselines/BENCH_rock_smoke.json
REPORT="$BUILD_DIR/BENCH_rock_smoke.json"
NBR_BASELINE=bench/baselines/BENCH_neighbors_smoke.json
NBR_REPORT="$BUILD_DIR/BENCH_neighbors_smoke.json"
LNK_BASELINE=bench/baselines/BENCH_links_smoke.json
LNK_REPORT="$BUILD_DIR/BENCH_links_smoke.json"
SRV_BASELINE=bench/baselines/BENCH_serve_smoke.json
SRV_REPORT="$BUILD_DIR/BENCH_serve_smoke.json"
STRM_BASELINE=bench/baselines/BENCH_stream_smoke.json
STRM_REPORT="$BUILD_DIR/BENCH_stream_smoke.json"

cmake --build "$BUILD_DIR" -j --target bench_fig5_scalability \
    bench_neighbors_ablation bench_links_ablation bench_serve bench_stream

echo "=== perf-smoke: bench_fig5_scalability $SCALE --compare-engines --reps=3 ==="
ROCK_BENCH_JSON="$REPORT" \
    "$BUILD_DIR/bench/bench_fig5_scalability" "$SCALE" --compare-engines \
    --reps=3

echo "=== perf-smoke: gate vs $BASELINE ==="
python3 tools/check_perf_regression.py "$REPORT" "$BASELINE" \
    --engines=parallel,hashed --stage=stage.merge

# Best-of-3 timing per cell: the neighbor stage is fast at smoke scale, so
# a single rep is noisy enough to trip a ratio gate on a busy CI box.
echo "=== perf-smoke: bench_neighbors_ablation --compare-engines ==="
ROCK_BENCH_JSON="$NBR_REPORT" \
    "$BUILD_DIR/bench/bench_neighbors_ablation" --compare-engines \
    --scale=$SCALE --max-n=2000 --reps=3

echo "=== perf-smoke: gate vs $NBR_BASELINE ==="
python3 tools/check_perf_regression.py "$NBR_REPORT" "$NBR_BASELINE" \
    --engines=packed,scalar --stage=stage.neighbors

# Same best-of-3 discipline: the packed link stage finishes in single-digit
# milliseconds at smoke scale.
echo "=== perf-smoke: bench_links_ablation --compare-engines ==="
ROCK_BENCH_JSON="$LNK_REPORT" \
    "$BUILD_DIR/bench/bench_links_ablation" --compare-engines \
    --scale=$SCALE --max-n=2000 --reps=3

echo "=== perf-smoke: gate vs $LNK_BASELINE ==="
python3 tools/check_perf_regression.py "$LNK_REPORT" "$LNK_BASELINE" \
    --engines=packed,hashed --stage=stage.links

# Serve loopback: best-of-3 like the other sub-second stages, with an
# absolute QPS floor on top of the machine-independent ratio gate.
echo "=== perf-smoke: bench_serve --min-qps=10000 ==="
(cd "$BUILD_DIR" && ROCK_BENCH_JSON=BENCH_serve_smoke.json \
    ./bench/bench_serve "$SCALE" --min-qps=10000 --reps=3)

echo "=== perf-smoke: gate vs $SRV_BASELINE ==="
python3 tools/check_perf_regression.py "$SRV_REPORT" "$SRV_BASELINE" \
    --engines=serve,direct --stage=stage.label_query

# Streaming appends: the session labels every appended row through the
# same §4.6 Assign path as the direct loop (differentially verified inside
# the bench); gate on the direct/stream ratio plus an absolute
# appended-row labeling throughput floor.
echo "=== perf-smoke: bench_stream --reps=3 ==="
(cd "$BUILD_DIR" && ROCK_BENCH_JSON=BENCH_stream_smoke.json \
    ./bench/bench_stream "$SCALE" --reps=3)

echo "=== perf-smoke: gate vs $STRM_BASELINE ==="
python3 tools/check_perf_regression.py "$STRM_REPORT" "$STRM_BASELINE" \
    --engines=stream,direct --stage=stage.append_label \
    --min-counter=stream.rows_per_sec:10000
