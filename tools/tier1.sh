#!/usr/bin/env bash
# tools/tier1.sh — the repo's tier-1 verification gate.
#
#   1. standard build + full ctest suite (ROADMAP.md "Tier-1 verify");
#   2. serve smoke: gen → pipeline (plain and checkpointed) → build →
#      query/serve, diffing the checkpointed run's and the served
#      assignments byte-for-byte against the batch pipeline's;
#   3. stream smoke: `rock append` onto a copy of the store, diffing the
#      incrementally labeled rows byte-for-byte against the tail of a full
#      `rock query --from-store` relabel of the grown store, plus the
#      'stream'-labeled ctest subset (the soak/differential harness);
#   4. ThreadSanitizer build of the threaded/diag subset (ctest -L sanitize,
#      which includes the streaming soak), so data races in the parallel
#      graph phases or the background-rebuild path fail the gate.
#
# Usage: tools/tier1.sh [--skip-tsan]

set -euo pipefail
cd "$(dirname "$0")/.."

echo "=== tier-1: standard build + full test suite ==="
cmake -B build -S . >/dev/null
cmake --build build -j
ctest --test-dir build --output-on-failure -j "$(nproc)"

echo "=== tier-1: serve smoke (serve ≡ pipeline differential) ==="
SMOKE_DIR="$(mktemp -d)"
trap 'rm -rf "$SMOKE_DIR"' EXIT
ROCK=build/tools/rock
[[ -x "$ROCK" ]] || ROCK=build/rock
"$ROCK" gen --dataset=basket --scale=0.02 --out="$SMOKE_DIR/baskets.store"
"$ROCK" pipeline --store="$SMOKE_DIR/baskets.store" --sample-size=400 \
    --theta=0.5 --k=10 --assignments="$SMOKE_DIR/batch.csv"
# Checkpointed leg: the same run through the checkpoint writer and the
# shared sample/resume prologue must write identical assignments and
# remove its checkpoint once done.
"$ROCK" pipeline --store="$SMOKE_DIR/baskets.store" --sample-size=400 \
    --theta=0.5 --k=10 --checkpoint="$SMOKE_DIR/run.ckpt" \
    --assignments="$SMOKE_DIR/checkpointed.csv"
cmp "$SMOKE_DIR/batch.csv" "$SMOKE_DIR/checkpointed.csv" \
    || { echo "serve smoke: checkpointed run differs from pipeline"; exit 1; }
[[ ! -e "$SMOKE_DIR/run.ckpt" ]] \
    || { echo "serve smoke: checkpoint left behind after a clean run"; \
         exit 1; }
"$ROCK" build --store="$SMOKE_DIR/baskets.store" --sample-size=400 \
    --theta=0.5 --k=10 --model="$SMOKE_DIR/model.rock"
"$ROCK" query --model="$SMOKE_DIR/model.rock" \
    --from-store="$SMOKE_DIR/baskets.store" --threads=4 \
    --assignments="$SMOKE_DIR/served.csv"
cmp "$SMOKE_DIR/batch.csv" "$SMOKE_DIR/served.csv" \
    || { echo "serve smoke: served assignments differ from pipeline"; exit 1; }
printf '3 5 9\n# comment\n17\n' | \
    "$ROCK" serve --model="$SMOKE_DIR/model.rock" --threads=2 \
    > "$SMOKE_DIR/answers.txt"
[[ "$(wc -l < "$SMOKE_DIR/answers.txt")" == "2" ]] \
    || { echo "serve smoke: line protocol answered wrong line count"; exit 1; }
echo "serve smoke: OK"

echo "=== tier-1: stream smoke (append ≡ full relabel differential) ==="
"$ROCK" gen --dataset=basket --scale=0.01 --out="$SMOKE_DIR/extra.store"
cp "$SMOKE_DIR/baskets.store" "$SMOKE_DIR/grown.store"
"$ROCK" append --store="$SMOKE_DIR/grown.store" \
    --model="$SMOKE_DIR/model.rock" --from-store="$SMOKE_DIR/extra.store" \
    --assignments="$SMOKE_DIR/append.csv"
"$ROCK" query --model="$SMOKE_DIR/model.rock" \
    --from-store="$SMOKE_DIR/grown.store" --threads=4 \
    --assignments="$SMOKE_DIR/relabel.csv"
# batch.csv = header + one line per base row; the append CSV (absolute row
# ids) must be the exact tail of the full relabel of the grown store.
BASE_LINES="$(wc -l < "$SMOKE_DIR/batch.csv")"
tail -n +2 "$SMOKE_DIR/append.csv" > "$SMOKE_DIR/append_rows.csv"
tail -n "+$((BASE_LINES + 1))" "$SMOKE_DIR/relabel.csv" \
    > "$SMOKE_DIR/relabel_tail.csv"
cmp "$SMOKE_DIR/append_rows.csv" "$SMOKE_DIR/relabel_tail.csv" \
    || { echo "stream smoke: incremental labels differ from full relabel"; \
         exit 1; }
ctest --test-dir build -L stream --output-on-failure -j "$(nproc)"
echo "stream smoke: OK"

if [[ "${1:-}" == "--skip-tsan" ]]; then
  echo "=== tier-1: TSan stage skipped (--skip-tsan) ==="
  exit 0
fi

echo "=== tier-1: TSan build + 'sanitize'-labeled tests ==="
cmake --preset tsan >/dev/null
cmake --build --preset tsan -j
ctest --test-dir build-tsan -L sanitize --output-on-failure -j "$(nproc)"

echo "=== tier-1: OK ==="
