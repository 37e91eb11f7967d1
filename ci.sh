#!/usr/bin/env bash
# Tier-1 gate, exactly as every PR must pass it. Networking is assumed
# absent: all dependencies are workspace-internal (see shims/), and
# --offline turns any accidental registry dependency into a hard error
# instead of a hung fetch — a missing-manifest regression can never land.
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo fmt --check"
cargo fmt --all --check

echo "== cargo clippy --all-targets -- -D warnings (offline)"
cargo clippy --offline --all-targets -- -D warnings

echo "== cargo build --release (offline)"
cargo build --release --offline

echo "== cargo test -q (offline)"
cargo test -q --offline

echo "== tunebench tests (the benchmark harness builds against the library crates)"
# tunebench is a package of its own; building it into the workspace
# target/ keeps a trait or API change from breaking it unnoticed.
cargo test -q --offline --manifest-path tunebench/Cargo.toml --target-dir target

echo "== cargo doc --no-deps (RUSTDOCFLAGS=-D warnings: docs can never rot)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --offline

echo "== petal-verify --all --deny (static plan/choice-space verification, smoke budget)"
PETAL_SMOKE=1 cargo run --release --offline -p petal_analysis --bin petal-verify -- --all --deny

echo "== smoke-mode criterion suites (PETAL_SMOKE=1, reduced sizes/samples)"
PETAL_SMOKE=1 cargo bench --offline

echo "== bench_baseline --check-virtual (bit-exact virtual-time reference numbers)"
cargo run --release --offline -p petal_bench --bin bench_baseline -- --check-virtual

echo "== bench_hotpath --check (scheduler speedup regression floor, smoke reps)"
PETAL_SMOKE=1 cargo run --release --offline -p petal_bench --bin bench_hotpath -- --check

echo "== farmd loopback smoke (dispatcher + 2 workers on a unix socket, one injected kill)"
# fig2 (smoke sweep) and fig7 (Black-Scholes) run against a live
# petal-farmd pool via PETAL_FARMD; worker ci-a kills itself mid-run
# (--fail-after) so the re-queue path is exercised in every CI run. The
# figures' own asserts prove results match the in-process farm.
FARMD_SOCK="$(mktemp -u /tmp/petal-farmd-ci.XXXXXX.sock)"
./target/release/petal-farmd --listen "unix:$FARMD_SOCK" &
FARMD_PID=$!
./target/release/petal-shard --connect "unix:$FARMD_SOCK" --name ci-a --fail-after 60 &
./target/release/petal-shard --connect "unix:$FARMD_SOCK" --name ci-b &
WORKER_B_PID=$!
trap 'kill "$FARMD_PID" "$WORKER_B_PID" 2>/dev/null || true; rm -f "$FARMD_SOCK"' EXIT
PETAL_SMOKE=1 PETAL_FARMD="unix:$FARMD_SOCK" ./target/release/fig2_convolution >/dev/null
PETAL_FARMD="unix:$FARMD_SOCK" ./target/release/fig7_migration scholes >/dev/null
kill "$FARMD_PID" 2>/dev/null || true
wait "$FARMD_PID" 2>/dev/null || true

echo "== farmd bounce smoke (SIGKILL the journaled dispatcher mid-fig2, restart, same config)"
# Crash recovery end-to-end on the release binaries: fig2 tunes against
# a --journal dispatcher that is killed with SIGKILL mid-run and
# restarted on the same socket over the same journal. The workers
# reconnect, the client resumes its session by token, and fig2's own
# asserts prove the Tuned.config is bit-identical to the in-process
# farm. (Outputs go to files — pipes would SIGPIPE under pipefail.)
BOUNCE_SOCK="$(mktemp -u /tmp/petal-bounce-ci.XXXXXX.sock)"
BOUNCE_DIR="$(mktemp -d /tmp/petal-bounce-ci.XXXXXX)"
./target/release/petal-farmd --listen "unix:$BOUNCE_SOCK" --journal "$BOUNCE_DIR/journal" \
  2>"$BOUNCE_DIR/farmd-1.log" &
BOUNCE_PID=$!
./target/release/petal-shard --connect "unix:$BOUNCE_SOCK" --name bounce-a 2>/dev/null &
BOUNCE_A_PID=$!
./target/release/petal-shard --connect "unix:$BOUNCE_SOCK" --name bounce-b 2>/dev/null &
BOUNCE_B_PID=$!
trap 'kill -9 "$FIG2_PID" 2>/dev/null || true; kill "$BOUNCE_PID" "$BOUNCE_A_PID" "$BOUNCE_B_PID" "$FARMD_PID" "$WORKER_B_PID" 2>/dev/null || true; rm -rf "$BOUNCE_DIR"; rm -f "$BOUNCE_SOCK" "$FARMD_SOCK"' EXIT
PETAL_SMOKE=1 PETAL_FARMD="unix:$BOUNCE_SOCK" \
  ./target/release/fig2_convolution >"$BOUNCE_DIR/fig2.out" &
FIG2_PID=$!
sleep 1
kill -9 "$BOUNCE_PID" 2>/dev/null || true
wait "$BOUNCE_PID" 2>/dev/null || true
./target/release/petal-farmd --listen "unix:$BOUNCE_SOCK" --journal "$BOUNCE_DIR/journal" \
  2>"$BOUNCE_DIR/farmd-2.log" &
BOUNCE_PID=$!
wait "$FIG2_PID" \
  || { echo "bounce smoke: fig2 failed across the dispatcher bounce"; cat "$BOUNCE_DIR"/farmd-*.log; exit 1; }
kill "$BOUNCE_PID" "$BOUNCE_A_PID" "$BOUNCE_B_PID" 2>/dev/null || true
wait "$BOUNCE_PID" 2>/dev/null || true
rm -rf "$BOUNCE_DIR"
rm -f "$BOUNCE_SOCK"
trap 'kill "$FARMD_PID" "$WORKER_B_PID" 2>/dev/null || true; rm -f "$FARMD_SOCK"' EXIT

echo "== registry smoke (tune -> put -> migrate -> warm-start get -> repair curve)"
# fig7 with --registry stores every native tune and prints the
# repair-curve table; the parity@gen cells only appear when a
# warm-started re-tune actually closed the migration gap. Then the CLI
# round-trip: ls must list the stored machines and get must hand back a
# config file a warm start could consume.
REG_DIR="$(mktemp -d /tmp/petal-registry-ci.XXXXXX)"
trap 'rm -rf "$REG_DIR"; kill "$FARMD_PID" "$WORKER_B_PID" 2>/dev/null || true; rm -f "$FARMD_SOCK"' EXIT
# (Pipelines into early-exiting greps would SIGPIPE the binaries under
# pipefail, so every step writes to a file first.)
PETAL_SMOKE=1 ./target/release/fig7_migration scholes --registry "$REG_DIR" >"$REG_DIR/fig7.out"
grep -q 'parity@gen' "$REG_DIR/fig7.out" \
  || { echo "registry smoke: no parity@gen cell in the repair table"; exit 1; }
./target/release/petal-registry ls --registry "$REG_DIR" >"$REG_DIR/ls.out"
grep -q 'machine=Desktop' "$REG_DIR/ls.out" \
  || { echo "registry smoke: Desktop entry missing from ls"; exit 1; }
REG_SPEC="$(sed -n 's/.*spec="\([^"]*\)".*/\1/p' "$REG_DIR/ls.out" | sort -u)"
./target/release/petal-registry get --registry "$REG_DIR" \
  --machine desktop --spec "$REG_SPEC" >"$REG_DIR/got.cfg" 2>"$REG_DIR/got.meta"
grep -q 'selector' "$REG_DIR/got.cfg" \
  || { echo "registry smoke: get did not return a config file"; exit 1; }
grep -q 'tier=exact' "$REG_DIR/got.meta" \
  || { echo "registry smoke: desktop get was not an exact hit"; exit 1; }
rm -rf "$REG_DIR"

echo "== served-registry smoke (one dispatcher hosting the pool AND the registry)"
# The fleet-shared loop end-to-end on release binaries: a first client's
# GET over the socket misses cold; fig7 then evaluates its tunes on the
# same dispatcher's two workers (PETAL_FARMD) while publishing every
# native tune through the served registry (PETAL_REGISTRY, same
# endpoint) and warm re-tuning the repair table on the pool; a second
# client's exact GET hits what the fleet just published.
REGD_DIR="$(mktemp -d /tmp/petal-regd-ci.XXXXXX)"
REGD_SOCK="$(mktemp -u /tmp/petal-regd-ci.XXXXXX.sock)"
./target/release/petal-farmd --listen "unix:$REGD_SOCK" --registry "$REGD_DIR" &
REGD_PID=$!
./target/release/petal-shard --connect "unix:$REGD_SOCK" --name regd-a &
REGD_A_PID=$!
./target/release/petal-shard --connect "unix:$REGD_SOCK" --name regd-b &
REGD_B_PID=$!
trap 'rm -rf "$REG_DIR" "$REGD_DIR"; kill "$FARMD_PID" "$WORKER_B_PID" "$REGD_PID" "$REGD_A_PID" "$REGD_B_PID" 2>/dev/null || true; rm -f "$FARMD_SOCK" "$REGD_SOCK"' EXIT
if ./target/release/petal-registry get --registry "unix:$REGD_SOCK" \
    --machine laptop --spec "blackscholes n=4096" >/dev/null 2>"$REGD_DIR/miss.meta"; then
  echo "served-registry smoke: expected the first GET to miss cold"; exit 1
fi
grep -q 'no match' "$REGD_DIR/miss.meta" \
  || { echo "served-registry smoke: the cold miss was not a clean miss"; cat "$REGD_DIR/miss.meta"; exit 1; }
PETAL_SMOKE=1 PETAL_FARMD="unix:$REGD_SOCK" PETAL_REGISTRY="unix:$REGD_SOCK" \
  ./target/release/fig7_migration scholes >"$REGD_DIR/fig7.out"
grep -q 'parity@gen' "$REGD_DIR/fig7.out" \
  || { echo "served-registry smoke: no parity@gen cell in the repair table"; exit 1; }
./target/release/petal-registry ls --registry "unix:$REGD_SOCK" >"$REGD_DIR/ls.out"
grep -q 'machine=Desktop' "$REGD_DIR/ls.out" \
  || { echo "served-registry smoke: Desktop entry missing from the served ls"; exit 1; }
REGD_SPEC="$(sed -n 's/.*spec="\([^"]*\)".*/\1/p' "$REGD_DIR/ls.out" | sort -u)"
./target/release/petal-registry get --registry "unix:$REGD_SOCK" \
  --machine desktop --spec "$REGD_SPEC" >"$REGD_DIR/got.cfg" 2>"$REGD_DIR/got.meta"
grep -q 'selector' "$REGD_DIR/got.cfg" \
  || { echo "served-registry smoke: the served get did not return a config file"; exit 1; }
grep -q 'tier=exact' "$REGD_DIR/got.meta" \
  || { echo "served-registry smoke: the second client's get was not an exact hit"; exit 1; }
kill "$REGD_PID" "$REGD_A_PID" "$REGD_B_PID" 2>/dev/null || true
wait "$REGD_PID" 2>/dev/null || true
rm -rf "$REGD_DIR"
rm -f "$REGD_SOCK"

echo "== farmd soak (PETAL_SOAK=1 opt-in: thousands of jobs, worker churn + a dispatcher bounce)"
if [[ "${PETAL_SOAK:-0}" == "1" ]]; then
  PETAL_SOAK=1 cargo test -q --offline -p petal_shard --test farmd_soak
else
  echo "   skipped (set PETAL_SOAK=1 to run)"
fi

echo "CI green"
