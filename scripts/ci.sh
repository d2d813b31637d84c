#!/usr/bin/env bash
# Local CI gate for the workspace. Run from anywhere; it cd's to the
# repo root. Fails fast on the first broken step.
#
# Two modes (ROADMAP "CI timing budget"):
#
#   ci.sh             fast PR gate: fmt + determinism lint + clippy +
#                     build + tier-1 tests (including the NCT trace
#                     round-trip/golden-fixture suite and the
#                     hierarchical-fabric unit/property suites).
#                     Target: a few minutes.
#   ci.sh --nightly   everything above plus the slow sweeps: chaos
#                     property suite (including the 1024-core
#                     cluster-outage run), the 1024-core cascading
#                     recovery-chaos smoke and the closed-loop
#                     recovery-latency study (the closed loop must never
#                     lose to the open loop), the 512/1024-core
#                     hier-vs-mesh scale-up claim and smoke, fault-sweep
#                     smoke, the full golden-report determinism sweep,
#                     and the end-to-end trace-replay equivalence check
#                     (record -> replay -> byte-for-byte report diff).
#
# The lint step writes JSON + SARIF reports to target/lint/ so CI can
# upload them as build artifacts; it exits non-zero on any
# error-severity finding, which fails the gate. It replaces the old
# clippy unwrap/expect grep gate: the sim-unwrap rule knows about
# #[cfg(test)] regions and justified suppressions, so the whole
# workspace is covered, not just three crates' --lib targets.
set -euo pipefail
cd "$(dirname "$0")/.."

NIGHTLY=0
for arg in "$@"; do
  case "$arg" in
    --nightly) NIGHTLY=1 ;;
    *) echo "usage: ci.sh [--nightly]" >&2; exit 2 ;;
  esac
done

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== nocstar-lint (determinism & simulator invariants) =="
cargo run --release -q -p nocstar-lint -- \
  --json-out target/lint/report.json \
  --sarif-out target/lint/report.sarif
echo "   lint artifacts: target/lint/report.json, target/lint/report.sarif"

echo "== cargo clippy (deny warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo doc (deny warnings: broken links fail the gate) =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "== cargo build --release =="
cargo build --workspace --release

echo "== tier-1 tests =="
cargo test -q --workspace

echo "== trace subsystem: round-trip + golden fixture =="
cargo test -q --test trace_replay

if [[ "$NIGHTLY" == "1" ]]; then
  echo "== nightly: chaos property suite =="
  cargo test -q --test chaos

  echo "== nightly: 1024-core hierarchical-fabric chaos (cluster outage) =="
  cargo test -q --test chaos -- --ignored

  echo "== nightly: recovery-chaos smoke (1024-core cascading schedule) =="
  # The test itself asserts a non-empty recovered-translation count and
  # repeat byte-identity; release mode keeps the smoke under a minute.
  cargo test -q --release --test chaos \
    nightly_cascading_recovery_storm_at_1024_cores -- --ignored

  echo "== nightly: recovery-latency study =="
  cargo run --release -q -p nocstar-bench --bin recovery -- --quick
  # The closed loop must never lose to the open loop: every scenario's
  # latency saving must be positive.
  python3 - bench_results/recovery.csv <<'EOF'
import csv, sys

with open(sys.argv[1]) as f:
    savings = [float(r["latency saved"].rstrip("%")) for r in csv.DictReader(f)]
if not savings:
    sys.exit("recovery gate: FAILED — no scenarios in the recovery study")
if min(savings) <= 0.0:
    sys.exit(
        "recovery gate: FAILED — the closed loop lost to the open loop "
        f"on at least one scenario (min saving {min(savings)}%)"
    )
print(f"   recovery gate: OK (savings {min(savings)}% .. {max(savings)}%)")
EOF

  echo "== nightly: scale-up claim (hier vs flat mesh at 512/1024 cores) =="
  cargo test -q --release --test paper_claims claim_hier_beats_flat_mesh_at_scale -- --ignored

  echo "== nightly: 1024-core scale-up smoke =="
  cargo run --release -q -p nocstar-bench --bin scaleup -- --quick

  echo "== nightly: fault-sweep smoke =="
  cargo run --release -q -p nocstar-bench --bin faultsweep -- --quick

  echo "== nightly: golden-report determinism sweep =="
  cargo test -q --test golden_reports
  cargo test -q --test determinism

  echo "== nightly: trace-replay equivalence (live vs recorded, real binaries) =="
  # Capture the redis preset with the simulator's defaults, then run the
  # replay binary twice — once live, once from the file — and demand
  # byte-identical report JSON. Proves the whole record -> NCT ->
  # FileTrace -> SimReport pipeline outside the test harness.
  TRACE_TMP="$(mktemp -d)"
  trap 'rm -rf "$TRACE_TMP"' EXIT
  cargo run --release -q -p nocstar-trace -- record \
    --preset redis --threads 4 --events 1200 --out "$TRACE_TMP/redis.nct"
  NOCSTAR_OUT="$TRACE_TMP/live" cargo run --release -q -p nocstar-bench --bin replay -- \
    --cores 4 --org nocstar --preset redis --warmup 200 --measure 500 >/dev/null
  NOCSTAR_OUT="$TRACE_TMP/replayed" cargo run --release -q -p nocstar-bench --bin replay -- \
    --cores 4 --org nocstar --warmup 200 --measure 500 \
    --trace-file "$TRACE_TMP/redis.nct" >/dev/null
  diff "$TRACE_TMP/live/replay.report.json" "$TRACE_TMP/replayed/replay.report.json"
  echo "   live and replayed reports are byte-identical"

  echo "== nightly: golden fixture replays to the golden report =="
  NOCSTAR_OUT="$TRACE_TMP/fixture" cargo run --release -q -p nocstar-bench --bin replay -- \
    --cores 4 --org nocstar --warmup 200 --measure 500 \
    --trace-file tests/golden/example.nct >/dev/null
  diff "$TRACE_TMP/fixture/replay.report.json" tests/golden/replay_example.json
  echo "   fixture replay matches tests/golden/replay_example.json"

  echo "Nightly CI gate passed."
else
  echo "PR CI gate passed."
fi
