#!/usr/bin/env bash
# Local CI gate for the workspace. Run from anywhere; it cd's to the
# repo root. Fails fast on the first broken step.
#
# Two modes (ROADMAP "CI timing budget"):
#
#   ci.sh             fast PR gate: fmt + determinism lint + clippy +
#                     doc + build + tier-1 tests. `cargo test --workspace`
#                     runs every non-ignored test once, including the
#                     golden-report, determinism, chaos and NCT trace
#                     round-trip suites. Target: a few minutes.
#   ci.sh --nightly   everything above plus the slow runs that the fast
#                     gate skips, each exactly once: the 1024-core
#                     cluster-outage and cascading recovery-chaos runs
#                     (ignored in tier-1), the 2,048-case differential
#                     check of the flit-mesh engine (contended mesh and
#                     SMART) against its test-only reference, the
#                     2,048-case differential check of the LLC's
#                     first-touch sets against the flat layout, the
#                     2,048-case check of the NCT replay reader on
#                     bit-flipped, truncated and checksum-recomputed
#                     files against the whole-file decoder, the
#                     closed-loop recovery-latency study (the closed loop
#                     must never lose to the open loop), the 512/1024-core
#                     hier-vs-mesh scale-up claim and smoke, fault-sweep
#                     smoke, the end-to-end trace-replay equivalence
#                     check (record -> replay -> byte-for-byte report diff),
#                     and hostbench's correctness gate: its self-tests
#                     (layer replays on every fabric), one traced
#                     256-core circuit run and untraced 256-core mesh
#                     GUPS, 256-core hier storm and 1024-core sampled
#                     hier runs, whose report digests must match.
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

echo "== non-test lines under crates/ (information only, not a gate) =="
scripts/loc.sh --total crates

echo "== tier-1 tests =="
cargo test -q --workspace

if [[ "$NIGHTLY" == "1" ]]; then
  echo "== nightly: 1024-core hierarchical-fabric chaos (cluster outage) =="
  cargo test -q --test chaos whole_cluster_outage_at_scale_is_deterministic_and_lossless -- --ignored

  echo "== nightly: recovery-chaos smoke (1024-core cascading schedule) =="
  # The test itself asserts a non-empty recovered-translation count and
  # repeat byte-identity; release mode keeps the smoke under a minute.
  cargo test -q --release --test chaos \
    nightly_cascading_recovery_storm_at_1024_cores -- --ignored

  echo "== nightly: flit-mesh engine vs its two-stepper reference (2,048 cases) =="
  cargo test -q --release -p nocstar-noc --lib prop_engine_matches_reference_nightly -- --ignored

  echo "== nightly: first-touch cache sets vs the flat layout (2,048 cases) =="
  cargo test -q --release -p nocstar-mem --lib prop_first_touch_matches_flat_nightly -- --ignored

  echo "== nightly: NCT replay reader on damaged files vs the whole-file decoder (2,048 cases) =="
  cargo test -q --release --test nct_reader prop_mutated_files_never_panic_nightly -- --ignored

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

  echo "== nightly: hostbench self-tests and circuit / mesh / storm / hier-1024 digest gates =="
  cargo test -q --release --offline --manifest-path hostbench/Cargo.toml
  # hostbench_gate WORKLOAD TRACE: one short hostbench run whose last
  # line, the result JSON, must show every run's report digest (and a
  # traced run's self-checks) passing.
  hostbench_gate() {
    cargo run --release --offline --quiet --manifest-path hostbench/Cargo.toml -- \
      --workload "$1" --seconds 3 --trace "$2" | tee "$TRACE_TMP/hostbench.out"
    python3 - "$TRACE_TMP/hostbench.out" "$1" <<'EOF_HB'
import json, sys

with open(sys.argv[1]) as f:
    result = json.loads(f.read().splitlines()[-1])
if result.get("correct") is not True or result.get("failed") != 0:
    sys.exit(
        "hostbench gate ({}): FAILED — correct={} failed={}".format(
            sys.argv[2], result.get("correct"), result.get("failed")
        )
    )
print(f"   hostbench gate ({sys.argv[2]}): OK ({result['attempted']} runs, 0 failed)")
EOF_HB
  }
  hostbench_gate circuit-redis-256 1
  # Mesh GUPS and the hier storm gate the transaction table and the page
  # table: demand mapping and walks on every access, and (storm only)
  # promote/demote shootdowns.
  hostbench_gate mesh-gups-256 0
  hostbench_gate hier-storm-256 0
  # The 1024-core sampled run gates the cache hierarchy at full scale:
  # most of its accesses warm the caches on the fast-forward path.
  hostbench_gate hier-replay-sampled-1024 0

  echo "Nightly CI gate passed."
else
  echo "PR CI gate passed."
fi
