#!/usr/bin/env bash
# Local CI gate for the workspace. Run from anywhere; it cd's to the
# repo root. Fails fast on the first broken step.
#
# Two modes (ROADMAP "CI timing budget"):
#
#   ci.sh             fast PR gate: fmt + clippy + the clippy fixture
#                     check + doc + build + a type check of hostbench,
#                     the benchmark package outside the workspace,
#                     with its self-tests (so a
#                     removed public item it names fails here, not
#                     only at --nightly) + a few-second smoke of the one bench binary,
#                     `nocstar-bench <step> [flags]` (a faulted
#                     slice_ubench must report denied setups in its
#                     --metrics-json file; a misspelt flag, a fault plan
#                     naming a link the system lacks, an unknown step,
#                     no step, and another step's flag (`fig02 --cores
#                     4`) must each exit 2; and `ablation --quick` must
#                     rewrite tests/golden/ablation_bus.csv byte for
#                     byte: the only run that drives the shared bus
#                     outside its unit tests) + tier-1 tests + the
#                     sampled goldens and tests/sampled.rs pinned to one
#                     CPU (skipped where taskset is missing).
#                     `cargo test --workspace`
#                     runs every non-ignored test once, including the
#                     golden-report, determinism, chaos and NCT trace
#                     round-trip suites. Target: a few minutes.
#   ci.sh --nightly   everything above plus the slow runs that the fast
#                     gate skips, each exactly once: the 1024-core
#                     cluster-outage and cascading recovery-chaos runs
#                     (ignored in tier-1), the 2,048-case differential
#                     check of the flit-mesh engine (contended mesh and
#                     SMART) against its test-only reference, the
#                     2,048-case differential check of the circuit
#                     fabric's board arbiter against the per-link
#                     arbiter it replaced (circuit/reference.rs), the
#                     2,048-case differential check of the hier
#                     fabric's cluster arbiters against the bus and
#                     crossbar they replaced, the
#                     2,048-case differential check of the LLC's
#                     first-touch sets against the flat layout, the
#                     2,048-case differential check of the flat TLB
#                     array against its per-set reference, the
#                     2,048-case differential check of the calendar
#                     queue against a list sorted by (cycle, push
#                     order), the
#                     2,048-case check of the NCT replay reader on
#                     bit-flipped, truncated and checksum-recomputed
#                     files against the whole-file decoder, the
#                     2,048-case never-panic check of the fault-plan,
#                     recovery-policy, sample-spec and JSON parsers, the
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
# The determinism bans are clippy's (DESIGN.md §10): the root
# clippy.toml bans hash-ordered collections, host clocks and RandomState,
# and each sim crate's lib.rs denies unwrap/expect outside test code, so
# `cargo clippy -- -D warnings` fails on any of them, and on a stale
# `#[expect]` waiver. tests/determinism_gates.rs (tier-1) pins which
# crates take those bans. The clippy fixture step proves the bans still
# bite: every known-bad snippet under tests/clippy_fixtures must draw
# exactly its marked lints, and every known-good one none.
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

echo "== cargo clippy (deny warnings; clippy.toml holds the determinism bans) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== clippy fixtures: each bad snippet draws its marked lints, each good one none =="
# The fixture package sits outside the workspace; CLIPPY_CONF_DIR points
# clippy at the root clippy.toml, the configuration the workspace uses.
# Bad targets fail to build, so clippy's exit status is not the verdict:
# the diagnostics are. Each `//~ <lint>` marker in a bad.rs must be
# reported on its line, and nothing else may be reported anywhere.
CLIPPY_CONF_DIR="$PWD" cargo clippy --offline --quiet \
  --manifest-path tests/clippy_fixtures/Cargo.toml \
  --target-dir target/clippy-fixtures --all-targets --keep-going \
  --message-format=json -- -D warnings >target/clippy-fixtures.json 2>/dev/null || true
python3 - tests/clippy_fixtures target/clippy-fixtures.json <<'EOF'
import glob, json, os, sys

root, log = sys.argv[1], sys.argv[2]
reported = set()
with open(log) as f:
    for line in f:
        msg = json.loads(line)
        if msg.get("reason") != "compiler-message":
            continue
        diag = msg["message"]
        code = (diag.get("code") or {}).get("code") or diag["message"]
        for span in diag["spans"]:
            if span["is_primary"]:
                path = os.path.relpath(os.path.join(root, span["file_name"]), root)
                reported.add((path, span["line_start"], code))
expected = set()
bad_files = []
for path in sorted(glob.glob(os.path.join(root, "*", "*.rs"))):
    rel = os.path.relpath(path, root)
    with open(path) as f:
        for n, text in enumerate(f, 1):
            if "//~" in text:
                expected.update((rel, n, code) for code in text.split("//~", 1)[1].split())
    if rel.endswith("bad.rs"):
        bad_files.append(rel)
problems = [f"{p}:{n}: expected `{c}`, not reported" for p, n, c in sorted(expected - reported)]
problems += [f"{p}:{n}: unexpected `{c}`" for p, n, c in sorted(reported - expected)]
problems += [f"{b}: no `//~` marker" for b in bad_files if not any(e[0] == b for e in expected)]
if problems or not bad_files:
    sys.exit("clippy fixtures: FAILED\n  " + "\n  ".join(problems or ["no bad fixtures"]))
print(f"   clippy fixtures: OK ({len(bad_files)} bad files, {len(expected)} expected lints)")
EOF

echo "== cargo doc (deny warnings: broken links fail the gate) =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "== cargo build --release =="
cargo build --workspace --release

echo "== hostbench type-checks against today's public API =="
cargo check --release --offline --quiet --manifest-path hostbench/Cargo.toml --all-targets

echo "== harness smoke: a paper figure honours --faults and --metrics-json =="
# Every experiment runs through the harness's one entry point, so a
# whole-run setup-denial plan must reach slice_ubench's NOCSTAR runs and
# show up in the per-run reports written to the --metrics-json path.
rm -rf target/bench-smoke
NOCSTAR_OUT=target/bench-smoke cargo run --release -q -p nocstar-bench -- slice_ubench \
  --quick --faults 'deny@0-100000000' --metrics-json target/bench-smoke/slice_ubench.json >/dev/null
python3 - target/bench-smoke/slice_ubench.json <<'EOF'
import json, sys

with open(sys.argv[1]) as f:
    reports = json.load(f)
if not isinstance(reports, list) or not reports:
    sys.exit("harness smoke: FAILED — no per-run reports in the --metrics-json file")
denied = [r["metrics"].get("faults.denied_setups", {}).get("counter", 0) for r in reports]
if max(denied) == 0:
    sys.exit("harness smoke: FAILED — no report saw a denied setup under --faults")
print(f"   harness smoke: OK ({len(reports)} reports, up to {max(denied)} denied setups)")
EOF

echo "== harness smoke: bad command lines are refused with exit 2 =="
# A misspelt flag must stop the run, not run fault-free; a fault-plan
# clause outside the simulated system would inject nothing; an unknown
# step, no step and another step's flag must each be named before any run.
refused() {
  local status=0 line="nocstar-bench ${*:-(no step)}"
  NOCSTAR_OUT=target/bench-smoke cargo run --release -q -p nocstar-bench -- "$@" \
    >/dev/null 2>&1 || status=$?
  if [[ "$status" != 2 ]]; then
    echo "harness smoke: FAILED — $line exited $status, not 2" >&2
    exit 1
  fi
  echo "   harness smoke: OK ($line refused with exit 2)"
}
refused slice_ubench --quick --fualts 'deny@0-100000000'
refused slice_ubench --quick --faults 'link:99999@0-100=off'
refused fig99 --quick
refused
refused fig02 --quick --cores 4

echo "== harness smoke: the bus-vs-fabric ablation matches its golden CSV =="
# The shared bus has no organization of its own, so this sweep of uniform
# random traffic is the only run that reaches BusNoc outside its tests.
rm -rf target/ablation-smoke
NOCSTAR_OUT=target/ablation-smoke cargo run --release -q -p nocstar-bench -- ablation \
  --quick >/dev/null
diff tests/golden/ablation_bus.csv target/ablation-smoke/ablation_bus.csv
echo "   harness smoke: OK (ablation_bus.csv unchanged)"

echo "== non-test lines under crates/ (information only, not a gate) =="
scripts/loc.sh --total crates

echo "== tier-1 tests =="
cargo test -q --workspace

echo "== sampled goldens and tests/sampled.rs on one CPU =="
# A fast-forward leg warms the caches on a helper thread; pinned to one
# CPU, the helper and the leg's own thread take turns, so the reports
# must stay byte-identical and every run (a panicking one included) must
# still finish.
if command -v taskset >/dev/null 2>&1; then
  taskset -c 0 cargo test -q --test golden_reports sampled
  taskset -c 0 cargo test -q --test sampled
else
  echo "   skipped: taskset not found"
fi

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

  echo "== nightly: circuit board arbiter vs the per-link arbiter it replaced (2,048 cases) =="
  cargo test -q --release -p nocstar-noc --lib prop_board_arbiter_matches_reference_nightly -- --ignored

  echo "== nightly: hier cluster arbiters vs the bus and crossbar they replaced (2,048 cases) =="
  cargo test -q --release -p nocstar-noc --lib prop_arbiter_matches_reference_nightly -- --ignored

  echo "== nightly: first-touch cache sets vs the flat layout (2,048 cases) =="
  cargo test -q --release -p nocstar-mem --lib prop_first_touch_matches_flat_nightly -- --ignored

  echo "== nightly: flat TLB array vs its per-set reference (2,048 cases) =="
  cargo test -q --release -p nocstar-tlb --lib prop_flat_matches_reference_nightly -- --ignored

  echo "== nightly: calendar queue vs a list sorted by (cycle, push order) (2,048 cases) =="
  cargo test -q --release -p nocstar-types --lib prop_calendar_matches_sorted_reference_nightly -- --ignored

  echo "== nightly: NCT replay reader on damaged files vs the whole-file decoder (2,048 cases) =="
  cargo test -q --release --test nct_reader prop_mutated_files_never_panic_nightly -- --ignored

  echo "== nightly: fault, recovery, sample and JSON grammars never panic (2,048 cases) =="
  cargo test -q --release --test grammars prop_grammars_never_panic_nightly -- --ignored

  echo "== nightly: recovery-latency study =="
  cargo run --release -q -p nocstar-bench -- recovery --quick
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
  cargo run --release -q -p nocstar-bench -- scaleup --quick

  echo "== nightly: fault-sweep smoke =="
  cargo run --release -q -p nocstar-bench -- faultsweep --quick

  echo "== nightly: trace-replay equivalence (live vs recorded, real binaries) =="
  # Capture the redis preset with the simulator's defaults, then run the
  # replay step twice — once live, once from the file — and demand
  # byte-identical report JSON. Proves the whole record -> NCT ->
  # FileTrace -> SimReport pipeline outside the test harness.
  TRACE_TMP="$(mktemp -d)"
  trap 'rm -rf "$TRACE_TMP"' EXIT
  cargo run --release -q -p nocstar-trace -- record \
    --preset redis --threads 4 --events 1200 --out "$TRACE_TMP/redis.nct"
  NOCSTAR_OUT="$TRACE_TMP/live" cargo run --release -q -p nocstar-bench -- replay \
    --cores 4 --org nocstar --preset redis --warmup 200 --measure 500 >/dev/null
  NOCSTAR_OUT="$TRACE_TMP/replayed" cargo run --release -q -p nocstar-bench -- replay \
    --cores 4 --org nocstar --warmup 200 --measure 500 \
    --trace-file "$TRACE_TMP/redis.nct" >/dev/null
  diff "$TRACE_TMP/live/replay.report.json" "$TRACE_TMP/replayed/replay.report.json"
  echo "   live and replayed reports are byte-identical"

  echo "== nightly: golden fixture replays to the golden report =="
  NOCSTAR_OUT="$TRACE_TMP/fixture" cargo run --release -q -p nocstar-bench -- replay \
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
