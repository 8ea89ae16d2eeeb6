#!/usr/bin/env bash
# The tier-1 gate: everything here must pass before a PR lands.
# The workspace builds fully offline — no registry access is assumed.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo fmt --check

# The model crate only measures: its normal (non-dev, non-build)
# dependencies are exactly the metrics, analog, logic and CMOS crates, so
# a re-added edge to the store, the fault injector or any other crate
# fails here.
cargo metadata --offline --no-deps --format-version 1 | python3 -c '
import json, sys
meta = json.load(sys.stdin)
core = next(p for p in meta["packages"] if p["name"] == "obd-core")
deps = {d["name"] for d in core["dependencies"] if d["kind"] is None}
expected = {"obd-metrics", "obd-spice", "obd-logic", "obd-cmos"}
assert deps == expected, f"obd-core dependencies {sorted(deps)} != {sorted(expected)}"
print("obd-core dependency graph ok:", ", ".join(sorted(deps)))
'
cargo build --release --offline --workspace
# Every example must build and run to a zero exit: the examples are the
# only callers of parts of the public API (prognosis, diagnosis).
for example in examples/*.rs; do
    cargo run --release --offline -q --example "$(basename "$example" .rs)" > /dev/null
done
cargo test -q --offline --workspace
cargo clippy --offline --workspace --all-targets -- -D warnings
# Broken intra-doc links (e.g. to a renamed entry point) fail the gate.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --offline

# Run the test suite once more at release optimization with debug
# assertions enabled: the solver guards carry debug_assert!s that the
# plain release profile compiles out, and the dev profile (used by the
# plain `cargo test` above) doesn't exercise the optimized code paths.
# Separate target dir so the main release artifact cache stays warm.
RUSTFLAGS="-C debug-assertions=on" cargo test -q --offline --workspace \
    --release --target-dir target/debug-assert

# Step-size oracle: Table 1 regenerated on a fixed 0.25 ps grid (the
# predictor, and with it the step control, off) must keep every verdict
# of the default adaptive-step run and move no delay by more than 0.1 ps.
cargo test --release --offline -q -p obd-core --test table1_step_oracle -- --ignored

# Grading speed floor, timed at release optimization: packed serial beats
# the scalar reference on every circuit with >= 40 gates, the best packed
# speedup is >= 8x, the largest circuit has >= 2,000 gates and >= 1,000
# faults, mult16 super-lane rows are >= 2x width-1 rows, and the pool is
# >= 2x serial on hosts with >= 4 threads.
cargo test --release --offline -q -p obd-atpg --test grading_speed -- --ignored

# The rendered Table 1 and Fig. 9 table must stay byte-identical to the
# committed copies: a change to stepping, stopping or measurement may move
# a delay by hundredths of a picosecond, never a printed digit.
./target/release/repro table1
./target/release/repro fig9
git diff --exit-code results/table1.txt results/fig9.txt

# The grading reports (test-generation coverage, BIST, clock sweep, scan)
# must stay byte-identical to the committed copies: every coverage figure
# in them comes from the packed fault-grading engine, so a grading change
# that moves one detection shows here.
./target/release/repro tpg
./target/release/repro bist
./target/release/repro clock
./target/release/repro scan
git diff --exit-code results/tpg_comparison.txt results/bist.txt \
    results/clock_sweep.txt results/scan.txt

# The reports EXPERIMENTS.md quotes (Fig. 4 curves, excitation sets, EM
# contrast, detection windows, IDDQ and process variation) must stay
# byte-identical to the committed copies, so a quoted figure cannot drift
# from its source.
for verb in fig4 excitation em window iddq variation; do
    ./target/release/repro "$verb" > /dev/null
done
git diff --exit-code results/fig4_nmos.csv results/fig4_pmos.csv \
    results/excitation.txt results/em_contrast.txt \
    results/detection_window.txt results/iddq.txt results/variation.txt

# E9's deterministic counts (gates, stuck-at and OBD tests, aborted
# faults) must stay byte-identical to the committed copy; the timings
# stay in the uncommitted atpg_scaling.txt next to it.
./target/release/repro scaling > /dev/null
git diff --exit-code results/atpg_scaling_counts.txt

# Smoke the observability layer end to end: `repro stats` must emit a
# parseable metrics snapshot with the key engine counters nonzero. Its
# §4.3 statistics (sites, testable faults, minimal transition sets) come
# from the pooled detection matrix and must stay byte-identical to the
# committed copy.
./target/release/repro stats
git diff --exit-code results/stats.txt
python3 - <<'EOF'
import json

with open("results/METRICS_run.json") as f:
    snap = json.load(f)
counters = snap["counters"]
for key in ("spice.newton_iterations", "linalg.lu_factorizations",
            "logic.soa_gates_simulated"):
    assert counters.get(key, 0) > 0, f"expected nonzero counter {key}: {counters.get(key)}"
for key in ("fleet.devices_simulated", "fleet.bist_sessions", "fleet.detections"):
    assert counters.get(key, 0) > 0, f"expected nonzero counter {key}: {counters.get(key)}"
gauges = snap["gauges"]
assert gauges.get("logic.levels", 0) > 0, f"levelized netlist depth not published: {gauges}"
assert gauges.get("atpg.superlane_width", 0) >= 1, f"super-lane width not published: {gauges}"
assert "fleet.escape_rate" in gauges, f"fleet escape rate not published: {gauges}"
# Cone propagation sits on the grading hot path. Nearly every block the
# stats flow grades belongs to its mult16 grading call (2,624 gates). A
# full forced sweep per (fault, block) pair costs the whole circuit once
# or twice per pair (about 3,000 gates per graded block on this flow);
# walking only the gates a fault effect reaches stays well below one
# circuit's worth.
MULT16_GATES = 2624
gates_per_block = counters["logic.soa_gates_simulated"] / counters["atpg.blocks_graded"]
assert gates_per_block < MULT16_GATES, \
    f"{gates_per_block:.1f} gates simulated per graded block: is the cone kernel off the hot path?"
# The LU workspace replays its recorded nonzero structure on the Newton
# path: only each solver's first factorization and the rare pivot change
# run the dense kernel and rebuild the record.
reuse = counters.get("linalg.symbolic_reuse", 0)
builds = counters.get("linalg.symbolic_builds", 0)
assert reuse > 0, "no LU factorization replayed its structure: is the replay off the Newton path?"
reuse_ratio = reuse / (reuse + builds)
assert reuse_ratio >= 0.9, \
    f"LU replay ratio {reuse_ratio:.3f} ({reuse} replays, {builds} builds) is below 0.9"
assert "fleet.detection_latency_mh" in snap["histograms"], "fleet latency histogram missing"
# The persistence layer runs inside the stats flow: the checkpointed
# mini fleet and its resume must leave their marks.
for key in ("store.puts", "store.hits"):
    assert counters.get(key, 0) > 0, f"expected nonzero counter {key}: {counters.get(key)}"
# The mini Monte Carlo campaign runs inside the stats flow too.
for key in ("monte.samples", "monte.measurements"):
    assert counters.get(key, 0) > 0, f"expected nonzero counter {key}: {counters.get(key)}"
print(
    "METRICS_run.json ok:",
    f"newton_iterations={counters['spice.newton_iterations']}",
    f"lu_factorizations={counters['linalg.lu_factorizations']}",
    f"soa_gates_simulated={counters['logic.soa_gates_simulated']}",
    f"superlane_width={gauges['atpg.superlane_width']:.0f}",
    f"gates_per_block={gates_per_block:.1f}",
    f"lu_replay_ratio={reuse_ratio:.3f}",
    f"fleet_devices={counters['fleet.devices_simulated']}",
)
EOF

# Smoke the fault-injection harness: a fixed-seed chaos campaign must
# inject a substantial fault load across every layer with zero panics
# and exact accounting (injected == recovered + degraded + reported).
OBD_CHAOS_SEED=0xC0FFEE ./target/release/repro chaos
python3 - <<'EOF'
import json

with open("results/CHAOS_run.json") as f:
    run = json.load(f)
assert run["panics"] == 0, f"chaos campaign panicked: {run['panics']}"
assert run["accounted"], "chaos accounting did not balance"
assert run["injected_total"] >= 200, f"too few injections: {run['injected_total']}"
assert run["recovered_total"] > 0, "no injection was recovered"
layers = {l["layer"] for l in run["layers"] if l["injected"] > 0}
assert layers == {"linalg", "spice", "core", "fleet", "store", "monte"}, \
    f"layers missing injections: {layers}"
points = {
    "linalg.forced_singular", "linalg.forced_nonfinite",
    "spice.newton_nan", "spice.newton_stall", "spice.tran_step_reject",
    "fleet.device_fault", "fleet.sched_skew", "fleet.test_corrupt",
    "store.write_torn", "store.read_corrupt",
}
assert set(run["points"]) == points, \
    f"injection points differ: {sorted(set(run['points']) ^ points)}"
print(
    "CHAOS_run.json ok:",
    f"injected={run['injected_total']}",
    f"recovered={run['recovered_total']}",
    "panics=0",
)
EOF

# Smoke the Monte Carlo variation verb: a fixed seed must produce a
# byte-identical MONTE_run.json at any thread count (counter-seeded
# streams, per-index result slots), with percentile and detection
# fields present and exact corner accounting for every probe.
OBD_MONTE_SAMPLES=3 OBD_MONTE_STEP_PS=8 OBD_MONTE_THREADS=1 \
    ./target/release/repro monte
mv results/MONTE_run.json results/MONTE_run.t1.json
OBD_MONTE_SAMPLES=3 OBD_MONTE_STEP_PS=8 OBD_MONTE_THREADS=4 \
    ./target/release/repro monte
cmp results/MONTE_run.t1.json results/MONTE_run.json \
    || { echo "MONTE_run.json differs between 1 and 4 threads"; exit 1; }
rm results/MONTE_run.t1.json
python3 - <<'EOF'
import json

with open("results/MONTE_run.json") as f:
    run = json.load(f)
assert run["engine"] == "monte" and run["samples"] == 3
assert run["degraded_total"] == 0, f"corners degraded without chaos armed: {run}"
labels = [p["label"] for p in run["probes"]]
assert "fault_free_fall" in labels and "mbd2_nmos_fall" in labels, labels
for p in run["probes"]:
    for key in ("p05_ps", "p50_ps", "p95_ps", "stuck", "degraded", "detected",
                "detect_prob", "delays_ps"):
        assert key in p, f"{p['label']}: missing field {key}"
    assert p["stuck"] + p["degraded"] + len(p["delays_ps"]) == run["samples"], \
        f"{p['label']}: corner accounting broken"
print(f"MONTE_run.json ok: {run['samples']} corners x {len(run['probes'])} probes, "
      "byte-identical across thread counts")
EOF

# Smoke the fleet workload end to end. First the determinism contract at
# a reduced fleet size: the same seed must produce byte-identical
# FLEET_run.json across thread counts. Then the full production run —
# >= 1,000,000 devices, zero panics (set -e catches a nonzero exit),
# finite escape rate and latency percentiles — left last so the
# artifact it leaves is the million-device one, which must match the
# committed copy byte for byte.
OBD_FLEET_SEED=0x0BDF1EE7 OBD_FLEET_DEVICES=50021 OBD_FLEET_THREADS=1 \
    ./target/release/repro fleet
mv results/FLEET_run.json results/FLEET_run.t1.json
OBD_FLEET_SEED=0x0BDF1EE7 OBD_FLEET_DEVICES=50021 OBD_FLEET_THREADS=4 \
    ./target/release/repro fleet
cmp results/FLEET_run.t1.json results/FLEET_run.json \
    || { echo "FLEET_run.json differs between 1 and 4 threads"; exit 1; }
rm results/FLEET_run.t1.json
echo "fleet determinism ok: 1-thread and 4-thread artifacts are byte-identical"
./target/release/repro fleet
git diff --exit-code results/FLEET_run.json
python3 - <<'EOF'
import json, math

with open("results/FLEET_run.json") as f:
    run = json.load(f)
assert run["devices"] >= 1_000_000, f"fleet below scale: {run['devices']}"
assert run["devices_simulated"] == run["devices"], "devices lost in flight"
assert run["poisoned"] == 0, f"chaos disarmed yet devices poisoned: {run['poisoned']}"
assert run["healthy"] + run["afflicted"] == run["devices"], "fate partition broken"
assert run["detected"] + run["escapes"] + run["censored"] == run["afflicted"], \
    "afflicted partition broken"
assert math.isfinite(run["escape_rate"]) and 0.0 <= run["escape_rate"] <= 1.0, \
    f"escape_rate not a probability: {run['escape_rate']}"
assert run["tests_per_device"] > 0, "no BIST sessions ran"
lat = run["detection_latency_hours"]
for key in ("p50", "p95", "p99"):
    assert math.isfinite(lat[key]) and lat[key] >= 0, f"latency {key} bad: {lat[key]}"
assert lat["p50"] <= lat["p95"] <= lat["p99"] <= lat["max"], f"percentiles out of order: {lat}"
assert 0 <= lat["mean"] <= lat["max"], f"mean outside [0, max]: {lat}"
assert lat["count"] == run["detected"], "latency count != detections"
print(
    "FLEET_run.json ok:",
    f"devices={run['devices']}",
    f"escape_rate={run['escape_rate']:.4f}",
    f"tests_per_device={run['tests_per_device']:.1f}",
    f"latency_p50={lat['p50']:.2f}h p95={lat['p95']:.2f}h p99={lat['p99']:.2f}h",
)
EOF

echo "check.sh: all gates passed"
