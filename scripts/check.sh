#!/usr/bin/env bash
# The tier-1 gate: everything here must pass before a PR lands.
# The workspace builds fully offline — no registry access is assumed.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo fmt --check
cargo build --release --offline --workspace
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

# Smoke the observability layer end to end: `repro stats` must emit a
# parseable metrics snapshot with the key engine counters nonzero.
./target/release/repro stats
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
assert "fleet.detection_latency_mh" in snap["histograms"], "fleet latency histogram missing"
# The persistence layer and the serve front-end run inside the stats
# flow: the store round-trip and the mini batch must leave their marks.
for key in ("store.puts", "store.hits", "core.delay_store_hits",
            "serve.jobs_done", "serve.jobs_degraded"):
    assert counters.get(key, 0) > 0, f"expected nonzero counter {key}: {counters.get(key)}"
# The supervision layer runs chaos-free inside the stats flow: a ledger
# round trip (replays), a stale-heartbeat grade job (one watchdog
# requeue, then quarantine) and a store compaction with dead records.
for key in ("serve.jobs_replayed", "serve.retries", "serve.watchdog_restarts",
            "serve.dead_lettered", "store.compactions",
            "store.compact_reclaimed_bytes"):
    assert counters.get(key, 0) > 0, f"expected nonzero counter {key}: {counters.get(key)}"
# The size-capped maintenance pass and the mini Monte Carlo campaign
# run inside the stats flow too.
for key in ("store.evicted_frames", "monte.samples", "monte.measurements"):
    assert counters.get(key, 0) > 0, f"expected nonzero counter {key}: {counters.get(key)}"
assert "serve.job_wall_ms" in snap["histograms"], "serve wall-time histogram missing"
print(
    "METRICS_run.json ok:",
    f"newton_iterations={counters['spice.newton_iterations']}",
    f"lu_factorizations={counters['linalg.lu_factorizations']}",
    f"soa_gates_simulated={counters['logic.soa_gates_simulated']}",
    f"superlane_width={gauges['atpg.superlane_width']:.0f}",
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
assert layers == {"linalg", "spice", "core", "atpg", "fleet", "store", "serve",
                  "monte"}, \
    f"layers missing injections: {layers}"
assert "monte.params_corrupt" in run["points"], "monte.params_corrupt point missing"
serve = next(l for l in run["layers"] if l["layer"] == "serve")
assert serve["panics"] == 0 and serve["injected"] == \
    serve["recovered"] + serve["degraded"] + serve["reported"], \
    f"serve hang ledger not exact: {serve}"
assert "serve.worker_hang" in run["points"], "serve.worker_hang point missing"
assert "store.compact_torn" in run["points"], "store.compact_torn point missing"
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

# Smoke the batch front-end end to end: a mixed 12-job queue (Table 1,
# grading across four circuits, fleet slices, one poisoned job) must
# drain with zero panics, every job terminal, and exactly the poisoned
# job degraded. A second pass over the same queue must be served from
# the persistent store with byte-identical per-job artifacts.
rm -rf results/store.ci results/serve results/serve.cold
cat > results/serve_batch.ci.jsonl <<'EOF'
{"id": "t1", "kind": "table1", "resolution": "fast"}
{"id": "t2", "kind": "table1", "resolution": "fast"}
{"id": "t3", "kind": "table1", "resolution": "fast"}
{"id": "g1", "kind": "grade", "circuit": "c17", "tests": 64, "seed": 11}
{"id": "g2", "kind": "grade", "circuit": "rca32", "tests": 32, "seed": 12}
{"id": "g3", "kind": "grade", "circuit": "csa32", "tests": 32, "seed": 13}
{"id": "g4", "kind": "grade", "circuit": "mult16", "tests": 16, "seed": 14}
{"id": "g5", "kind": "grade", "circuit": "c17", "tests": 64, "seed": 11}
{"id": "f1", "kind": "fleet", "circuit": "c17", "devices": 900, "seed": 21}
{"id": "f2", "kind": "fleet", "circuit": "rca32", "devices": 600, "seed": 22}
{"id": "f3", "kind": "fleet", "circuit": "c17", "devices": 900, "seed": 21}
{"id": "px", "kind": "grade", "circuit": "no-such-circuit"}
EOF
OBD_STORE_DIR=results/store.ci ./target/release/repro serve results/serve_batch.ci.jsonl
python3 - <<'EOF'
import json

with open("results/SERVE_run.json") as f:
    run = json.load(f)
assert run["jobs_total"] >= 10, f"batch too small: {run['jobs_total']}"
assert run["panicked"] == 0, f"serve panicked: {run['panicked']}"
terminal = {"done", "degraded", "dead_lettered", "panicked"}
assert all(j["status"] in terminal for j in run["jobs"]), "non-terminal job state"
degraded = [j["id"] for j in run["jobs"] if j["status"] == "degraded"]
assert degraded == ["px"], f"only the poisoned job may degrade: {degraded}"
assert run["dead_lettered"] == 0, "no job should miss the generous deadline"
assert run["replayed"] == 0, "cold pass must compute everything"
assert run["store"]["enabled"], "serve must arm the persistent store"
assert run["store"]["puts"] > 0, "cold pass must populate the store"
print(f"SERVE_run.json cold ok: {run['jobs_total']} jobs, {run['done']} done, px degraded")
EOF
cp -r results/serve results/serve.cold
OBD_STORE_DIR=results/store.ci ./target/release/repro serve results/serve_batch.ci.jsonl
python3 - <<'EOF'
import json

with open("results/SERVE_run.json") as f:
    run = json.load(f)
assert run["panicked"] == 0 and run["done"] == run["jobs_total"] - 1
assert run["store"]["hits"] > 0, "warm pass must be served from the store"
assert run["replayed"] == run["jobs_total"], \
    f"warm pass must be served entirely from the checkpoint ledger: {run['replayed']}"
assert sum(j["store_hits"] for j in run["jobs"]) > 0, "no job saw an engine-side store hit"
print(f"SERVE_run.json warm ok: store_hits={run['store']['hits']}, "
      f"replayed={run['replayed']}")
EOF
diff -r results/serve.cold results/serve \
    || { echo "warm serve artifacts differ from cold"; exit 1; }
rm -rf results/serve.cold results/store.ci results/serve_batch.ci.jsonl
echo "serve smoke ok: mixed batch drained twice, warm pass ledger-replayed byte-identically"

# Crash-recovery smoke, serve: SIGKILL a supervised batch mid-run, then
# resume it from the checkpoint ledger. The recovered results/serve tree
# (artifacts, canonical results, dead-letter file) must be byte-identical
# to an uninterrupted reference run of the same batch.
rm -rf results/killtest
mkdir -p results/killtest/ref results/killtest/cut
cat > results/killtest/batch.jsonl <<'EOF'
{"id": "n0", "kind": "noop", "spins": 4096}
{"id": "m1", "kind": "grade", "circuit": "mult16", "tests": 48, "seed": 31}
{"id": "c1", "kind": "grade", "circuit": "csa32", "tests": 64, "seed": 32}
{"id": "px", "kind": "grade", "circuit": "no-such-circuit"}
{"id": "m2", "kind": "grade", "circuit": "mult16", "tests": 48, "seed": 33}
{"id": "f1", "kind": "fleet", "circuit": "c17", "devices": 400000, "seed": 34}
{"id": "c2", "kind": "grade", "circuit": "csa32", "tests": 64, "seed": 35}
EOF
cp results/killtest/batch.jsonl results/killtest/ref/
cp results/killtest/batch.jsonl results/killtest/cut/
REPRO="$PWD/target/release/repro"
(cd results/killtest/ref && OBD_SERVE_THREADS=1 "$REPRO" serve batch.jsonl > /dev/null)
(cd results/killtest/cut && exec env OBD_SERVE_THREADS=1 "$REPRO" serve batch.jsonl > /dev/null 2>&1) &
KILL_PID=$!
sleep 0.7
kill -9 "$KILL_PID" 2>/dev/null || true
wait "$KILL_PID" 2>/dev/null || true
(cd results/killtest/cut && OBD_SERVE_THREADS=1 "$REPRO" serve batch.jsonl > /dev/null)
diff -r results/killtest/ref/results/serve results/killtest/cut/results/serve \
    || { echo "killed+resumed serve artifacts differ from uninterrupted run"; exit 1; }
python3 - <<'EOF'
import json

with open("results/killtest/cut/results/SERVE_run.json") as f:
    run = json.load(f)
assert run["panicked"] == 0, f"resume panicked: {run['panicked']}"
assert run["replayed"] >= 1, "resume must replay at least the completed jobs"
print(f"serve kill smoke ok: {run['replayed']}/{run['jobs_total']} jobs replayed on resume")
EOF

# Crash-recovery smoke, fleet: SIGKILL a checkpointed million-device
# campaign mid-run, resume it, and require FLEET_run.json to match an
# uninterrupted reference run byte for byte.
FLEET_ENV="OBD_FLEET_SEED=0x0BDFEE1 OBD_FLEET_DEVICES=1000003 OBD_FLEET_CKPT=65536"
(cd results/killtest/ref && env $FLEET_ENV OBD_STORE_DIR=store "$REPRO" fleet > /dev/null)
(cd results/killtest/cut && exec env $FLEET_ENV OBD_STORE_DIR=store "$REPRO" fleet > /dev/null 2>&1) &
KILL_PID=$!
sleep 0.5
kill -9 "$KILL_PID" 2>/dev/null || true
wait "$KILL_PID" 2>/dev/null || true
(cd results/killtest/cut && env $FLEET_ENV OBD_STORE_DIR=store "$REPRO" fleet > /dev/null)
cmp results/killtest/ref/results/FLEET_run.json results/killtest/cut/results/FLEET_run.json \
    || { echo "killed+resumed FLEET_run.json differs from uninterrupted run"; exit 1; }
echo "fleet kill smoke ok: resumed campaign byte-identical at 1,000,003 devices"

# Smoke the store maintenance verb on the store the kill test left
# behind: stats, compact and verify must all succeed and report sane,
# parseable JSON (the kill may have left dead records and a stale lock).
(cd results/killtest/cut && "$REPRO" store stats > /dev/null \
    && "$REPRO" store compact > /dev/null && "$REPRO" store verify > /dev/null)
python3 - <<'EOF'
import json

with open("results/killtest/cut/results/STORE_run.json") as f:
    run = json.load(f)
assert run["action"] == "verify"
assert run["checked"] >= 1 and run["corrupt"] == 0, f"store verify failed: {run}"
print(f"store verb smoke ok: {run['valid']}/{run['checked']} records verified clean")
EOF
rm -rf results/killtest

# Smoke the analog-engine benchmark with the warm-start columns: the
# store-backed rerun of Table 1 must be served entirely from disk and
# reproduce the cold table byte-for-byte.
./target/release/repro bench
python3 - <<'EOF'
import json

with open("results/BENCH_spice.json") as f:
    bench = json.load(f)
store = bench["store"]
assert store["warm_store_hits"] > 0, f"warm Table 1 ran cold: {store}"
assert store["byte_identical"] is True, "warm Table 1 diverged from cold"
assert store["cold_s"] > 0 and store["warm_s"] >= 0
# Monte Carlo throughput section: a real campaign must have been timed.
monte = bench["monte"]
assert monte["samples"] >= 1 and monte["probes"] >= 2
assert monte["wall_s"] > 0 and monte["corners_per_sec"] > 0
print(
    "BENCH_spice.json ok:",
    f"warm_speedup={store['warm_speedup']:.2f}x",
    f"warm_store_hits={store['warm_store_hits']}",
    "byte_identical=true",
    f"monte={monte['corners_per_sec']:.2f} corners/s",
)
EOF

# Smoke the PPSFP grading engine end to end: `repro bench-atpg` must
# emit a parseable report whose detection vectors were bit-exact across
# the scalar reference, the narrow engine, the super-lane engine, and
# the parallel shards, with a real bit-parallel speedup on every
# non-trivial workload and a super-lane win on the no-dropping sweep.
./target/release/repro bench-atpg
python3 - <<'EOF'
import json

with open("results/BENCH_atpg.json") as f:
    bench = json.load(f)
assert bench["bit_exact"] is True, "packed grading diverged from the scalar reference"
assert bench["threads"] >= 1
names = [row["name"] for row in bench["circuits"]]
for expected in ("c17", "mux4", "rca32", "csa32", "mult16"):
    assert expected in names, f"unexpected circuit set: {names}"
for row in bench["circuits"]:
    for key in ("gates", "faults", "tests", "blocks", "scalar_s", "narrow_serial_s",
                "packed_serial_s", "packed_parallel_s", "packed_speedup",
                "superlane_speedup", "parallel_speedup", "total_speedup"):
        assert key in row, f"{row['name']}: missing field {key}"
    # c17 is small enough that a 512-wide block wastes work against the
    # scalar path; every real circuit must show the bit-parallel win.
    if row["gates"] >= 40:
        assert row["packed_speedup"] > 1.0, \
            f"{row['name']}: no bit-parallel win: {row['packed_speedup']}"
largest = max(bench["circuits"], key=lambda r: r["gates"])
assert largest["gates"] >= 2000, f"largest circuit has only {largest['gates']} gates"
assert largest["faults"] >= 1000, f"largest circuit grades only {largest['faults']} faults"
# The super-lane widening must pay off >= 2x on the no-dropping sweep of
# a generator circuit with thousands of gates.
sl = bench["superlane"]
for key in ("name", "gates", "faults", "tests", "narrow_s", "packed_s", "speedup"):
    assert key in sl, f"superlane: missing field {key}"
assert sl["gates"] >= 2000, f"superlane sweep circuit has only {sl['gates']} gates"
assert sl["speedup"] >= 2.0, \
    f"super-lane speedup {sl['speedup']:.2f}x is below the 2x target"
# Real multi-core scaling is only observable on a multi-core host.
if bench["threads"] >= 4:
    assert largest["parallel_speedup"] >= 2.0, \
        f"parallel speedup {largest['parallel_speedup']:.2f}x on {bench['threads']} threads"
best = max(max(r["packed_speedup"] for r in bench["circuits"]), bench["matrix"]["speedup"])
assert best >= 8.0, f"best packed speedup {best:.2f}x is below the 8x target"
print(
    "BENCH_atpg.json ok:",
    f"best_speedup={best:.1f}x",
    f"matrix={bench['matrix']['speedup']:.1f}x",
    f"superlane={sl['speedup']:.1f}x on {sl['gates']} gates",
    f"parallel={largest['parallel_speedup']:.1f}x on {bench['threads']} threads",
    "bit_exact=true",
)
EOF

# Smoke the fleet workload end to end. First the determinism contract at
# a reduced fleet size: the same seed must produce byte-identical
# FLEET_run.json across thread counts. Then the full production run —
# >= 1,000,000 devices, zero panics (set -e catches a nonzero exit),
# finite escape rate and latency percentiles — left last so the
# committed artifact is the million-device one.
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
assert lat["p50"] <= lat["p95"] <= lat["p99"], f"percentiles out of order: {lat}"
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
