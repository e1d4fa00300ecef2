#!/usr/bin/env bash
# Reproduce BENCH_baseline.json: run the figure/ablation benches in a
# smoke-sized configuration with structured metrics enabled, then merge
# the per-bench micg.metrics.v1 files into one baseline document.
#
# Also reproduces BENCH_serve.json: the serving-path latency series
# (bench/serve_latency, p50/p99 per arrival rate with and without a
# mutating writer) lands in a second document next to the baseline.
#
# Also reproduces BENCH_coalesce.json: the query-coalescing series
# (bench/serve_qps, achieved throughput and tail latency with the
# coalescing window off vs on, clustered vs adversarial request mixes)
# lands in a third document.
#
# A fresh `micg calibrate` profile of this host is stamped into every
# BENCH_*.json document (top-level "host_calibration", a micg.calib.v1
# object) so committed numbers carry the machine they were measured on.
#
# Also reproduces BENCH_sssp.json: the weighted-workload series
# (bench/fig_sssp, delta-stepping against the sequential Dijkstra oracle
# on derived weights, plus the delta work/parallelism dial). Every record
# carries sssp.exact — the validator refuses a document where any timed
# configuration diverged from the oracle.
#
# Usage: tools/run_bench.sh [output.json] [serve_output.json] \
#                           [coalesce_output.json] [sssp_output.json]
#   BUILD_DIR              build tree holding bench/ (default: build)
#   MICG_SCALE             model-series graph scale       (default: 0.05)
#   MICG_MEASURED_SCALE    measured-series graph scale    (default: 0.05)
#   MICG_MEMLAT_SCALE      measured scale for ablate_memlat only
#                          (default: 8.0 -> RMAT scale 19, large enough
#                          that the gathered vector falls out of L2 and
#                          the fast paths measurably win — see
#                          docs/performance.md)
#   MICG_MEMLAT_THREADS    thread sweep for ablate_memlat only (default:
#                          1,2,4,8 — it times at the sweep maximum, and
#                          latency-bound gathers need concurrency to show
#                          the fast-path win even on few-core hosts)
#   MICG_MEASURED_THREADS  thread sweep                   (default: host procs)
#   MICG_RUNS              repetitions per timing         (default: 4)
#
# The figure benches run smoke-sized; the memory-latency ablation gets
# its own larger scale because cache-resident runs show nothing.
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR=${BUILD_DIR:-build}
OUT=${1:-BENCH_baseline.json}
SERVE_OUT=${2:-BENCH_serve.json}
COALESCE_OUT=${3:-BENCH_coalesce.json}
SSSP_OUT=${4:-BENCH_sssp.json}

if [ ! -x "$BUILD_DIR/bench/ablate_memlat" ]; then
  echo "error: $BUILD_DIR/bench/ablate_memlat not found — build with" >&2
  echo "  cmake -B $BUILD_DIR -S . && cmake --build $BUILD_DIR -j" >&2
  exit 1
fi

export MICG_SCALE=${MICG_SCALE:-0.05}
export MICG_MEASURED_SCALE=${MICG_MEASURED_SCALE:-0.05}
export MICG_MEASURED_THREADS=${MICG_MEASURED_THREADS:-$(nproc)}
export MICG_RUNS=${MICG_RUNS:-4}
MICG_MEMLAT_SCALE=${MICG_MEMLAT_SCALE:-8.0}
MICG_MEMLAT_THREADS=${MICG_MEMLAT_THREADS:-1,2,4,8}
MICG_SSSP_SCALE=${MICG_SSSP_SCALE:-0.5}

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

echo "== run_bench: scale=$MICG_SCALE measured_scale=$MICG_MEASURED_SCALE" \
     "memlat_scale=$MICG_MEMLAT_SCALE threads=$MICG_MEASURED_THREADS" \
     "runs=$MICG_RUNS =="

# Calibrate this host first: every BENCH document gets the profile
# stamped in so committed numbers say what machine produced them.
CALIB="$tmp/host.calib.json"
"$BUILD_DIR/tools/micg" calibrate --runs "$MICG_RUNS" -o "$CALIB"

"$BUILD_DIR/bench/fig3_irregular" --metrics-json "$tmp/fig3.json"
"$BUILD_DIR/bench/fig4_bfs" --metrics-json "$tmp/fig4.json"
"$BUILD_DIR/bench/fig5_msbfs" --metrics-json "$tmp/fig5.json"
MICG_MEASURED_SCALE="$MICG_MEMLAT_SCALE" \
MICG_MEASURED_THREADS="$MICG_MEMLAT_THREADS" \
  "$BUILD_DIR/bench/ablate_memlat" --metrics-json "$tmp/memlat.json"

python3 - "$OUT" "$tmp"/fig3.json "$tmp"/fig4.json "$tmp"/fig5.json \
    "$tmp"/memlat.json <<'EOF'
import json
import sys

out, *parts = sys.argv[1:]
records = []
for path in parts:
    with open(path) as f:
        doc = json.load(f)
    assert doc["schema"] == "micg.metrics.v1", (path, doc.get("schema"))
    records.extend(doc["records"])

with open(out, "w") as f:
    json.dump({"schema": "micg.metrics.v1", "records": records}, f, indent=1)
    f.write("\n")

memlat = [r for r in records if r["meta"].get("bench") == "ablate_memlat"]
assert memlat, "ablate_memlat emitted no records"
best = max(r["values"]["speedup_vs_baseline"] for r in memlat)
msbfs = [r for r in records if r["meta"].get("bench") == "fig5_msbfs"]
assert msbfs, "fig5_msbfs emitted no records"
best_ms = max(r["values"]["msbfs.throughput_speedup"] for r in msbfs)
print(f"wrote {out}: {len(records)} records "
      f"({len(memlat)} memlat, best fast-path speedup {best:.2f}x, "
      f"best msbfs throughput {best_ms:.2f}x)")
EOF

"$BUILD_DIR/bench/serve_latency" --metrics-json "$SERVE_OUT"

python3 - "$SERVE_OUT" <<'EOF'
import json
import sys

path = sys.argv[1]
with open(path) as f:
    doc = json.load(f)
assert doc["schema"] == "micg.metrics.v1", doc.get("schema")
records = doc["records"]
rates = {r["meta"]["config"] for r in records}
steady = {c for c in rates if c.startswith("steady/")}
mutating = {c for c in rates if c.startswith("mutating/")}
assert len(steady) >= 3, f"need >=3 arrival rates, got {sorted(steady)}"
assert len(mutating) >= 3, sorted(mutating)
for r in records:
    v = r["values"]
    assert v["ok"] == v["requests"], (r["meta"], v)
    assert 0 < v["p50_ms"] <= v["p99_ms"] <= v["max_ms"], v
worst = max(r["values"]["p99_ms"] for r in records)
print(f"wrote {path}: {len(records)} serve records over "
      f"{len(steady)} rates (worst p99 {worst:.2f} ms)")
EOF

"$BUILD_DIR/bench/serve_qps" --metrics-json "$COALESCE_OUT"

python3 - "$COALESCE_OUT" <<'EOF'
import json
import sys

path = sys.argv[1]
with open(path) as f:
    doc = json.load(f)
assert doc["schema"] == "micg.metrics.v1", doc.get("schema")
records = doc["records"]
assert records, "serve_qps emitted no records"
for r in records:
    v = r["values"]
    assert r["meta"]["bench"] == "serve_qps", r["meta"]
    assert r["meta"]["mix"] in ("clustered", "adversarial"), r["meta"]
    assert v["ok"] == v["requests"], (r["meta"], v)
    assert 0 < v["p50_ms"] <= v["p99_ms"] <= v["max_ms"], v
    assert v["achieved_rps"] > 0, v

# The coalescing claim the docs make: with a clustered mix past the
# saturation knee, the batched configuration beats the unbatched one on
# achieved throughput at every benched arrival rate (>= 2 rates).
def cell(mix, window, rate):
    for r in records:
        if (r["meta"]["mix"] == mix
                and r["values"]["window_ms"] == window
                and r["values"]["rate_rps"] == rate):
            return r["values"]
    raise AssertionError(f"missing cell {mix}/w{window}/{rate}")

rates = sorted({r["values"]["rate_rps"] for r in records
                if r["meta"]["mix"] == "clustered"})
assert len(rates) >= 2, rates
wins = 0
for rate in rates:
    off = cell("clustered", 0, rate)
    on = cell("clustered", 3, rate)
    if on["achieved_rps"] > off["achieved_rps"]:
        wins += 1
assert wins >= 2, (
    f"coalescing won at only {wins} of {len(rates)} arrival rates")
print(f"wrote {path}: {len(records)} qps records; batched beat unbatched "
      f"at {wins}/{len(rates)} clustered rates")
EOF

# Weighted workloads at their own larger scale (smoke-sized graphs finish
# before the bucket structure the delta dial measures can form). The bench exits
# non-zero by itself if any timed run diverges from the Dijkstra oracle;
# the validator re-checks that from the emitted records.
MICG_MEASURED_SCALE="$MICG_SSSP_SCALE" \
  "$BUILD_DIR/bench/fig_sssp" --metrics-json "$SSSP_OUT"

python3 - "$SSSP_OUT" <<'EOF'
import json
import sys

path = sys.argv[1]
with open(path) as f:
    doc = json.load(f)
assert doc["schema"] == "micg.metrics.v1", doc.get("schema")
records = doc["records"]
assert records, "fig_sssp emitted no records"
graphs, variants = set(), set()
for r in records:
    assert r["meta"]["bench"] == "fig_sssp", r["meta"]
    graphs.add(r["meta"]["graph"])
    variants.add(r["meta"]["variant"])
    v = r["values"]
    assert v["sssp.exact"] == 1.0, (
        f"timed run diverged from the Dijkstra oracle: {r['meta']}")
    assert v["sssp.secs"] > 0 and v["sssp.seq_dijkstra_secs"] > 0, v
    assert v["sssp.speedup_vs_dijkstra"] > 0, v
    assert r["counters"]["sssp.relaxations"] > 0, r["counters"]
    assert r["counters"]["sssp.reached"] > 0, r["counters"]
assert graphs == {"pwtk", "inline_1"}, graphs
assert len(variants) == 4, variants
best = max(r["values"]["sssp.speedup_vs_dijkstra"] for r in records)
print(f"wrote {path}: {len(records)} sssp records over {len(graphs)} "
      f"graphs x {len(variants)} variants, all oracle-exact "
      f"(best speedup vs Dijkstra {best:.2f}x)")
EOF

# Stamp the calibrated host profile into every document emitted above.
python3 - "$CALIB" "$OUT" "$SERVE_OUT" "$COALESCE_OUT" "$SSSP_OUT" <<'EOF'
import json
import sys

calib, *outputs = sys.argv[1:]
with open(calib) as f:
    profile = json.load(f)
assert profile["schema"] == "micg.calib.v1", profile.get("schema")
for path in outputs:
    with open(path) as f:
        doc = json.load(f)
    doc["host_calibration"] = profile
    with open(path, "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")
print(f"stamped host profile ({profile['host'] or 'unnamed'}, "
      f"isa={profile['isa']}) into {len(outputs)} documents")
EOF
