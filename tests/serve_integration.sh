#!/usr/bin/env bash
# End-to-end serving integration (ctest target serve_integration):
#
#  1. generate a graph and launch `micg serve` on a unix socket;
#  2. wait for the readiness line, then drive a scripted NDJSON mix —
#     queries, mutations, a compaction, error paths — through
#     `micg query --script` on one connection;
#  3. compare the response transcript byte-for-byte against
#     tests/golden/serve_session.golden (responses are deterministic:
#     no timing fields, canonical field order, sequential epochs);
#  4. shut the server down over the wire and validate the metrics file
#     it writes against the micg.metrics.v1 schema: per-request spans
#     named serve.<op>/<graph> carrying wait_ms/epoch values, and the
#     admission counters.
#
# Usage: serve_integration.sh MICG_BINARY GOLDEN_DIR
set -euo pipefail

MICG=$1
GOLDEN_DIR=$2

work=$(mktemp -d)
server_pid=""
cleanup() {
  if [ -n "$server_pid" ] && kill -0 "$server_pid" 2>/dev/null; then
    kill "$server_pid" 2>/dev/null || true
    wait "$server_pid" 2>/dev/null || true
  fi
  rm -rf "$work"
}
trap cleanup EXIT

"$MICG" gen grid2d 8 8 -o "$work/g.micg"

sock="$work/serve.sock"
"$MICG" serve --listen "unix:$sock" --graph "g=$work/g.micg" \
  --compact-every 4 --threads-per-query 1 \
  --metrics-json "$work/metrics.json" >"$work/serve.log" 2>&1 &
server_pid=$!

ready=0
for _ in $(seq 1 200); do
  if grep -q "^serving 1 graph(s) on " "$work/serve.log" 2>/dev/null; then
    ready=1
    break
  fi
  if ! kill -0 "$server_pid" 2>/dev/null; then
    echo "FAIL: server exited before becoming ready" >&2
    cat "$work/serve.log" >&2
    exit 1
  fi
  sleep 0.05
done
if [ "$ready" != 1 ]; then
  echo "FAIL: server never printed the readiness line" >&2
  cat "$work/serve.log" >&2
  exit 1
fi

# The scripted mix: happy-path queries, buffered mutation + explicit
# compaction, auto-compaction (compact-every 4), and the error paths
# (unknown graph, unknown op, malformed frame) — all on one connection.
cat >"$work/script.ndjson" <<'EOF'
{"id":"q01","op":"ping"}
{"id":"q02","op":"list"}
{"id":"q03","op":"bfs","graph":"g","params":{"threads":1,"source":0,"targets":[63]}}
{"id":"q04","op":"insert","graph":"g","params":{"edges":[[0,63]]}}
{"id":"q05","op":"bfs","graph":"g","params":{"threads":1,"source":0,"targets":[63]}}
{"id":"q06","op":"compact","graph":"g"}
{"id":"q07","op":"bfs","graph":"g","params":{"threads":1,"source":0,"targets":[63]}}
{"id":"q08","op":"color","graph":"g","params":{"threads":1}}
{"id":"q09","op":"info","graph":"g"}
{"id":"q10","op":"bfs","graph":"missing"}
{"id":"q11","op":"frobnicate","graph":"g"}
not json
{"id":"q12","op":"bfs","graph":"g","params":{"source":9000}}
{"id":"q13","op":"erase","graph":"g","params":{"edges":[[0,63],[0,1],[1,8],[9,10]]}}
{"id":"q14","op":"list"}
{"id":"q15","op":"bfs","graph":"g","params":{"threads":1,"source":0,"targets":[63]}}
EOF

"$MICG" query --connect "unix:$sock" --script "$work/script.ndjson" \
  >"$work/session.out"

if ! diff -u "$GOLDEN_DIR/serve_session.golden" "$work/session.out"; then
  echo "FAIL: session transcript diverged from golden" >&2
  echo "(MICG_UPDATE_GOLDENS: cp $work/session.out" \
       "tests/golden/serve_session.golden)" >&2
  exit 1
fi

"$MICG" query --connect "unix:$sock" shutdown >/dev/null
wait "$server_pid"
server_pid=""

grep -q "^shutdown complete$" "$work/serve.log"

python3 - "$work/metrics.json" <<'EOF'
import json
import sys

with open(sys.argv[1]) as f:
    doc = json.load(f)
assert doc["schema"] == "micg.metrics.v1", doc.get("schema")
records = doc["records"]
assert len(records) == 1, f"one serving record expected, got {len(records)}"
r = records[0]
assert r["schema"] == "micg.metrics.v1"
assert r["meta"]["tool"] == "micg serve", r["meta"]
assert r["meta"]["listen"].startswith("unix:"), r["meta"]
assert all(isinstance(v, str) for v in r["meta"].values())
assert all(isinstance(v, int) and v >= 0 for v in r["counters"].values())

# Gated requests: q03..q13 and q15 (12); ping/list/shutdown bypass the
# gate and the malformed frame is rejected before admission.
assert r["counters"]["serve.requests"] == 12, r["counters"]
assert r["counters"].get("serve.shed", 0) == 0, r["counters"]

# The record interleaves per-request serve spans with the spans the
# kernels themselves emit (color.round etc.); the serving shape lives in
# the serve.* subset.
spans = [s for s in r["spans"] if s["name"].startswith("serve.")]
assert len(spans) == 12, f"one span per gated request, got {len(spans)}"
names = [s["name"] for s in spans]
assert names.count("serve.bfs/g") == 5, names
assert "serve.insert/g" in names and "serve.compact/g" in names, names
assert "serve.bfs/missing" in names, names
for s in spans:
    assert s["seconds"] >= 0
    assert "wait_ms" in s["values"], s
errors = [s for s in spans if s["values"].get("error") == 1.0]
assert len(errors) == 3, [s["name"] for s in errors]  # q10, q11, q12
epochs = [s["values"]["epoch"] for s in spans if "epoch" in s["values"]]
assert epochs and max(epochs) == 2.0, epochs  # compact + auto-compact
print(f"validated serving metrics: {len(spans)} spans, "
      f"{r['counters']['serve.requests']} requests, max epoch {max(epochs):.0f}")
EOF

# ---------------------------------------------------------------------------
# Part 2: the coalesced serving path. A second server runs with the
# coalescing window and the landmark cache on; the scripted mix is
# sequential, so every bfs forms a deterministic single-member batch
# (answered through the MSBFS demux path, variant "MSBFS-coalesced"),
# and the approx_dist answers exercise hit / exact-fallback / same-vertex
# / post-compaction-refresh — all byte-compared against a second golden.

sock2="$work/serve2.sock"
"$MICG" serve --listen "unix:$sock2" --graph "g=$work/g.micg" \
  --threads-per-query 1 --coalesce-window-ms 40 --coalesce-lanes 8 \
  --landmarks 16 --metrics-json "$work/metrics2.json" \
  >"$work/serve2.log" 2>&1 &
server_pid=$!

ready=0
for _ in $(seq 1 200); do
  if grep -q "^serving 1 graph(s) on " "$work/serve2.log" 2>/dev/null; then
    ready=1
    break
  fi
  if ! kill -0 "$server_pid" 2>/dev/null; then
    echo "FAIL: coalescing server exited before becoming ready" >&2
    cat "$work/serve2.log" >&2
    exit 1
  fi
  sleep 0.05
done
if [ "$ready" != 1 ]; then
  echo "FAIL: coalescing server never printed the readiness line" >&2
  cat "$work/serve2.log" >&2
  exit 1
fi

cat >"$work/script2.ndjson" <<'EOF'
{"id":"c01","op":"bfs","graph":"g","params":{"source":0,"targets":[63]}}
{"id":"c02","op":"approx_dist","graph":"g","params":{"source":0,"target":63}}
{"id":"c03","op":"approx_dist","graph":"g","params":{"source":0,"target":63,"exact":true}}
{"id":"c04","op":"approx_dist","graph":"g","params":{"source":5,"target":5}}
{"id":"c05","op":"insert","graph":"g","params":{"edges":[[0,63]]}}
{"id":"c06","op":"compact","graph":"g"}
{"id":"c07","op":"bfs","graph":"g","params":{"source":0,"targets":[63]}}
{"id":"c08","op":"approx_dist","graph":"g","params":{"source":0,"target":63}}
{"id":"c09","op":"bfs","graph":"g","params":{"source":9000}}
{"id":"c10","op":"approx_dist","graph":"g","params":{"target":9000}}
EOF

"$MICG" query --connect "unix:$sock2" --script "$work/script2.ndjson" \
  >"$work/session2.out"

if ! diff -u "$GOLDEN_DIR/serve_coalesce.golden" "$work/session2.out"; then
  echo "FAIL: coalesced session transcript diverged from golden" >&2
  echo "(MICG_UPDATE_GOLDENS: cp $work/session2.out" \
       "tests/golden/serve_coalesce.golden)" >&2
  exit 1
fi

"$MICG" query --connect "unix:$sock2" shutdown >/dev/null
wait "$server_pid"
server_pid=""

grep -q "^shutdown complete$" "$work/serve2.log"

python3 - "$work/metrics2.json" <<'EOF'
import json
import sys

with open(sys.argv[1]) as f:
    doc = json.load(f)
assert doc["schema"] == "micg.metrics.v1", doc.get("schema")
records = doc["records"]
assert len(records) == 1, f"one serving record expected, got {len(records)}"
r = records[0]
c = r["counters"]

# c01/c07/c09 each form a single-member batch; the other seven gated
# requests take the ordinary path, and the request counter sees all ten
# uniformly.
assert c["serve.coalesce.batches"] == 3, c
assert c["serve.coalesce.requests"] == 3, c
assert c["serve.requests"] == 10, c

# approx_dist accounting: c02 (approximate), c04 (same vertex) and c08
# (post-compaction) answer from the index; c03 demands exact and falls
# back to one real traversal; c10 is rejected before the index is
# consulted. The index is built lazily at c02 and refreshed by the c06
# compaction.
assert c["serve.landmark.hits"] == 3, c
assert c["serve.landmark.fallbacks"] == 1, c
assert c["serve.landmark.builds"] == 2, c
assert c["landmark.builds"] == 2, c

spans = [s for s in r["spans"] if s["name"].startswith("serve.")]
names = [s["name"] for s in spans]
assert names.count("serve.coalesce/g") == 3, names
assert names.count("serve.approx_dist/g") == 5, names
batch_spans = [s for s in spans if s["name"] == "serve.coalesce/g"]
for s in batch_spans:
    assert s["values"]["members"] == 1.0, s
epochs = [s["values"]["epoch"] for s in spans if "epoch" in s["values"]]
assert epochs and max(epochs) == 1.0, epochs
print(f"validated coalesced metrics: {len(spans)} spans, "
      f"{c['serve.coalesce.batches']} batches, "
      f"{c['serve.landmark.builds']} landmark builds")
EOF

# ---------------------------------------------------------------------------
# Part 3: weighted workloads on the wire. A third server answers sssp and
# cc through the generic query path. Weights derive from (seed, endpoint
# pair) — never from storage order — so compactions that rewrite the CSR
# must not move a single distance. The proof: insert a shortcut and
# compact (distances move: the edge is real), then erase it and compact
# again. The edge set is back to the original but the CSR has been
# rewritten twice; the final sssp (s10) must equal the baseline (s01)
# byte-for-byte modulo the epoch stamp. The python check asserts that on
# top of the byte-compared golden.

sock3="$work/serve3.sock"
"$MICG" serve --listen "unix:$sock3" --graph "g=$work/g.micg" \
  --threads-per-query 1 --metrics-json "$work/metrics3.json" \
  >"$work/serve3.log" 2>&1 &
server_pid=$!

ready=0
for _ in $(seq 1 200); do
  if grep -q "^serving 1 graph(s) on " "$work/serve3.log" 2>/dev/null; then
    ready=1
    break
  fi
  if ! kill -0 "$server_pid" 2>/dev/null; then
    echo "FAIL: weighted server exited before becoming ready" >&2
    cat "$work/serve3.log" >&2
    exit 1
  fi
  sleep 0.05
done
if [ "$ready" != 1 ]; then
  echo "FAIL: weighted server never printed the readiness line" >&2
  cat "$work/serve3.log" >&2
  exit 1
fi

# s01/s02 baseline; s03 buffers a shortcut 0-63 (weight derived from the
# endpoints); s04 still answers from the pinned snapshot; s05 compacts
# and s06/s07 see the shortcut; s08+s09 undo it and compact again; s10
# is the pin proof; s11 is the error path; s12 shows a different weight
# seed answers differently.
cat >"$work/script3.ndjson" <<'EOF'
{"id":"s01","op":"sssp","graph":"g","params":{"threads":1,"source":0,"delta":16,"targets":[7,63]}}
{"id":"s02","op":"cc","graph":"g","params":{"threads":1}}
{"id":"s03","op":"insert","graph":"g","params":{"edges":[[0,63]]}}
{"id":"s04","op":"sssp","graph":"g","params":{"threads":1,"source":0,"delta":16,"targets":[7,63]}}
{"id":"s05","op":"compact","graph":"g"}
{"id":"s06","op":"sssp","graph":"g","params":{"threads":1,"source":0,"delta":16,"targets":[7,63]}}
{"id":"s07","op":"cc","graph":"g","params":{"threads":1}}
{"id":"s08","op":"erase","graph":"g","params":{"edges":[[0,63]]}}
{"id":"s09","op":"compact","graph":"g"}
{"id":"s10","op":"sssp","graph":"g","params":{"threads":1,"source":0,"delta":16,"targets":[7,63]}}
{"id":"s11","op":"sssp","graph":"g","params":{"source":9000}}
{"id":"s12","op":"sssp","graph":"g","params":{"threads":1,"source":0,"weights":5,"delta":16,"targets":[7,63]}}
EOF

"$MICG" query --connect "unix:$sock3" --script "$work/script3.ndjson" \
  >"$work/session3.out"

if ! diff -u "$GOLDEN_DIR/serve_sssp.golden" "$work/session3.out"; then
  echo "FAIL: weighted session transcript diverged from golden" >&2
  echo "(MICG_UPDATE_GOLDENS: cp $work/session3.out" \
       "tests/golden/serve_sssp.golden)" >&2
  exit 1
fi

"$MICG" query --connect "unix:$sock3" shutdown >/dev/null
wait "$server_pid"
server_pid=""

grep -q "^shutdown complete$" "$work/serve3.log"

python3 - "$work/session3.out" "$work/metrics3.json" <<'EOF'
import json
import sys

by_id = {}
with open(sys.argv[1]) as f:
    for line in f:
        msg = json.loads(line)
        by_id[msg["id"]] = msg

# Buffered mutations stay invisible until compaction: s04 answers from
# the same pinned snapshot as s01.
assert by_id["s04"]["result"] == by_id["s01"]["result"], (
    by_id["s01"], by_id["s04"])
assert by_id["s04"]["epoch"] == by_id["s01"]["epoch"]

# After compaction the shortcut is real: the weighted path to 63 (and
# through it, much of the grid) gets cheaper.
d_base = by_id["s01"]["result"]["target_dists"][1]
d_short = by_id["s06"]["result"]["target_dists"][1]
assert d_short < d_base, (d_base, d_short)

# The weighted-snapshot pin: erase + compact restores the original edge
# set after TWO CSR rewrites, and every distance — plus the one-thread
# relaxation/bucket trace — returns to the baseline exactly, because
# weights derive from endpoint pairs, never from adjacency slots.
assert by_id["s10"]["result"] == by_id["s01"]["result"], (
    by_id["s01"], by_id["s10"])
assert by_id["s10"]["epoch"] == by_id["s01"]["epoch"] + 2

# A different weight seed is a different metric space.
assert by_id["s12"]["result"]["target_dists"] != by_id["s10"]["result"]["target_dists"]

# cc agrees with itself across the flips (the grid stays one component).
assert by_id["s02"]["result"]["num_components"] == 1, by_id["s02"]
assert by_id["s07"]["result"] == by_id["s02"]["result"]

assert by_id["s11"]["status"] != "ok", by_id["s11"]

with open(sys.argv[2]) as f:
    doc = json.load(f)
r = doc["records"][0]
assert r["counters"]["serve.requests"] == 12, r["counters"]
spans = [s for s in r["spans"] if s["name"].startswith("serve.")]
names = [s["name"] for s in spans]
assert names.count("serve.sssp/g") == 6, names
assert names.count("serve.cc/g") == 2, names
errors = [s for s in spans if s["values"].get("error") == 1.0]
assert len(errors) == 1, [s["name"] for s in errors]  # s11
print(f"validated weighted serving: {names.count('serve.sssp/g')} sssp + "
      f"{names.count('serve.cc/g')} cc spans, pinned across compaction")
EOF

echo "serve_integration OK"
