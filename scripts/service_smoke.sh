#!/usr/bin/env bash
# Service smoke test: build luqr-serve, run it, exercise the full job +
# cached-solve + graceful-shutdown path over HTTP, and fail on any
# divergence. CI runs this inside the tier-1 gate.
set -euo pipefail

ADDR="${ADDR:-127.0.0.1:18099}"
BASE="http://$ADDR"
DIR="$(mktemp -d)"
trap 'rm -rf "$DIR"; [ -n "${PID:-}" ] && kill -9 "$PID" 2>/dev/null || true' EXIT

echo "== build"
go build -o "$DIR/luqr-serve" ./cmd/luqr-serve

echo "== start"
"$DIR/luqr-serve" -addr "$ADDR" -concurrency 2 -queue 8 -drain 30s >"$DIR/serve.log" 2>&1 &
PID=$!

for i in $(seq 1 50); do
  curl -sf "$BASE/healthz" >/dev/null 2>&1 && break
  [ "$i" = 50 ] && { echo "server never became healthy"; cat "$DIR/serve.log"; exit 1; }
  sleep 0.1
done
echo "healthy"

echo "== submit job"
# α is pinned: the digest of an alpha-unset request tracks the learned α,
# which this job's own completion will move — the learning leg below covers
# that path; here the cache contract is asserted with a stable digest.
BODY='{"matrix":{"n":240,"gen":"random","seed":5},"config":{"alg":"luqr","nb":40,"alpha":100}}'
JOB=$(curl -sf -X POST -d "$BODY" "$BASE/v1/jobs" | python3 -c 'import json,sys; print(json.load(sys.stdin)["id"])')
echo "job $JOB"

echo "== poll to completion"
for i in $(seq 1 100); do
  STATE=$(curl -sf "$BASE/v1/jobs/$JOB" | python3 -c 'import json,sys; print(json.load(sys.stdin)["state"])')
  [ "$STATE" = done ] && break
  [ "$STATE" = failed ] && { echo "job failed"; curl -s "$BASE/v1/jobs/$JOB"; exit 1; }
  [ "$i" = 100 ] && { echo "job never finished (state=$STATE)"; exit 1; }
  sleep 0.2
done
curl -sf "$BASE/v1/jobs/$JOB" | python3 -c '
import json, sys
v = json.load(sys.stdin)
assert v["report"]["decisions"], "done job carries no per-step decisions"
print("decisions:", " ".join(v["report"]["decisions"]))'

echo "== solve twice against the cached factorization"
SOLVE='{"matrix":{"n":240,"gen":"random","seed":5},"config":{"alg":"luqr","nb":40,"alpha":100}}'
for i in 1 2; do
  curl -sf -X POST -d "$SOLVE" "$BASE/v1/solve" | python3 -c '
import json, sys
v = json.load(sys.stdin)
assert v["cache_hit"], "solve was not served from the factorization cache"
assert len(v["x"]) == 240, "wrong solution length"
print("solve '"$i"': cache_hit, |x| ok")'
done

echo "== learned alpha applies to an alpha-unset job"
# The pinned job above ran clean at α=100 without choosing LU everywhere,
# so its completion raised the class estimate to 200; a request that leaves
# alpha unset must now resolve it from the learner.
BODY2='{"matrix":{"n":240,"gen":"random","seed":5},"config":{"alg":"luqr","nb":40}}'
JOB2=$(curl -sf -X POST -d "$BODY2" "$BASE/v1/jobs" | python3 -c 'import json,sys; print(json.load(sys.stdin)["id"])')
for i in $(seq 1 100); do
  STATE=$(curl -sf "$BASE/v1/jobs/$JOB2" | python3 -c 'import json,sys; print(json.load(sys.stdin)["state"])')
  [ "$STATE" = done ] && break
  [ "$STATE" = failed ] && { echo "learning job failed"; curl -s "$BASE/v1/jobs/$JOB2"; exit 1; }
  [ "$i" = 100 ] && { echo "learning job never finished (state=$STATE)"; exit 1; }
  sleep 0.2
done
curl -sf "$BASE/v1/jobs/$JOB2" | python3 -c '
import json, sys
v = json.load(sys.stdin)
r = v["report"]
assert r["alpha_source"] == "learned", "alpha_source = %r, want learned" % r.get("alpha_source")
assert r["alpha"] == 200, "alpha = %r, want the learned 200" % r.get("alpha")
print("learning job: alpha=%g (%s)" % (r["alpha"], r["alpha_source"]))'

curl -sf "$BASE/metrics" | python3 -c '
import json, sys
m = json.load(sys.stdin)
misses, hits = m["cache"]["misses"], m["cache"]["hits"]
assert misses == 2, "expected exactly 2 factorizations (pinned + learned alpha), got %d" % misses
assert hits >= 2, "expected >=2 cache hits, got %d" % hits
assert m["jobs"]["done_total"] >= 2
t = m["tune"]
assert t["alpha_learning"], "alpha learning off in default config"
assert t["alpha_classes"] >= 1, "no alpha classes learned"
assert t["alpha_updates"] >= 2, "alpha_updates = %d, want >= 2" % t["alpha_updates"]
print("metrics: misses=2, hits=%d, alpha_updates=%d" % (hits, t["alpha_updates"]))'

echo "== explicit data: factored once, then served from the cache"
# One solve factors an explicit operator; two repeats of the byte-identical
# body follow: the first repeat is the array's second sighting, which the
# decoder's memo keeps, and the second takes the kept values. One body
# spelling the same array with extra whitespace takes the full parse. All
# three must hit the same factorization and answer the first solve's x,
# compared as JSON text so equal means bit-identical. α is pinned, as above.
python3 - "$DIR" <<'PY'
import json, random, sys
d, n = sys.argv[1], 64
rng = random.Random(11)
data = [rng.uniform(-1, 1) + (n if i % (n + 1) == 0 else 0) for i in range(n * n)]
req = {"matrix": {"n": n, "data": data}, "config": {"alg": "luqr", "nb": 16, "alpha": 100}}
open(d + "/data.json", "w").write(json.dumps(req, separators=(",", ":")))
open(d + "/data_spaced.json", "w").write(json.dumps(req, separators=(" ,  ", " : ")))
PY
for i in 1 2 3; do
  curl -sf -X POST --data-binary @"$DIR/data.json" "$BASE/v1/solve" >"$DIR/xd$i.json"
done
curl -sf -X POST --data-binary @"$DIR/data_spaced.json" "$BASE/v1/solve" >"$DIR/xd4.json"
python3 - "$DIR" <<'PY'
import json, sys
d = sys.argv[1]
r = [json.load(open("%s/xd%d.json" % (d, i)), parse_float=str) for i in range(1, 5)]
assert not r[0]["cache_hit"], "the first explicit-data solve did not factor"
for i in (1, 2, 3):
    assert r[i]["cache_hit"], "explicit-data solve %d missed the factorization cache" % (i + 1)
    assert r[i]["x"] == r[0]["x"], "explicit-data solve %d is not bit-identical to the first" % (i + 1)
print("explicit data: 1 factorization, 3 cache hits (1 respelled), x bit-identical (%d entries)" % len(r[0]["x"]))
PY

echo "== request loop (2 clients, 16 requests)"
# Each client sends 8 requests at n=160 over two operators: four solves, two
# job submissions, and a GET of the job each submission made (/metrics when
# the queue turned it away). Any status but 200, 202 and 429 (backpressure)
# fails the smoke.
client() {
  local c=$1 i body url code job=""
  for i in $(seq 0 7); do
    body='{"matrix":{"n":160,"gen":"random","seed":'$(( (c + i) % 2 ))'},"config":{"nb":40}}'
    case $(( i % 4 )) in
      0|1) url="$BASE/v1/solve" ;;
      2) url="$BASE/v1/jobs" ;;
      3) url="$BASE/metrics"; [ -n "$job" ] && url="$BASE/v1/jobs/$job"; body="" ;;
    esac
    if [ -n "$body" ]; then
      code=$(curl -s -o "$DIR/client$c.json" -w '%{http_code}' -X POST -d "$body" "$url") || true
    else
      code=$(curl -s -o "$DIR/client$c.json" -w '%{http_code}' "$url") || true
    fi
    case "$code" in
      200|429) ;;
      202) job=$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["id"])' "$DIR/client$c.json") ;;
      *) echo "client $c: $url answered $code"; cat "$DIR/client$c.json" 2>/dev/null; exit 1 ;;
    esac
  done
}
client 0 & C0=$!
client 1 & C1=$!
wait "$C0"
wait "$C1"
echo "request loop: 16 requests, no failures"

echo "== graceful shutdown (SIGTERM drains)"
kill -TERM "$PID"
for i in $(seq 1 100); do
  kill -0 "$PID" 2>/dev/null || break
  [ "$i" = 100 ] && { echo "server did not exit after SIGTERM"; cat "$DIR/serve.log"; exit 1; }
  sleep 0.2
done
wait "$PID" 2>/dev/null && RC=0 || RC=$?
grep -q "drained cleanly" "$DIR/serve.log" || { echo "no clean drain in log:"; cat "$DIR/serve.log"; exit 1; }
[ "$RC" = 0 ] || { echo "server exited with $RC"; cat "$DIR/serve.log"; exit 1; }
PID=

echo "== warm restart (factor store survives SIGTERM)"
STORE="$DIR/store"
"$DIR/luqr-serve" -addr "$ADDR" -concurrency 2 -queue 8 -drain 30s -store-dir "$STORE" >"$DIR/serve2.log" 2>&1 &
PID=$!
for i in $(seq 1 50); do
  curl -sf "$BASE/healthz" >/dev/null 2>&1 && break
  [ "$i" = 50 ] && { echo "store-backed server never became healthy"; cat "$DIR/serve2.log"; exit 1; }
  sleep 0.1
done
curl -sf -X POST -d "$SOLVE" "$BASE/v1/solve" >"$DIR/x1.json"
kill -TERM "$PID"
for i in $(seq 1 100); do
  kill -0 "$PID" 2>/dev/null || break
  [ "$i" = 100 ] && { echo "store-backed server did not exit after SIGTERM"; cat "$DIR/serve2.log"; exit 1; }
  sleep 0.2
done
wait "$PID" 2>/dev/null || true
PID=
ls "$STORE"/*.fact >/dev/null 2>&1 || { echo "no .fact spill in $STORE after drain"; ls -la "$STORE"; exit 1; }

"$DIR/luqr-serve" -addr "$ADDR" -concurrency 2 -queue 8 -drain 30s -store-dir "$STORE" >"$DIR/serve3.log" 2>&1 &
PID=$!
for i in $(seq 1 50); do
  curl -sf "$BASE/healthz" >/dev/null 2>&1 && break
  [ "$i" = 50 ] && { echo "restarted server never became healthy"; cat "$DIR/serve3.log"; exit 1; }
  sleep 0.1
done
curl -sf -X POST -d "$SOLVE" "$BASE/v1/solve" >"$DIR/x2.json"
python3 -c '
import json
x1 = json.load(open("'"$DIR"'/x1.json"))["x"]
x2 = json.load(open("'"$DIR"'/x2.json"))["x"]
assert x1 == x2, "warm-restarted solve is not bit-identical to the original"
print("restart: solution bit-identical across restart (%d entries)" % len(x2))'
curl -sf "$BASE/metrics" | python3 -c '
import json, sys
m = json.load(sys.stdin)
st = m["store"]
assert st["enabled"], "store not enabled despite -store-dir"
assert st["warm_hits"] >= 1, "restart did not warm-load from disk (warm_hits=%d)" % st["warm_hits"]
assert m["cache"]["misses"] == 0, "restart re-factored instead of warm-loading (misses=%d)" % m["cache"]["misses"]
print("restart: warm_hits=%d misses=0 files=%d" % (st["warm_hits"], st["files"]))'
kill -TERM "$PID"
for i in $(seq 1 100); do
  kill -0 "$PID" 2>/dev/null || break
  sleep 0.2
done
wait "$PID" 2>/dev/null || true
PID=
echo "service smoke: OK"
