#!/bin/sh
# CI check: formatting, build, tests, the bench harness's throughput
# floor and mlp sweep, the committed BENCH records, and CLI, service,
# durability and cluster smokes. Run from the repo root.
set -e

echo "== dune build @fmt (dune files; ocamlformat is not installed) =="
dune build @fmt

echo "== dune build =="
dune build

echo "== one lib/algo functor instantiation per backend =="
# Outside lib/algo (whose functors apply each other over their own
# backend parameter) only Sim_algo, Mcore.Atomic_algo and the generic
# Drive of the backend smoke matrix may apply a lib/algo functor.
ALGO_MAKE=$(grep -rlE '_algo\.Make' lib bin bench examples \
  | grep -v '^lib/algo/' | LC_ALL=C sort | tr '\n' ' ')
[ "$ALGO_MAKE" = "lib/backend/sim_algo.ml lib/mcore/atomic_algo.ml lib/smoke/backend_smoke.ml " ] \
  || { echo "lib/algo functor applied outside the instantiation modules: $ALGO_MAKE"; exit 1; }

echo "== no algorithm body over raw simulator memory =="
# Sim_backend is the one place that probes a simulator test&set cell.
# Anywhere else under lib/ or bench/, such a call is a second algorithm
# body written against Sim.Memory instead of a lib/algo functor.
SIM_TAS=$(grep -rl 'Api\.test_and_set' lib bench \
  | grep -v '^lib/backend/sim_backend\.ml$' | LC_ALL=C sort | tr '\n' ' ' || true)
[ -z "$SIM_TAS" ] \
  || { echo "simulator test&set called outside Sim_backend: $SIM_TAS"; exit 1; }

echo "== one array layout in the atomic backend =="
# Register arrays are one stride-1 Flat block at every length; no
# boxed per-slot layout may come back beside it.
if grep -nE 'atomic_array|Boxed' lib/backend/atomic_backend.ml; then
  echo "atomic_backend.ml has a second (boxed) array layout"; exit 1
fi

echo "== the bench harness keeps only algorithm and memory experiments =="
# Every measurement of the served path belongs to perfbench; the
# experiment harness may not link the service or its durability plane.
if grep -nwE 'service|persist' bench/dune; then
  echo "bench links the served path; measure it in perfbench"; exit 1
fi

echo "== CLI version matches the newest CHANGELOG entry =="
CLI_VERSION=$(dune exec bin/approx_cli.exe -- --version)
LOG_VERSION=$(sed -n 's/^## \([0-9][0-9]*\.[0-9][0-9]*\.[0-9][0-9]*\).*/\1/p' \
  CHANGELOG.md | head -n 1)
[ "$CLI_VERSION" = "$LOG_VERSION" ] \
  || { echo "approx_cli --version is $CLI_VERSION, CHANGELOG.md says $LOG_VERSION"; exit 1; }

echo "== dune runtest =="
dune runtest

echo "== backend functor-instantiation smoke matrix =="
dune exec bin/approx_cli.exe -- backends

echo "== throughput floor: kcounter read-heavy probe vs committed BENCH_9 =="
# Floor: half the committed BENCH_9 fastpath read-ablation median for
# the same cell (kcounter, cached reads, read-heavy, domains=1) -- the
# same 50% rule as the service floor below. The probe always runs at
# full size (30 warmup + 3 x 200k ops).
FP_BASE=$(awk '/"fastpath":/ { fp = 1 }
  fp && /"object":/ { obj = ($2 ~ /"kcounter"/) }
  fp && /"variant":/ { cached = ($2 ~ /"cached"/) }
  fp && /"workload":/ { rh = ($2 ~ /"read-heavy"/) }
  fp && /"domains":/ { d1 = ($2 + 0 == 1) }
  fp && obj && cached && rh && d1 && /"ops_per_sec_median":/ \
    { gsub(/,/, "", $2); printf "%.0f\n", $2; exit }' BENCH_9.json)
[ -n "$FP_BASE" ] || { echo "could not extract the BENCH_9 fastpath median"; exit 1; }
FP_FLOOR=$(awk "BEGIN { printf \"%.0f\", $FP_BASE * 0.5 }")
echo "   (floor: kcounter read-heavy median >= $FP_FLOOR ops/s, 50% of $FP_BASE)"
FP_MEDIAN=$(dune exec bench/main.exe -- floor \
  | sed -n 's/^kcounter read-heavy domains=1 median: \([0-9][0-9]*\) ops\/s$/\1/p')
[ -n "$FP_MEDIAN" ] || { echo "bench floor printed no median"; exit 1; }
echo "   (measured: $FP_MEDIAN ops/s)"
[ "$FP_MEDIAN" -ge "$FP_FLOOR" ] \
  || { echo "floor check FAILED: $FP_MEDIAN < $FP_FLOOR ops/s"; exit 1; }

echo "== mlp sweep: boxed and flat layouts agree on every cell =="
# The bench exits nonzero when a cell's two layouts disagree on the
# final read. About 4 s; the largest boxed cell peaks at about 1.3 GB RSS.
dune exec bench/main.exe -- mlp

echo "== committed BENCH_7 record: schema, cluster and durability fields =="
grep -q '"schema_version": 7' BENCH_7.json \
  || { echo "BENCH_7.json is not schema_version 7"; exit 1; }
grep -q '"service_io_scale"' BENCH_7.json \
  || { echo "BENCH_7.json missing the poller scale sweep"; exit 1; }
grep -q '"poller": "select"' BENCH_7.json \
  || { echo "BENCH_7.json missing the select scale cells"; exit 1; }
grep -q '"connections": 10000' BENCH_7.json \
  || { echo "BENCH_7.json missing the 10k-connection cell"; exit 1; }
grep -q '"service_cluster"' BENCH_7.json \
  || { echo "BENCH_7.json missing the cluster sweep"; exit 1; }
grep -q '"chaos": true' BENCH_7.json \
  || { echo "BENCH_7.json missing the node-kill chaos cell"; exit 1; }
grep -q '"service_durability"' BENCH_7.json \
  || { echo "BENCH_7.json missing the durability sweep"; exit 1; }
grep -q '"variant": "never-every-op"' BENCH_7.json \
  || { echo "BENCH_7.json missing the log-every-op ablation cell"; exit 1; }
grep -q '"recovered_within_envelope": true' BENCH_7.json \
  || { echo "BENCH_7.json kill -9 cell lost acked writes beyond the envelope"; exit 1; }
grep -q '"recovered_from_disk": true' BENCH_7.json \
  || { echo "BENCH_7.json kill -9 cell recovered nothing from disk"; exit 1; }

echo "== committed BENCH_8 record: schema and mlp-sweep fields =="
grep -q '"schema_version": 8' BENCH_8.json \
  || { echo "BENCH_8.json is not schema_version 8"; exit 1; }
grep -q '"mlp"' BENCH_8.json \
  || { echo "BENCH_8.json missing the mlp working-set sweep"; exit 1; }
grep -q '"cell": "llc-exceeding"' BENCH_8.json \
  || { echo "BENCH_8.json missing the LLC-exceeding mlp cell"; exit 1; }
grep -q '"boxed_heap_bytes"' BENCH_8.json \
  || { echo "BENCH_8.json missing the layout footprint fields"; exit 1; }
grep -q '"all_finals_agree": true' BENCH_8.json \
  || { echo "BENCH_8.json mlp layouts disagreed on final register values"; exit 1; }

echo "== committed BENCH_9 record: schema and gossip data-path fields =="
grep -q '"schema_version": 9' BENCH_9.json \
  || { echo "BENCH_9.json is not schema_version 9"; exit 1; }
grep -q '"service_cluster_comms"' BENCH_9.json \
  || { echo "BENCH_9.json missing the gossip data-path sweep"; exit 1; }
grep -q '"wire": "legacy"' BENCH_9.json \
  || { echo "BENCH_9.json missing the legacy-encoding A/B rows"; exit 1; }
grep -q '"gossip_bytes_suppressed"' BENCH_9.json \
  || { echo "BENCH_9.json missing the suppressed-bytes counters"; exit 1; }
grep -q '"all_cells_clean": true' BENCH_9.json \
  || { echo "BENCH_9.json comms cells had errors or did not converge"; exit 1; }
grep -q '"healed": true' BENCH_9.json \
  || { echo "BENCH_9.json partition-heal cells did not heal"; exit 1; }
# The headline claim: the compact wire path spends at least 4x fewer
# steady-state peer bytes per op than the legacy encoding.
RATIO=$(awk -F'[:,]' '/"min_legacy_over_compact_bytes_ratio"/ \
  { gsub(/ /,"",$2); print $2; exit }' BENCH_9.json)
[ -n "$RATIO" ] || { echo "BENCH_9.json missing the byte-ratio summary"; exit 1; }
RATIO_OK=$(awk "BEGIN { print ($RATIO >= 4.0) ? 1 : 0 }")
[ "$RATIO_OK" -eq 1 ] \
  || { echo "BENCH_9.json compact encoding ratio $RATIO below 4x"; exit 1; }

echo "== unknown subcommand exits 2 with usage on stderr =="
set +e
dune exec bin/approx_cli.exe -- frobnicate >/tmp/approx_ci_out.txt \
  2>/tmp/approx_ci_err.txt
code=$?
set -e
[ "$code" -eq 2 ] || { echo "expected exit 2, got $code"; exit 1; }
grep -q "usage: approx_cli COMMAND" /tmp/approx_ci_err.txt \
  || { echo "usage missing from stderr"; exit 1; }
rm -f /tmp/approx_ci_out.txt /tmp/approx_ci_err.txt

echo "== service smoke: 2-shard, 2-io-domain server + loadgen + stats =="
# Service throughput floor: half the committed BENCH_7 service median
# for the same cell (shards=2, pipeline=8, mixed ratio, 4 conns x 10k
# ops) — the last record from before the dense-id lookup landed, so a
# silent fall-back to the hashed path shows up against it. The wide
# 50% margin absorbs shared-runner noise while still catching an
# I/O-plane regression that halves throughput; trend-level tracking
# lives in the committed BENCH records, not in CI.
SVC_BASE=$(awk '/"shards":/ { s = ($2+0==2) }
  /"pipeline":/ { p = ($2+0==8) }
  /"mix":/ { m = ($2 ~ /"mixed",/) }
  s && p && m && /"ops_per_sec":/ { gsub(/,/,"",$2); print $2; exit }' \
  BENCH_7.json)
[ -n "$SVC_BASE" ] || { echo "could not extract the BENCH_7 service median"; exit 1; }
SVC_FLOOR=$(awk "BEGIN { print $SVC_BASE * 0.5 }")
echo "   (floor: service mixed throughput >= $SVC_FLOOR ops/s, 50% of $SVC_BASE)"
# Run the smoke once per poller backend. epoll is skipped (not failed)
# on platforms where the stubs are compiled out: an explicit
# `--poller epoll` request there must exit 2 with a clear message,
# which is itself asserted.
service_smoke() {
  POLLER=$1
  SOCK=/tmp/approx_ci_service_$POLLER.sock
  rm -f "$SOCK"
  dune exec bin/approx_cli.exe -- serve --shards 2 --io-domains 2 \
    --poller "$POLLER" --unix "$SOCK" --duration 60 &
  SERVE_PID=$!
  trap 'kill $SERVE_PID 2>/dev/null || true' EXIT
  # Wait for the socket to appear.
  for _ in $(seq 1 100); do
    [ -S "$SOCK" ] && break
    sleep 0.1
  done
  [ -S "$SOCK" ] || { echo "service socket never appeared ($POLLER)"; exit 1; }
  dune exec bin/approx_cli.exe -- loadgen --unix "$SOCK" --poller "$POLLER" \
    --connections 2 --ops 2000 --pipeline 8 --mix 2:6:2 --add-delta 8
  # The floor probe drives the same cell shape as the BENCH_3 record.
  dune exec bin/approx_cli.exe -- loadgen --unix "$SOCK" \
    --connections 4 --ops 10000 --pipeline 8 \
    --min-throughput "$SVC_FLOOR"
  # The dense-id fast path must actually be exercised: the loadgen
  # JSON summary carries the server's interned-lookup counters, and
  # -1 means the server never reported them.
  dune exec bin/approx_cli.exe -- loadgen --unix "$SOCK" --poller "$POLLER" \
    --connections 2 --ops 2000 --pipeline 8 --json \
    > /tmp/approx_ci_lg.json
  grep -q '"intern_hits"' /tmp/approx_ci_lg.json \
    || { echo "loadgen JSON missing interned-lookup counters"; exit 1; }
  grep -q '"intern_hits": -1' /tmp/approx_ci_lg.json \
    && { echo "server STATS did not report interned-lookup counters"; exit 1; }
  rm -f /tmp/approx_ci_lg.json
  dune exec bin/approx_cli.exe -- stats --unix "$SOCK" \
    > /tmp/approx_ci_stats.json
  grep -q '"intern_hits"' /tmp/approx_ci_stats.json \
    || { echo "stats JSON missing interned-lookup counters"; exit 1; }
  grep -q '"acc_violations_total": 0' /tmp/approx_ci_stats.json \
    || { echo "stats JSON missing clean accuracy self-check"; exit 1; }
  grep -q '"latency_ns"' /tmp/approx_ci_stats.json \
    || { echo "stats JSON missing latency histograms"; exit 1; }
  grep -q '"total_ops"' /tmp/approx_ci_stats.json \
    || { echo "stats JSON missing op counters"; exit 1; }
  grep -q '"io_loops"' /tmp/approx_ci_stats.json \
    || { echo "stats JSON missing per-io-loop metrics"; exit 1; }
  grep -q '"spin_hits"' /tmp/approx_ci_stats.json \
    || { echo "stats JSON missing the spin-poll counters"; exit 1; }
  grep -q '"io_domains": 2' /tmp/approx_ci_stats.json \
    || { echo "stats JSON missing the io-domain count"; exit 1; }
  grep -q '"cycle_ns"' /tmp/approx_ci_stats.json \
    || { echo "stats JSON missing cycle-duration histograms"; exit 1; }
  grep -q "\"poller\": \"$POLLER\"" /tmp/approx_ci_stats.json \
    || { echo "stats JSON missing the active poller backend"; exit 1; }
  grep -q '"poller_rejects": 0' /tmp/approx_ci_stats.json \
    || { echo "stats JSON missing clean poller-reject counters"; exit 1; }
  kill $SERVE_PID
  wait $SERVE_PID 2>/dev/null || true
  trap - EXIT
  rm -f /tmp/approx_ci_stats.json "$SOCK"
}

service_smoke select

echo "== service smoke under the epoll backend (skipped if compiled out) =="
set +e
dune exec bin/approx_cli.exe -- serve --poller epoll --duration 0.1 \
  --unix /tmp/approx_ci_epoll_probe.sock >/dev/null 2>/tmp/approx_ci_epoll_err.txt
EPOLL_PROBE=$?
set -e
rm -f /tmp/approx_ci_epoll_probe.sock
if [ "$EPOLL_PROBE" -eq 0 ]; then
  service_smoke epoll
elif [ "$EPOLL_PROBE" -eq 2 ]; then
  grep -qi "epoll" /tmp/approx_ci_epoll_err.txt \
    || { echo "epoll refusal has no diagnostic"; exit 1; }
  echo "   (epoll backend not compiled in on this platform; skipped)"
else
  echo "serve --poller epoll exited $EPOLL_PROBE (want 0 or 2)"; exit 1
fi
rm -f /tmp/approx_ci_epoll_err.txt

echo "== durability smoke: WAL + fuzzy snapshots survive kill -9 =="
# End-to-end crash recovery through the real binary: serve with a data
# dir, push a write burst, SIGKILL (no shutdown path runs), restart on
# the same dir and assert the state came back from disk; a follow-up
# burst must then pass its own accuracy self-check on the recovered
# state. SLO flag is exercised with a generous budget so the new exit
# path stays covered.
EXE=_build/default/bin/approx_cli.exe
DURDIR=/tmp/approx_ci_dur_$$
DURSOCK=${DURDIR}.sock
rm -rf "$DURDIR" "$DURSOCK"
mkdir -p "$DURDIR"
start_dur_server() {
  "$EXE" serve --shards 2 --io-domains 1 --unix "$DURSOCK" --duration 120 \
    --data-dir "$DURDIR" --fsync never --snapshot-interval-ms 100 &
  DUR_PID=$!
}
start_dur_server
trap 'kill -9 $DUR_PID 2>/dev/null || true' EXIT
for _ in $(seq 1 100); do
  [ -S "$DURSOCK" ] && break
  sleep 0.1
done
[ -S "$DURSOCK" ] || { echo "durability server socket never appeared"; exit 1; }
"$EXE" loadgen --unix "$DURSOCK" --connections 2 --ops 5000 --pipeline 8 \
  --mix 0:9:1 --add-delta 8 --slo-p99-us 1000000
kill -9 "$DUR_PID" 2>/dev/null || true
wait "$DUR_PID" 2>/dev/null || true
rm -f "$DURSOCK"
start_dur_server
for _ in $(seq 1 100); do
  [ -S "$DURSOCK" ] && break
  sleep 0.1
done
[ -S "$DURSOCK" ] || { echo "restarted durability server never came up"; exit 1; }
"$EXE" stats --unix "$DURSOCK" > /tmp/approx_ci_dur_stats.json
grep -q '"wal_appends"' /tmp/approx_ci_dur_stats.json \
  || { echo "stats JSON missing durability counters"; exit 1; }
grep -q '"snapshot_errors": 0' /tmp/approx_ci_dur_stats.json \
  || { echo "stats JSON shows failed snapshot ticks"; exit 1; }
grep -q '"fsync_errors": 0' /tmp/approx_ci_dur_stats.json \
  || { echo "stats JSON shows failed WAL fsyncs"; exit 1; }
if grep -q '"recovery_replayed_records": 0,' /tmp/approx_ci_dur_stats.json \
   && ! grep -q '"recovery_snapshot_loaded": true' /tmp/approx_ci_dur_stats.json; then
  echo "restart after kill -9 recovered nothing from disk"; exit 1
fi
# The recovered state must still satisfy the accuracy envelope under
# fresh load (exact shadows are rebuilt from the recovered baseline).
"$EXE" loadgen --unix "$DURSOCK" --connections 2 --ops 3000 --pipeline 8
"$EXE" stats --unix "$DURSOCK" > /tmp/approx_ci_dur_stats.json
grep -q '"acc_violations_total": 0' /tmp/approx_ci_dur_stats.json \
  || { echo "recovered server violated the accuracy self-check"; exit 1; }
kill "$DUR_PID" 2>/dev/null || true
wait "$DUR_PID" 2>/dev/null || true
trap - EXIT
rm -rf "$DURDIR" "$DURSOCK" /tmp/approx_ci_dur_stats.json

echo "== STATS answers at 100k hosted objects =="
# STATS lists objects in table order while they fit the 1 MiB response
# cap and counts the rest in objects_omitted, so a table of any size
# still answers.
BIGSOCK=/tmp/approx_ci_big_$$.sock
rm -f "$BIGSOCK"
"$EXE" serve --counters 100000 --unix "$BIGSOCK" --duration 120 >/dev/null &
BIG_PID=$!
trap 'kill -9 $BIG_PID 2>/dev/null || true' EXIT
for _ in $(seq 1 300); do
  [ -S "$BIGSOCK" ] && break
  sleep 0.1
done
[ -S "$BIGSOCK" ] || { echo "100k-object server socket never appeared"; exit 1; }
"$EXE" stats --unix "$BIGSOCK" > /tmp/approx_ci_big_stats.json \
  || { echo "100k-object server refused STATS"; exit 1; }
grep -q '"objects_omitted"' /tmp/approx_ci_big_stats.json \
  || { echo "100k-object STATS has no objects_omitted count"; exit 1; }
kill "$BIG_PID" 2>/dev/null || true
wait "$BIG_PID" 2>/dev/null || true
trap - EXIT
rm -f "$BIGSOCK" /tmp/approx_ci_big_stats.json

echo "== 3-node cluster smoke: delta gossip, hard node kill + blank restart =="
# Exercise the replication plane end to end: three server processes
# wired as gossip peers, the cluster-aware loadgen fanned out across
# all of them, one node SIGKILLed mid-run and restarted blank. The
# loadgen exits nonzero on any op error, so failover correctness is
# asserted by the exit code; the stats scrape then asserts that every
# surviving replica kept its widened accuracy self-check clean and
# that gossip actually flowed. The run is sized (1.2M ops) to still be
# in flight at the kill 0.6 s in: run-to-completion nodes finish
# 360k ops in under half a second on a 2-core host.
EXE=_build/default/bin/approx_cli.exe
CLBASE=/tmp/approx_ci_cluster_$$
rm -f "${CLBASE}"_*.sock
start_node() {
  N=$1
  PEERS=""
  for J in 0 1 2; do
    [ "$J" = "$N" ] && continue
    PEERS="${PEERS}${PEERS:+,}${J}=${CLBASE}_${J}.sock"
  done
  "$EXE" serve --shards 2 --io-domains 1 --counters 4 -k 4 \
    --node-id "$N" --nodes 3 --replicas 2 --gossip-interval-ms 10 \
    --staleness 2 --peers "$PEERS" --unix "${CLBASE}_${N}.sock" \
    --duration 120 &
  eval "NODE${N}_PID=\$!"
}
for N in 0 1 2; do start_node "$N"; done
trap 'kill $NODE0_PID $NODE1_PID $NODE2_PID 2>/dev/null || true' EXIT
for N in 0 1 2; do
  for _ in $(seq 1 100); do
    [ -S "${CLBASE}_${N}.sock" ] && break
    sleep 0.1
  done
  [ -S "${CLBASE}_${N}.sock" ] \
    || { echo "cluster node $N socket never appeared"; exit 1; }
done
CLNODES="${CLBASE}_0.sock,${CLBASE}_1.sock,${CLBASE}_2.sock"
"$EXE" loadgen --nodes "$CLNODES" --replicas 2 --connections 6 \
  --ops 200000 --pipeline 8 --mix 2:7:1 --max-reconnects 8 \
  > /tmp/approx_ci_cluster_lg.txt &
LG_PID=$!
sleep 0.6
kill -9 "$NODE1_PID" 2>/dev/null || true
wait "$NODE1_PID" 2>/dev/null || true
sleep 0.4
start_node 1
wait "$LG_PID" \
  || { echo "cluster loadgen reported op errors under chaos"; \
       cat /tmp/approx_ci_cluster_lg.txt; exit 1; }
grep -q " 0 errors" /tmp/approx_ci_cluster_lg.txt \
  || { echo "cluster loadgen summary reports errors"; \
       cat /tmp/approx_ci_cluster_lg.txt; exit 1; }
grep -q " 0 reconnects" /tmp/approx_ci_cluster_lg.txt \
  && { echo "node kill produced no loadgen reconnects"; \
       cat /tmp/approx_ci_cluster_lg.txt; exit 1; }
# Let gossip re-teach the restarted node, then scrape every replica.
sleep 0.5
GOSSIP_SENT=0
DIGEST_ROUNDS=0
PEER_BYTES=0
for N in 0 1 2; do
  "$EXE" stats --unix "${CLBASE}_${N}.sock" > /tmp/approx_ci_cluster_stats.json
  grep -q '"acc_violations_total": 0' /tmp/approx_ci_cluster_stats.json \
    || { echo "node $N violated the widened accuracy envelope"; exit 1; }
  grep -q '"nodes": 3' /tmp/approx_ci_cluster_stats.json \
    || { echo "node $N stats missing cluster topology"; exit 1; }
  if ! grep -q '"gossip_frames_sent": 0,' /tmp/approx_ci_cluster_stats.json; then
    GOSSIP_SENT=$((GOSSIP_SENT + 1))
  fi
  # STATS is one line of JSON: lift each value by its key, not by line.
  DR=$(sed -n 's/.*"gossip_digest_rounds": \([0-9]*\).*/\1/p' \
    /tmp/approx_ci_cluster_stats.json)
  PB=$(sed -n 's/.*"gossip_bytes_sent": \([0-9]*\).*/\1/p' \
    /tmp/approx_ci_cluster_stats.json)
  DIGEST_ROUNDS=$((DIGEST_ROUNDS + ${DR:-0}))
  PEER_BYTES=$((PEER_BYTES + ${PB:-0}))
done
[ "$GOSSIP_SENT" -ge 2 ] \
  || { echo "gossip never flowed ($GOSSIP_SENT nodes sent frames)"; exit 1; }
# Digest anti-entropy must have run (the restart heal depends on it),
# and steady-state peer traffic must stay compact: the run pushed
# 1.2M ops, so a generous 64 B/op ceiling still catches a fall-back
# to full-state blasts (which measure in the hundreds of B/op).
[ "$DIGEST_ROUNDS" -gt 0 ] \
  || { echo "digest anti-entropy never ran"; exit 1; }
BPO_OK=$(awk "BEGIN { print ($PEER_BYTES / 1200000 <= 64) ? 1 : 0 }")
[ "$BPO_OK" -eq 1 ] \
  || { echo "peer traffic too heavy: $PEER_BYTES bytes over 1.2M ops"; exit 1; }
kill "$NODE0_PID" "$NODE1_PID" "$NODE2_PID" 2>/dev/null || true
wait "$NODE0_PID" "$NODE1_PID" "$NODE2_PID" 2>/dev/null || true
trap - EXIT
rm -f "${CLBASE}"_*.sock /tmp/approx_ci_cluster_lg.txt \
  /tmp/approx_ci_cluster_stats.json

echo "CI checks passed."
