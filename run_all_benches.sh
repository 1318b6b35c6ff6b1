#!/usr/bin/env bash
# Regenerates every table and figure of the paper's evaluation.
# Build first: cargo build --release --workspace
# Usage: ./run_all_benches.sh [| tee bench_output.txt]
set -euo pipefail
BIN=target/release

# Fail loudly if the release binaries are missing rather than letting a
# half-built tree silently skip harnesses.
for b in table1_features table2_datasets table3_systems table_single_machine \
         table4a_horizontal table4b_vertical table4c_single table5a_cache \
         table5b_alpha fig2_crossover kernel_crossover ordering_effect \
         bundling_effect nscale_phases ablations sched_tail sched_cluster \
         metrics_overhead graph_storage net_throughput; do
  if [ ! -x "$BIN/$b" ]; then
    echo "error: $BIN/$b not found or not executable — run: cargo build --release --workspace" >&2
    exit 1
  fi
done

banner() { echo; echo "################################################################"; echo "## $1"; echo "################################################################"; }

banner "Table I — feature comparison"
"$BIN/table1_features"
banner "Table II — datasets"
"$BIN/table2_datasets" --scale 1
banner "Table III — distributed systems comparison"
"$BIN/table3_systems" --scale 0.2
banner "§VI — single-machine systems (RStream-like, Nuri-like)"
"$BIN/table_single_machine" --scale 1
banner "Table IV(a) — horizontal scalability"
"$BIN/table4a_horizontal" --scale 0.35
banner "Table IV(b) — vertical scalability"
"$BIN/table4b_vertical" --scale 0.3
banner "Table IV(c) — single-machine scalability"
"$BIN/table4c_single" --scale 0.6
banner "Table V(a) — vertex cache capacity"
"$BIN/table5a_cache" --scale 0.5
banner "Table V(b) — GC overflow tolerance α"
"$BIN/table5b_alpha" --scale 0.5
banner "Fig. 2 — IO vs CPU crossover"
"$BIN/fig2_crossover"
banner "Kernel selection — sorted-list vs bitset miners"
"$BIN/kernel_crossover" --scale 0.7
banner "§VI — vertex-ordering effect (Skitter anomaly)"
"$BIN/ordering_effect" --scale 0.6
banner "Future work [38] — low-degree task bundling"
"$BIN/bundling_effect" --scale 0.4
banner "§II — NScale construct-then-mine phases"
"$BIN/nscale_phases" --scale 0.3
banner "Design ablations"
"$BIN/ablations" --scale 0.35
banner "Tail-latency scheduler — intra-worker stealing + parking"
"$BIN/sched_tail" --scale 1
banner "Cluster-wide stealing — straggler splitting ablations"
"$BIN/sched_cluster" --scale 1
banner "Observability — metrics & tracing overhead"
"$BIN/metrics_overhead" --scale 1
banner "TCP data plane — evented throughput vs previous BENCH_net.json"
"$BIN/net_throughput" --scale 1
banner "Compressed storage — ratio, decode cost, peak RSS"
# /usr/bin/time -v reports the harness's own peak RSS next to the
# per-phase VmHWM figures the binary writes into BENCH_storage.json.
if command -v /usr/bin/time >/dev/null && /usr/bin/time -v true 2>/dev/null; then
  /usr/bin/time -v "$BIN/graph_storage" --scale 1 2>&1 | grep -Ev '^\s*(Command being|User time|System time|Percent|Elapsed|Average|Major|Minor|Voluntary|Involuntary|Swaps|File system|Socket|Signals|Page size|Exit status)'
else
  # No GNU time: the per-phase VmHWM figures are still recorded in
  # BENCH_storage.json by the harness itself.
  "$BIN/graph_storage" --scale 1
fi
echo
echo "all harnesses completed"
