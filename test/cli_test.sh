#!/usr/bin/env bash
# End-to-end integration test of the ftspan CLI: every subcommand, plus
# failure-path checks.  Run by dune as part of @runtest with the freshly
# built binaries: $1 = ftspan CLI, $2 = bench/main.exe, $3 =
# bench/compare.exe, $4 = the checked-in BENCH_BASELINE.json.
set -u
BIN="$1"
BENCH="$2"
COMPARE="$3"
BASELINE="$4"
TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT
fail() { echo "cli_test FAILED: $1" >&2; exit 1; }

# generate + info
"$BIN" generate --family gnp -n 60 -p 0.15 --connect --seed 11 -o "$TMP/g.graph" \
  >/dev/null || fail "generate gnp"
"$BIN" info "$TMP/g.graph" | grep -q "n=60" || fail "info reports n"

# binary container: same seed into a .ftsb file, the same spanner out of
# it; the mapped file and the parsed text graph share one int32 layout
"$BIN" generate --family gnp -n 60 -p 0.15 --connect --seed 11 -o "$TMP/g.ftsb" \
  | grep -q "ftspan.graph.v1" || fail "generate .ftsb"
"$BIN" info "$TMP/g.ftsb" | grep -q "^storage: int32 CSR, [0-9]* adjacency bytes$" \
  || fail "info on .ftsb reports int32 storage"
"$BIN" info "$TMP/g.graph" | grep -q "^storage: int32 CSR, [0-9]* adjacency bytes$" \
  || fail "info on text reports int32 storage"
"$BIN" build -k 2 -f 1 "$TMP/g.graph" -o "$TMP/sel-a.txt" >/dev/null \
  || fail "build text"
"$BIN" build -k 2 -f 1 "$TMP/g.ftsb" -o "$TMP/sel-b.txt" >/dev/null \
  || fail "build .ftsb"
cmp -s "$TMP/sel-a.txt" "$TMP/sel-b.txt" || fail ".ftsb selection differs"
# one layout; no flag picks it
"$BIN" build -k 2 -f 1 --backend int32 "$TMP/g.graph" 2>&1 >/dev/null \
  | grep -q "unknown option '--backend'" || fail "build --backend must be unknown"
"$BENCH" --backend int32 >/dev/null 2>&1
[ $? -eq 2 ] || fail "bench --backend must exit 2"
printf 'junk\n' > "$TMP/junk.ftsb"
"$BIN" info "$TMP/junk.ftsb" >/dev/null 2>&1
[ $? -eq 2 ] || fail "junk .ftsb must exit 2"
# saves go through a temporary file and a rename, except onto a target
# that is not a regular file: a pipe, or a symlink (written through, so
# the link stays a link and the file it names gets the graph)
"$BIN" generate --family cycle-chords -n 6 -o /dev/stdout | grep -q "^p 6 9$" \
  || fail "generate -o /dev/stdout must write the graph to the pipe"
# (appending, so the status line lands after the graph, not over it)
: > "$TMP/out.graph"
"$BIN" generate --family cycle-chords -n 6 -o /dev/stdout >> "$TMP/out.graph" \
  || fail "generate -o /dev/stdout >> file"
grep -q "^p 6 9$" "$TMP/out.graph" \
  || fail "generate -o /dev/stdout must write the graph to the redirected file"
: > "$TMP/real.graph"
ln -s "$TMP/real.graph" "$TMP/link.graph"
"$BIN" generate --family cycle-chords -n 6 -o "$TMP/link.graph" >/dev/null \
  || fail "generate -o symlink"
[ -L "$TMP/link.graph" ] || fail "saving through a symlink must keep the link"
grep -q "^p 6 9$" "$TMP/real.graph" \
  || fail "saving through a symlink must write the file it names"
# a vertex count past the int32 bound is a format error, rejected before
# anything is allocated
for n in 2147483647 4611686018427387903; do
  printf 'p %s 0\n' "$n" > "$TMP/huge.graph"
  "$BIN" info "$TMP/huge.graph" >/dev/null 2>&1
  [ $? -eq 2 ] || fail "p $n must exit 2"
  printf 'n %s\nquery 0 1\n' "$n" > "$TMP/huge.ops"
  "$BIN" dynamic -k 2 -f 1 "$TMP/huge.ops" >/dev/null 2>&1
  [ $? -eq 2 ] || fail "dynamic script n $n must exit 2"
done

# weighted generation
"$BIN" generate --family geometric -n 50 -p 0.3 --connect --seed 4 -o "$TMP/w.graph" \
  >/dev/null || fail "generate geometric"

# hard lower-bound family: the greedy must keep everything
"$BIN" generate --family hard -n 3 --extra 2 -o "$TMP/hard.graph" >/dev/null \
  || fail "generate hard"
"$BIN" build -k 2 -f 2 "$TMP/hard.graph" | grep -q "208/208 edges" \
  || fail "hard instance must force all 208 edges"

# build + verify round trip (sampled and exhaustive)
"$BIN" build -k 2 -f 1 --algo greedy-poly "$TMP/g.graph" -o "$TMP/sel.txt" \
  >/dev/null || fail "build"
"$BIN" verify -k 2 -f 1 --trials 40 "$TMP/g.graph" "$TMP/sel.txt" \
  | grep -q "OK" || fail "verify sampled"
"$BIN" verify -k 2 -f 1 --exhaustive "$TMP/g.graph" "$TMP/sel.txt" \
  | grep -q "OK" || fail "verify exhaustive"

# a broken selection must be caught (empty selection of a connected graph)
: > "$TMP/empty.txt"
if "$BIN" verify -k 2 -f 0 --exhaustive "$TMP/g.graph" "$TMP/empty.txt" \
  >/dev/null 2>&1; then
  fail "verify must reject the empty selection"
fi

# prune keeps validity
"$BIN" generate --family gnp -n 24 -p 0.35 --connect --seed 3 -o "$TMP/s.graph" \
  >/dev/null || fail "generate small"
# -j 1 keeps the batch default at 1 under FTSPAN_JOBS, so the pruned line
# below is pinned for every jobs count
"$BIN" build -j 1 -k 2 -f 1 "$TMP/s.graph" -o "$TMP/ssel.txt" >/dev/null \
  || fail "build small"
"$BIN" prune -k 2 -f 1 "$TMP/s.graph" "$TMP/ssel.txt" -o "$TMP/pruned.txt" \
  | grep -qxF "pruned 10 of 58 edges (17.2%); 48 remain" || fail "prune"
"$BIN" verify -k 2 -f 1 --exhaustive "$TMP/s.graph" "$TMP/pruned.txt" \
  | grep -q "OK" || fail "pruned selection stays valid"

# --jobs: a pooled build must produce the bit-identical selection (the
# Exec.parallel_for determinism contract), and the parallel verify
# batteries the same verdict.  --batch is pinned: its default flips to
# 512 when jobs > 1, which intentionally changes the spanner.
"$BIN" build -k 2 -f 1 --jobs 1 --batch 64 "$TMP/g.graph" -o "$TMP/sel-seq.txt" \
  >/dev/null || fail "build --jobs 1"
"$BIN" build -k 2 -f 1 -j 2 --batch 64 "$TMP/g.graph" -o "$TMP/sel-par.txt" \
  >/dev/null || fail "build -j 2"
cmp -s "$TMP/sel-seq.txt" "$TMP/sel-par.txt" \
  || fail "-j 2 selection must be bit-identical to --jobs 1"
"$BIN" verify -k 2 -f 1 -j 2 --trials 40 "$TMP/g.graph" "$TMP/sel-par.txt" \
  | grep -q "OK" || fail "verify -j 2"
"$BIN" build -k 2 -f 1 --jobs 0 "$TMP/g.graph" >/dev/null 2>&1 \
  && fail "jobs=0 accepted"
"$BIN" build -k 2 -f 1 -j 2 --batch 0 "$TMP/g.graph" >/dev/null 2>&1 \
  && fail "batch=0 accepted"

# --shard: the decomposition-sharded build — valid output, shard stats
# on stdout, bit-identical selection at --jobs 4, and rejected by
# subcommands that have no sharded path (dynamic)
"$BIN" build --seed 7 -k 2 -f 1 --shard "$TMP/g.graph" -o "$TMP/shard.txt" \
  | grep -q "^shard: " || fail "build --shard must print shard stats"
"$BIN" verify -k 2 -f 1 --trials 40 "$TMP/g.graph" "$TMP/shard.txt" \
  | grep -q "OK" || fail "verify sharded selection"
"$BIN" build --seed 7 -k 2 -f 1 --shard --jobs 4 "$TMP/g.graph" \
  -o "$TMP/shard-j4.txt" >/dev/null || fail "build --shard --jobs 4"
cmp -s "$TMP/shard.txt" "$TMP/shard-j4.txt" \
  || fail "--shard selection must be bit-identical at --jobs 4"

# dot export
"$BIN" build -k 2 -f 1 "$TMP/s.graph" --dot "$TMP/s.dot" >/dev/null || fail "build --dot"
grep -q "graph ftspan" "$TMP/s.dot" || fail "dot output malformed"

# dynamic: replay an update/query script against the generated graph,
# byte-identical across runs and --jobs counts, and the final selection
# it writes must verify against the final graph it also writes
cat > "$TMP/dyn.ops" <<'EOF'
query 0 30
faults 5
query 0 30
delv 3
flush
query 0 30
EOF
"$BIN" dynamic -k 2 -f 1 --graph "$TMP/g.graph" "$TMP/dyn.ops" \
  -o "$TMP/dyn-sel.txt" --out-graph "$TMP/dyn-final.graph" > "$TMP/dyn1.out" \
  || fail "dynamic replay"
grep -q "repair: touched" "$TMP/dyn1.out" || fail "dynamic must report repair"
"$BIN" dynamic -k 2 -f 1 -j 2 --graph "$TMP/g.graph" "$TMP/dyn.ops" \
  > "$TMP/dyn2.out" || fail "dynamic -j 2"
grep -v "^selection written\|^final graph written" "$TMP/dyn1.out" > "$TMP/dyn1.cmp"
cmp -s "$TMP/dyn1.cmp" "$TMP/dyn2.out" \
  || fail "dynamic -j 2 transcript must match --jobs 1"
"$BIN" verify -k 2 -f 1 --trials 40 "$TMP/dyn-final.graph" "$TMP/dyn-sel.txt" \
  | grep -q "OK" || fail "dynamic final selection must verify"
printf 'bogus\n' > "$TMP/dyn-bad.ops"
"$BIN" dynamic "$TMP/dyn-bad.ops" >/dev/null 2>&1
[ $? -eq 2 ] || fail "bad dynamic script must exit 2"
# --shard has no dynamic path: cmdliner must reject the unknown flag
"$BIN" dynamic -k 2 -f 1 --shard "$TMP/dyn.ops" >/dev/null 2>&1 \
  && fail "dynamic must reject --shard"

# oracle, local, congest
"$BIN" oracle -k 2 --queries 200 "$TMP/g.graph" | grep -q "guarantee 3" \
  || fail "oracle"
"$BIN" local -k 2 -f 1 "$TMP/g.graph" | grep -q "rounds:" || fail "local"
"$BIN" congest -k 2 -f 1 -c 0.5 "$TMP/g.graph" | grep -q "iterations:" \
  || fail "congest"

# chaos: an unreliable network must not change what gets selected — the
# reliable-delivery layer masks drop/dup/reorder, it only costs rounds.
CHAOS="drop=0.2,dup=0.05,reorder=4,seed=5"
"$BIN" congest --seed 11 -k 2 -f 1 -c 0.5 "$TMP/s.graph" > "$TMP/congest-clean.txt" \
  || fail "congest clean reference"
"$BIN" congest --seed 11 -k 2 -f 1 -c 0.5 --chaos "$CHAOS" "$TMP/s.graph" \
  > "$TMP/congest-chaos.txt" || fail "congest --chaos must terminate"
[ "$(grep '^spanner:' "$TMP/congest-clean.txt")" = \
  "$(grep '^spanner:' "$TMP/congest-chaos.txt")" ] \
  || fail "congest --chaos must select the same spanner as the clean run"
# the congestion schedule, pinned: retransmissions stretch the base BS
# steps, never the phase-1 cost or the overlap
grep -qxF 'rounds: 29 total = 7 phase-1 + 22 phase-2 (base 5, overlap 16)' \
  "$TMP/congest-clean.txt" || fail "congest clean rounds line changed"
grep -qxF 'rounds: 1458 total = 7 phase-1 + 1451 phase-2 (base 399, overlap 16)' \
  "$TMP/congest-chaos.txt" || fail "congest --chaos rounds line changed"
# same seed, same schedule: the lossy run replays bit-for-bit
"$BIN" congest --seed 11 -k 2 -f 1 -c 0.5 --chaos "$CHAOS" "$TMP/s.graph" \
  > "$TMP/congest-chaos2.txt" || fail "congest --chaos rerun"
cmp -s "$TMP/congest-chaos.txt" "$TMP/congest-chaos2.txt" \
  || fail "congest --chaos must be deterministic for a fixed seed"
# the retransmit machinery shows up in the telemetry, and only there
"$BIN" congest --seed 11 -k 2 -f 1 -c 0.5 --chaos "$CHAOS" --metrics=pretty \
  "$TMP/s.graph" > "$TMP/congest-chaos-metrics.txt" || fail "congest --chaos --metrics"
grep -q "net.retries" "$TMP/congest-chaos-metrics.txt" \
  || fail "chaos metrics must report net.retries"
grep -q "net.drops" "$TMP/congest-chaos-metrics.txt" \
  || fail "chaos metrics must report net.drops"
"$BIN" local --seed 11 -k 2 -f 1 --chaos "$CHAOS" "$TMP/s.graph" \
  | grep -q "rounds:" || fail "local --chaos"
"$BIN" congest -k 2 -f 1 --chaos "drop=1.5" "$TMP/s.graph" >/dev/null 2>&1 \
  && fail "chaos spec with drop > 1 accepted"
"$BIN" congest -k 2 -f 1 --chaos "frobnicate=1" "$TMP/s.graph" >/dev/null 2>&1 \
  && fail "unknown chaos key accepted"
# specs no run can use exit 2 from both simulators: a lag beyond the
# round budget, nan/infinite times or spike factors, and a crash node
# that is not a vertex of the loaded graph
for spec in reorder=255 crash=3@nan crash=3@1,recover=3@nan \
  crash=3@inf spikex=nan spikex=inf crash=99@1 crash=3@1,crash=99@1,seed=2; do
  for cmd in congest local; do
    "$BIN" $cmd -k 2 -f 1 --chaos "$spec" "$TMP/s.graph" >/dev/null 2>&1
    [ $? -eq 2 ] || fail "$cmd --chaos $spec must exit 2"
  done
done

# dk11 and exponential algorithms through the facade
"$BIN" build -k 2 -f 1 --algo dk11 "$TMP/s.graph" >/dev/null || fail "build dk11"
"$BIN" build -k 2 -f 1 --algo greedy-exp "$TMP/s.graph" > "$TMP/exp.out" \
  || fail "build exp"
head -n 1 "$TMP/exp.out" | grep -qxF \
  "greedy-exp  k=2 f=1 VFT n=24: 55/97 edges (56.7%), weight 55.0/97.0, bound ratio 0.4678" \
  || fail "build exp selects another spanner"

# telemetry: --metrics pretty listing and --metrics=json schema
# (bare --metrics goes after the positional: with an optional value the
# flag would otherwise swallow the graph path)
"$BIN" build -k 2 -f 1 "$TMP/s.graph" --metrics | grep -q "lbc.calls" \
  || fail "--metrics pretty must list lbc.calls"
"$BIN" build -k 2 -f 1 --metrics=json "$TMP/s.graph" > "$TMP/metrics.json" \
  || fail "build --metrics=json"
grep -q '"schema": "ftspan.metrics.v1"' "$TMP/metrics.json" \
  || fail "metrics json schema tag"
grep -q '"lbc.bfs_rounds"' "$TMP/metrics.json" || fail "metrics json bfs rounds"
grep -q '"wall_time_s"' "$TMP/metrics.json" || fail "metrics json wall time"
"$BIN" local -k 2 -f 1 --metrics=json "$TMP/s.graph" | grep -q '"net.messages"' \
  || fail "local --metrics=json must report net counters"

# event trace: native export carries the schema tag and per-edge LBC events
"$BIN" build -k 2 -f 1 "$TMP/s.graph" --trace "$TMP/t.json" \
  | grep -q "trace written" || fail "build --trace must report the file"
grep -q '"schema": "ftspan.trace.v1"' "$TMP/t.json" || fail "trace schema tag"
grep -q '"lbc_begin"' "$TMP/t.json" || fail "trace must contain lbc_begin events"
grep -q '"greedy_edge"' "$TMP/t.json" || fail "trace must contain greedy_edge events"

# ... and the chrome flavour is an event array with the required keys
"$BIN" build -k 2 -f 1 "$TMP/s.graph" --trace "$TMP/t-chrome.json,chrome" \
  >/dev/null || fail "build --trace FILE,chrome"
grep -q '"ph"' "$TMP/t-chrome.json" || fail "chrome trace ph key"
grep -q '"pid"' "$TMP/t-chrome.json" || fail "chrome trace pid key"
grep -q '"tid"' "$TMP/t-chrome.json" || fail "chrome trace tid key"

# congest runs trace per-round message traffic
"$BIN" congest -k 2 -f 1 -c 0.5 "$TMP/s.graph" --trace "$TMP/t-congest.json" \
  >/dev/null || fail "congest --trace"
grep -q '"congest_round"' "$TMP/t-congest.json" \
  || fail "congest trace must contain congest_round events"

# bench: a filter matching nothing must still write a valid empty report
"$BENCH" --json "$TMP/bench-empty.json" --match no-such-job \
  | grep -q "no jobs selected" || fail "bench empty-selection notice"
grep -q '"schema": "ftspan.metrics.v1"' "$TMP/bench-empty.json" \
  || fail "empty bench report schema tag"
grep -q '"entries": \[\]' "$TMP/bench-empty.json" \
  || fail "empty bench report must have an empty entries array"

# bench --jobs: the parallel smoke entry runs on a 2-worker pool and its
# metrics document still carries the entry (pool.* series are skipped by
# the comparison, not by the report)
"$BENCH" --jobs 2 --smoke --match greedy-parallel \
  --json "$TMP/bench-jobs.json" >/dev/null || fail "bench --jobs 2"
grep -q '"id": "greedy-parallel"' "$TMP/bench-jobs.json" \
  || fail "bench --jobs must run greedy-parallel"
"$BENCH" --jobs 0 --smoke >/dev/null 2>&1 && fail "bench jobs=0 accepted"

# bench regression gate: a fresh smoke run passes against the checked-in
# baseline (generous slack: counters are deterministic, wall time is not)...
"$BENCH" --smoke --json "$TMP/bench-run.json" >/dev/null || fail "bench --smoke"
"$COMPARE" --slack 2 "$BASELINE" "$TMP/bench-run.json" >/dev/null \
  || fail "compare must accept an in-tolerance smoke run"
# refactor gate (the @refactor-check alias chains this same comparison
# after build + runtest): counters must hold at the default, tight
# tolerance — only wall time gets extra slack, since it is the one
# nondeterministic metric on a shared runner
"$COMPARE" --tol-wall 4 --tol-wall-abs 1 "$BASELINE" "$TMP/bench-run.json" \
  >/dev/null || fail "refactor gate: counters must hold at default tolerance"
# ... and an artificially inflated counter trips it
sed 's/"lbc.calls": [0-9]*/"lbc.calls": 999999999/' "$TMP/bench-run.json" \
  > "$TMP/bench-inflated.json"
if "$COMPARE" --slack 2 "$BASELINE" "$TMP/bench-inflated.json" >/dev/null; then
  fail "compare must reject an inflated counter"
fi
# compare's command line is usage-class on every malformed invocation
"$COMPARE" --bogus "$BASELINE" "$TMP/bench-run.json" >/dev/null 2>&1
[ $? -eq 2 ] || fail "compare with an unknown option must exit 2"
"$COMPARE" "$BASELINE" "$TMP/bench-run.json" --slack >/dev/null 2>&1
[ $? -eq 2 ] || fail "compare with a missing option value must exit 2"

# trace sampling: a sampled run reports its accounting, and the same
# sampling seed replays the same kept set bit-for-bit (jobs pinned to 1:
# parallel emission order is legitimately nondeterministic)
"$BIN" build -k 2 -f 1 --jobs 1 --seed 11 "$TMP/s.graph" \
  --trace "$TMP/t-s1.json,sample=0.25,seed=7" | grep -q "sampled" \
  || fail "sampled trace must report sampled count"
"$BIN" build -k 2 -f 1 --jobs 1 --seed 11 "$TMP/s.graph" \
  --trace "$TMP/t-s2.json,sample=0.25,seed=7" >/dev/null \
  || fail "sampled trace rerun"
sed '/"created_unix"/d; /"ts_s"/d' "$TMP/t-s1.json" > "$TMP/t-s1.stable"
sed '/"created_unix"/d; /"ts_s"/d' "$TMP/t-s2.json" > "$TMP/t-s2.stable"
cmp -s "$TMP/t-s1.stable" "$TMP/t-s2.stable" \
  || fail "same sampling seed must keep the identical event set"
# ... and a different seed keeps a different set
"$BIN" build -k 2 -f 1 --jobs 1 --seed 11 "$TMP/s.graph" \
  --trace "$TMP/t-s3.json,sample=0.25,seed=8" >/dev/null \
  || fail "sampled trace with another seed"
sed '/"created_unix"/d; /"ts_s"/d' "$TMP/t-s3.json" > "$TMP/t-s3.stable"
cmp -s "$TMP/t-s1.stable" "$TMP/t-s3.stable" \
  && fail "different sampling seeds must not keep the identical event set"

# causal trace analysis: a lossy run small enough not to overflow the
# trace ring (dropped=0) reconstructs a lifecycle report whose
# retransmit total reconciles EXACTLY with the net.retries counter from
# the same run's metrics document, and two same-seed runs analyze to
# the byte-identical report (the analyzer reads the simulated clock,
# never wall time)
"$BIN" generate --family gnp -n 12 -p 0.5 --connect --seed 7 -o "$TMP/tiny.graph" \
  >/dev/null || fail "generate tiny"
# the largest reorder stays inside the round budget: both simulators
# finish, also when every copy is dropped and every packet is given up
for spec in reorder=254 drop=1,reorder=254; do
  for cmd in congest local; do
    timeout 60 "$BIN" $cmd -k 2 -f 1 --chaos "$spec" "$TMP/tiny.graph" >/dev/null \
      || fail "$cmd --chaos $spec must finish"
  done
done
"$BIN" congest --seed 11 -k 2 -f 1 -c 0.5 --chaos "$CHAOS" \
  --trace "$TMP/ct1.json" --metrics=json "$TMP/tiny.graph" \
  > "$TMP/ct1-metrics.json" || fail "congest --chaos --trace"
"$BIN" congest --seed 11 -k 2 -f 1 -c 0.5 --chaos "$CHAOS" \
  --trace "$TMP/ct2.json" "$TMP/tiny.graph" >/dev/null \
  || fail "congest --chaos --trace rerun"
"$COMPARE" --check-trace "$TMP/ct1.json" | grep -q "dropped)" \
  || fail "compare --check-trace must accept the congest trace"
"$COMPARE" --check-trace "$TMP/ct1.json" | grep -q ", 0 dropped)" \
  || fail "reconciliation needs an unsampled, non-overflowing trace"
"$BIN" trace analyze --json "$TMP/ct1.json" > "$TMP/ct1-report.json" \
  || fail "trace analyze --json"
"$BIN" trace analyze --json "$TMP/ct2.json" > "$TMP/ct2-report.json" \
  || fail "trace analyze --json rerun"
cmp -s "$TMP/ct1-report.json" "$TMP/ct2-report.json" \
  || fail "same-seed lossy runs must analyze to the identical report"
RETRANS=$("$BIN" trace analyze "$TMP/ct1.json" \
  | sed -n 's/^fates: \([0-9][0-9]*\) retransmits.*/\1/p')
RETRIES=$(sed -n 's/.*"net.retries": \([0-9][0-9]*\).*/\1/p' "$TMP/ct1-metrics.json")
[ -n "$RETRANS" ] || fail "analyzer must report a retransmit total"
[ -n "$RETRIES" ] || fail "metrics document must report net.retries"
[ "$RETRANS" -gt 0 ] || fail "a lossy run must retransmit at least once"
[ "$RETRANS" = "$RETRIES" ] \
  || fail "analyzer retransmits ($RETRANS) must equal net.retries ($RETRIES)"

# malformed trace documents: not-a-trace is usage-class (exit 2) for
# both the CLI analyzer and the compare gate; a parsable trace that
# violates the structural contract (non-monotonic seqs) is a gate
# failure for --check-trace (exit 1) and still exit 2 for analyze
echo 'not json at all' > "$TMP/bad-trace.json"
"$BIN" trace analyze "$TMP/bad-trace.json" >/dev/null 2>&1
[ $? -eq 2 ] || fail "trace analyze on garbage must exit 2"
"$COMPARE" --check-trace "$TMP/bad-trace.json" >/dev/null 2>&1
[ $? -eq 2 ] || fail "compare --check-trace on garbage must exit 2"
printf '{"schema": "ftspan.metrics.v1"}\n' > "$TMP/wrong-schema.json"
"$BIN" trace analyze "$TMP/wrong-schema.json" >/dev/null 2>&1
[ $? -eq 2 ] || fail "trace analyze on a non-trace schema must exit 2"
"$COMPARE" --check-trace "$TMP/wrong-schema.json" >/dev/null 2>&1
[ $? -eq 2 ] || fail "compare --check-trace on a non-trace schema must exit 2"
"$BIN" trace analyze "$TMP/no-such-trace.json" >/dev/null 2>&1
[ $? -eq 2 ] || fail "trace analyze on a missing file must exit 2"
printf '%s\n' '{"schema": "ftspan.trace.v1", "seen": 2, "sampled": 2,' \
  ' "dropped": 0, "events": [' \
  '  {"seq": 5, "type": "msg_send", "cid": 0, "src": 0, "dst": 1, "at": 1.0, "bits": 8},' \
  '  {"seq": 3, "type": "msg_deliver", "cid": 0, "src": 0, "dst": 1, "at": 2.0}]}' \
  > "$TMP/unordered-trace.json"
"$COMPARE" --check-trace "$TMP/unordered-trace.json" >/dev/null 2>&1
[ $? -eq 1 ] || fail "compare --check-trace on non-monotonic seqs must exit 1"
"$BIN" trace analyze "$TMP/unordered-trace.json" >/dev/null 2>&1
[ $? -eq 2 ] || fail "trace analyze on non-monotonic seqs must exit 2"

# heartbeat stream: ops-paced beats from the CLI validate under the
# stream gate, and the quantile block carries the new latency series
"$BIN" congest --seed 11 -k 2 -f 1 -c 0.5 --chaos "$CHAOS" \
  --metrics-stream "$TMP/hb.jsonl,ops=16" "$TMP/s.graph" \
  | grep -q "metrics stream written" || fail "congest --metrics-stream"
grep -q '"schema":"ftspan.heartbeat.v1"' "$TMP/hb.jsonl" \
  || fail "heartbeat schema tag"
grep -q '"reliable.rtt"' "$TMP/hb.jsonl" \
  || fail "heartbeat must carry the reliable.rtt series"
grep -q '"p99"' "$TMP/hb.jsonl" || fail "heartbeat must carry quantiles"
"$COMPARE" --check-heartbeat "$TMP/hb.jsonl" >/dev/null \
  || fail "compare --check-heartbeat must accept the stream"

# bench heartbeat + sampled trace in one run
"$BENCH" --smoke --match smoke-lbc --metrics-stream "$TMP/hb-bench.jsonl,ops=256" \
  --trace "$TMP/t-bench.json,sample=0.5,seed=3" \
  | grep -q "metrics stream written" || fail "bench --metrics-stream"
"$COMPARE" --check-heartbeat "$TMP/hb-bench.jsonl" >/dev/null \
  || fail "bench heartbeat stream must validate"

# malformed observability specs: bench and the CLI both reject them as
# usage errors (exit 2)
"$BENCH" --trace "$TMP/x.json,sample=nope" --match no-such-job >/dev/null 2>&1
[ $? -eq 2 ] || fail "bench bad sample spec must exit 2"
"$BENCH" --metrics-stream "$TMP/x.jsonl,ops=0" --match no-such-job >/dev/null 2>&1
[ $? -eq 2 ] || fail "bench ops=0 must exit 2"
"$BENCH" --metrics-stream "$TMP/x.jsonl,-1.5" --match no-such-job >/dev/null 2>&1
[ $? -eq 2 ] || fail "bench negative interval must exit 2"
"$BIN" build -k 2 -f 1 "$TMP/s.graph" --trace "$TMP/x.json,sample=2.0" \
  >/dev/null 2>&1 && fail "CLI sample > 1 accepted"
"$BIN" build -k 2 -f 1 "$TMP/s.graph" --metrics-stream "$TMP/x.jsonl,ops=zero" \
  >/dev/null 2>&1 && fail "CLI ops=zero accepted"
"$COMPARE" --check-heartbeat /dev/null >/dev/null 2>&1 \
  && fail "empty heartbeat stream accepted"

# failure paths: unknown family, bad file, bad algo
"$BIN" generate --family nope -n 5 -o "$TMP/x" >/dev/null 2>&1 && fail "bad family accepted"
"$BIN" info /nonexistent.graph >/dev/null 2>&1 && fail "missing file accepted"
"$BIN" build --algo nonsense "$TMP/g.graph" >/dev/null 2>&1 && fail "bad algo accepted"

# exit-code rule: usage and format errors exit 2, a failed check exits 1
"$BIN" build --bogus "$TMP/g.graph" >/dev/null 2>&1
[ $? -eq 2 ] || fail "build --bogus must exit 2"
"$BIN" build -j 0 "$TMP/g.graph" >/dev/null 2>&1
[ $? -eq 2 ] || fail "build -j 0 must exit 2"
printf 'p 3 1\nbogus 0 1\n' > "$TMP/bad-record.graph"
"$BIN" build "$TMP/bad-record.graph" >/dev/null 2>&1
[ $? -eq 2 ] || fail "a text graph with an unrecognized record must exit 2"
"$BIN" build --seed 3 "$TMP/nonexistent.graph" >/dev/null 2>&1
[ $? -eq 2 ] || fail "a missing graph file must exit 2"
"$BENCH" no-such-experiment >/dev/null 2>&1
[ $? -eq 2 ] || fail "bench unknown experiment id must exit 2"
echo 0 > "$TMP/one-edge.sel"
"$BIN" verify -k 2 -f 1 --trials 10 "$TMP/g.graph" "$TMP/one-edge.sel" > "$TMP/one-edge.out" 2>/dev/null
[ $? -eq 1 ] || fail "verify on a violating selection must exit 1"
grep -qxF 'VIOLATION: VFT{48} breaks {0,42}: d_G\F=1, d_H\F=inf' "$TMP/one-edge.out" \
  || fail "verify on a violating selection reports another violation"

# argument checks are usage errors, never an uncaught exception (125)
expect2() { "$@" >/dev/null 2>&1; [ $? -eq 2 ] || fail "$* must exit 2"; }
printf 'n 4\nadd 0 1\n' > "$TMP/k0.ops"
for sub in build local congest oracle; do
  expect2 "$BIN" $sub -k 0 "$TMP/s.graph"
done
expect2 "$BIN" dynamic -k 0 "$TMP/k0.ops"
for algo in greedy-poly greedy-exp dk11; do
  expect2 "$BIN" build --algo $algo -f-1 "$TMP/s.graph"
done
for sub in local congest; do
  expect2 "$BIN" $sub -f-1 "$TMP/s.graph"
done
expect2 "$BIN" dynamic -f-1 "$TMP/k0.ops"
# a non-positive or non-finite DK11 constant would run one iteration
for c in 0 -1 nan inf; do
  expect2 "$BIN" congest -c$c -k 2 -f 1 "$TMP/s.graph"
done
expect2 "$BIN" verify -f-1 "$TMP/s.graph" "$TMP/ssel.txt"
expect2 "$BIN" prune -f-1 "$TMP/s.graph" "$TMP/ssel.txt"
expect2 "$BIN" verify --trials 0 "$TMP/s.graph" "$TMP/ssel.txt"
printf '1\nabc\n' > "$TMP/nonint.sel"
expect2 "$BIN" prune -k 2 -f 1 "$TMP/s.graph" "$TMP/nonint.sel"
printf '1\n99999\n' > "$TMP/range.sel"
expect2 "$BIN" prune -k 2 -f 1 "$TMP/s.graph" "$TMP/range.sel"
expect2 "$BIN" generate --family hypercube -n 70 -o "$TMP/x.graph"
expect2 "$BIN" verify -k 2 -f 9 --exhaustive "$TMP/g.graph" "$TMP/sel.txt"
# generate draws weights from [LO,HI]: only finite 0 < LO <= HI, and a
# finite -p (nan used to write an edgeless gnp, 5,1 and -1,1 to raise)
for w in 5,1 -1,1 0,1 nan,1 1,nan 1,inf; do
  expect2 "$BIN" generate -n 10 "--weights=$w" -o "$TMP/x.graph"
done
for p in nan inf; do
  expect2 "$BIN" generate -n 10 -p "$p" -o "$TMP/x.graph"
done
# a text graph whose weight is not finite and > 0 fails to load (exit 2)
for w in nan inf -1 0; do
  printf 'p 2 1\ne 0 1 %s\n' "$w" > "$TMP/w.graph"
  expect2 "$BIN" info "$TMP/w.graph"
  expect2 "$BIN" build "$TMP/w.graph"
done
# ... and in a dynamic script it is a data error (exit 1)
for w in nan inf -1; do
  printf 'n 3\nadd 0 1 %s\n' "$w" > "$TMP/w.ops"
  "$BIN" dynamic "$TMP/w.ops" >/dev/null 2>&1
  [ $? -eq 1 ] || fail "dynamic insert with weight $w must exit 1"
done

echo "cli_test OK"
