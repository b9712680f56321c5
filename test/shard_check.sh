#!/usr/bin/env bash
# Shard gate (dune build @shard-check; chained into @refactor-check):
# the decomposition-sharded build against the sequential build on the
# same graph — the sharded selection must verify as a valid f-FT
# spanner, must stay within the O(log n) size factor of the sequential
# selection, and must be byte-identical at --jobs 1/2/4 and across
# origins (a parsed text graph and its mapped .ftsb copy); dk11
# must be byte-identical at every jobs count too, and --shard must not
# change its selection.  A weighted geometric leg runs the same jobs,
# origin and verify checks on the weighted cluster path.
#   $1 = ftspan CLI binary
set -u
BIN="$1"
TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT
fail() { echo "shard_check FAILED: $1" >&2; exit 1; }

"$BIN" generate --family gnp -n 120 -p 0.08 --connect --seed 9 -o "$TMP/g.graph" \
  > /dev/null || fail "graph generation"
"$BIN" generate --family gnp -n 120 -p 0.08 --connect --seed 9 -o "$TMP/g.ftsb" \
  > /dev/null || fail "binary graph generation"

# ---- selection validity: shard build, then ftspan verify ------------
"$BIN" build --seed 7 -k 2 -f 1 --shard "$TMP/g.graph" -o "$TMP/shard.sel" \
  > "$TMP/shard.out" || fail "sharded build"
grep -q "^shard: " "$TMP/shard.out" || fail "sharded build must print shard stats"
"$BIN" verify -k 2 -f 1 --trials 60 "$TMP/g.graph" "$TMP/shard.sel" \
  > "$TMP/verify.out" || fail "sharded selection does not verify"

# ---- size vs sequential: within the log-n factor --------------------
"$BIN" build --seed 7 -k 2 -f 1 "$TMP/g.graph" -o "$TMP/seq.sel" \
  > /dev/null || fail "sequential build"
shard_size=$(wc -l < "$TMP/shard.sel")
seq_size=$(wc -l < "$TMP/seq.sel")
# ceil(log2 120) = 7
[ "$shard_size" -le $((seq_size * 7)) ] \
  || fail "sharded size $shard_size exceeds 7x sequential $seq_size"

# ---- jobs determinism: byte-identical selections --------------------
for j in 2 4; do
  "$BIN" build --seed 7 -k 2 -f 1 --shard -j "$j" "$TMP/g.graph" \
    -o "$TMP/shard-j$j.sel" > /dev/null || fail "sharded build at --jobs $j"
  cmp -s "$TMP/shard.sel" "$TMP/shard-j$j.sel" \
    || fail "sharded selection differs at --jobs $j"
done

# ---- origin determinism: parsed (text) vs mapped (.ftsb) -------------
"$BIN" build --seed 7 -k 2 -f 1 --shard "$TMP/g.ftsb" \
  -o "$TMP/shard-mapped.sel" > /dev/null || fail "sharded build from .ftsb"
cmp -s "$TMP/shard.sel" "$TMP/shard-mapped.sel" \
  || fail "sharded selection differs across origins"

# ---- weighted leg: the cluster stage on a weighted geometric graph ---
"$BIN" generate --family geometric -n 300 -p 0.12 --weights 1,10 --seed 9 \
  -o "$TMP/w.graph" > /dev/null || fail "weighted graph generation"
"$BIN" generate --family geometric -n 300 -p 0.12 --weights 1,10 --seed 9 \
  -o "$TMP/w.ftsb" > /dev/null || fail "weighted binary graph generation"
"$BIN" build --seed 7 -k 2 -f 1 --shard "$TMP/w.graph" -o "$TMP/w.sel" \
  > /dev/null || fail "weighted sharded build"
"$BIN" verify -k 2 -f 1 --trials 60 "$TMP/w.graph" "$TMP/w.sel" \
  > /dev/null || fail "weighted sharded selection does not verify"
for j in 2 4; do
  "$BIN" build --seed 7 -k 2 -f 1 --shard -j "$j" "$TMP/w.graph" \
    -o "$TMP/w-j$j.sel" > /dev/null || fail "weighted sharded build at --jobs $j"
  cmp -s "$TMP/w.sel" "$TMP/w-j$j.sel" \
    || fail "weighted sharded selection differs at --jobs $j"
done
"$BIN" build --seed 7 -k 2 -f 1 --shard "$TMP/w.ftsb" \
  -o "$TMP/w-mapped.sel" > /dev/null || fail "weighted sharded build from .ftsb"
cmp -s "$TMP/w.sel" "$TMP/w-mapped.sel" \
  || fail "weighted sharded selection differs across origins"

# ---- dk11: one selection with or without --shard, at every jobs count
# (on a dense graph, where the reduction's union leaves edges out, so a
# different sampling stream shows up as a different selection)
"$BIN" generate --family gnp -n 80 -p 0.8 --seed 9 -o "$TMP/dense.graph" \
  > /dev/null || fail "dense graph generation"
"$BIN" build --seed 7 -k 2 -f 1 --algo dk11 "$TMP/dense.graph" \
  -o "$TMP/dk.sel" > /dev/null || fail "dk11 build"
"$BIN" build --seed 7 -k 2 -f 1 --algo dk11 --shard "$TMP/dense.graph" \
  -o "$TMP/dk-shard.sel" > /dev/null || fail "dk11 sharded build"
cmp -s "$TMP/dk.sel" "$TMP/dk-shard.sel" \
  || fail "dk11 selection differs with --shard"
[ "$(wc -l < "$TMP/dk.sel")" -lt 2537 ] \
  || fail "dk11 kept every edge of the dense graph (m = 2537)"
for j in 2 4; do
  "$BIN" build --seed 7 -k 2 -f 1 --algo dk11 --shard -j "$j" "$TMP/dense.graph" \
    -o "$TMP/dk-j$j.sel" > /dev/null || fail "dk11 sharded build at --jobs $j"
  cmp -s "$TMP/dk.sel" "$TMP/dk-j$j.sel" \
    || fail "dk11 sharded selection differs at --jobs $j"
done

echo "shard_check OK"
