#!/usr/bin/env bash
# Dynamic-service gate (dune build @dynamic-check; chained into
# @refactor-check): replay update/query op scripts through `ftspan
# dynamic` — twice, and again on a 2-worker pool — requiring
# byte-identical transcripts; verify the final selection the replay
# writes against the final graph it also writes; and pin the
# exit-code contract (2 = bad script/usage, 1 = data error during
# replay), mirroring the io_check error classes.
#   $1 = ftspan CLI binary
set -u
BIN="$1"
TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT
fail() { echo "dynamic_check FAILED: $1" >&2; exit 1; }

# ---- script A: self-contained (seeds its own graph with `n`) --------
cat > "$TMP/a.ops" <<'EOF'
# path 0..11 with chords; then queries under faults, deletions, repair
n 12
add 0 1
add 1 2
add 2 3
add 3 4
add 4 5
add 5 6
add 6 7
add 7 8
add 8 9
add 9 10
add 10 11
add 0 2
add 0 4
add 3 7
add 2 9
flush
query 0 11
faults 5
query 0 11
query 2 8
del 3 4
query 0 11
delv 6
query 0 11
query 5 7
EOF

"$BIN" dynamic -k 2 -f 1 "$TMP/a.ops" > "$TMP/a1.out" \
  || fail "script A replay"
"$BIN" dynamic -k 2 -f 1 "$TMP/a.ops" > "$TMP/a2.out" \
  || fail "script A second replay"
cmp -s "$TMP/a1.out" "$TMP/a2.out" || fail "script A replay not deterministic"
grep -q "^seeded:" "$TMP/a1.out" || fail "script A must print the seed line"
grep -q "repair: touched" "$TMP/a1.out" \
  || fail "deletions must report the repair counters"
grep -q "^final:" "$TMP/a1.out" || fail "script A must print the final line"

# query plane on a pool: byte-identical to the sequential transcript
"$BIN" dynamic -k 2 -f 1 --jobs 2 "$TMP/a.ops" > "$TMP/a-j2.out" \
  || fail "script A replay on 2 workers"
cmp -s "$TMP/a1.out" "$TMP/a-j2.out" || fail "--jobs 2 transcript differs"

# ---- replay -> verify: the maintained selection is a real spanner ---
"$BIN" dynamic -k 2 -f 1 "$TMP/a.ops" -o "$TMP/a-sel.txt" \
  --out-graph "$TMP/a-final.graph" > /dev/null || fail "script A with outputs"
"$BIN" verify -k 2 -f 1 --exhaustive "$TMP/a-final.graph" "$TMP/a-sel.txt" \
  | grep -q "OK" || fail "final selection must verify exhaustively"

# ---- script B: seeded from a generated graph (--graph) --------------
"$BIN" generate --family gnp -n 40 -p 0.15 --connect --seed 7 \
  -o "$TMP/g.graph" > /dev/null || fail "generate"
cat > "$TMP/b.ops" <<'EOF'
query 0 20
query 5 35
delv 3
query 0 20
flush
EOF
"$BIN" dynamic -k 2 -f 1 --graph "$TMP/g.graph" "$TMP/b.ops" > "$TMP/b1.out" \
  || fail "script B replay"
"$BIN" dynamic -k 2 -f 1 --graph "$TMP/g.graph" "$TMP/b.ops" > "$TMP/b2.out" \
  || fail "script B second replay"
cmp -s "$TMP/b1.out" "$TMP/b2.out" || fail "script B replay not deterministic"

# The seed is the greedy build itself: a replay with no updates writes
# build's selection (-j 1: build decides in blocks of 512 when jobs > 1)
# and the input graph back unchanged.
printf 'query 0 20\nfaults 5\nquery 5 35\n' > "$TMP/b-read.ops"
"$BIN" dynamic -k 2 -f 1 --graph "$TMP/g.graph" "$TMP/b-read.ops" \
  -o "$TMP/b-sel.txt" --out-graph "$TMP/b-final.graph" > /dev/null \
  || fail "script B read-only replay"
"$BIN" build -j 1 -k 2 -f 1 "$TMP/g.graph" -o "$TMP/build-sel.txt" > /dev/null \
  || fail "build"
cmp -s "$TMP/b-sel.txt" "$TMP/build-sel.txt" \
  || fail "a replay with no updates must select what build selects"
cmp -s "$TMP/b-final.graph" "$TMP/g.graph" \
  || fail "a replay with no updates must write the input graph back"

# ---- exit-code contract --------------------------------------------
# usage/spec errors -> 2
printf 'bogus 1 2\n' > "$TMP/bad.ops"
"$BIN" dynamic "$TMP/bad.ops" >/dev/null 2>&1
[ $? -eq 2 ] || fail "unknown directive must exit 2"
"$BIN" dynamic --graph "$TMP/g.graph" "$TMP/a.ops" >/dev/null 2>&1
[ $? -eq 2 ] || fail "both --graph and a leading n must exit 2"
printf 'query 0 1\n' > "$TMP/noseed.ops"
"$BIN" dynamic "$TMP/noseed.ops" >/dev/null 2>&1
[ $? -eq 2 ] || fail "a script with no seed graph must exit 2"

# data errors during replay -> 1
printf 'n 4\nadd 0 1\ndel 1 2\n' > "$TMP/del-absent.ops"
"$BIN" dynamic "$TMP/del-absent.ops" >/dev/null 2>&1
[ $? -eq 1 ] || fail "deleting an absent edge must exit 1"
printf 'n 4\nadd 0 1\nadd 0 1\n' > "$TMP/dup.ops"
"$BIN" dynamic "$TMP/dup.ops" >/dev/null 2>&1
[ $? -eq 1 ] || fail "a duplicate insert must exit 1"

echo "dynamic_check OK"
