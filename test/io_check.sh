#!/usr/bin/env bash
# Binary graph format gate (dune build @io-check; chained into
# @refactor-check): generate a graph, round-trip it through the
# ftspan.graph.v1 binary format, and require the spanner the CLI builds
# from the binary file (mapped) to be byte-for-byte the selection built
# from the text file (parsed).  Then the failure surface:
# not-a-graph files must exit 2, structurally corrupt files must exit 1,
# matching Graph_binio's two error classes.
#   $1 = ftspan CLI binary
set -u
BIN="$1"
TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT
fail() { echo "io_check FAILED: $1" >&2; exit 1; }

GEN="--family gnp -n 300 -p 0.05 --connect --seed 23"

# same seed, two containers: the text file and the binary file hold the
# identical graph, so everything downstream must agree byte-for-byte
"$BIN" generate $GEN -o "$TMP/g.graph" >/dev/null || fail "generate text"
"$BIN" generate $GEN -o "$TMP/g.ftsb" | grep -q "ftspan.graph.v1" \
  || fail "generate must report the binary format"

# info reports the one storage layout for either file
"$BIN" info "$TMP/g.ftsb" | grep -q "^storage: int32 CSR, [0-9]* adjacency bytes$" \
  || fail "binary load must report the int32 storage line"
"$BIN" info "$TMP/g.graph" | grep -q "^storage: int32 CSR, [0-9]* adjacency bytes$" \
  || fail "text load must report the int32 storage line"

# selection equality: the parsed and the mapped graph must pick the same edges
"$BIN" build -k 2 -f 1 "$TMP/g.graph" -o "$TMP/sel-text.txt" >/dev/null \
  || fail "build from text"
"$BIN" build -k 2 -f 1 "$TMP/g.ftsb" -o "$TMP/sel-bin.txt" >/dev/null \
  || fail "build from binary"
cmp -s "$TMP/sel-text.txt" "$TMP/sel-bin.txt" \
  || fail "text and binary selections differ"

# error class 1: not an ftspan.graph file at all -> exit 2
printf 'this is not a graph, just bytes\n' > "$TMP/junk.ftsb"
"$BIN" info "$TMP/junk.ftsb" >/dev/null 2>&1
[ $? -eq 2 ] || fail "junk .ftsb must exit 2"
printf 'x' > "$TMP/tiny.ftsb"
"$BIN" info "$TMP/tiny.ftsb" >/dev/null 2>&1
[ $? -eq 2 ] || fail "sub-magic-size .ftsb must exit 2"

# error class 2: recognized but damaged -> exit 1
head -c 60 "$TMP/g.ftsb" > "$TMP/trunc.ftsb"
"$BIN" info "$TMP/trunc.ftsb" >/dev/null 2>&1
[ $? -eq 1 ] || fail "truncated .ftsb must exit 1"
cp "$TMP/g.ftsb" "$TMP/ver.ftsb"
printf '\011' | dd of="$TMP/ver.ftsb" bs=1 seek=8 count=1 conv=notrunc 2>/dev/null
"$BIN" info "$TMP/ver.ftsb" >/dev/null 2>&1
[ $? -eq 1 ] || fail "wrong-version .ftsb must exit 1"
cp "$TMP/g.ftsb" "$TMP/big-m.ftsb"
printf '\377' | dd of="$TMP/big-m.ftsb" bs=1 seek=31 count=1 conv=notrunc 2>/dev/null
"$BIN" info "$TMP/big-m.ftsb" >/dev/null 2>&1
[ $? -eq 1 ] || fail "oversize-m .ftsb must exit 1"
cp "$TMP/g.ftsb" "$TMP/trail.ftsb"
printf '\0\0\0\0' >> "$TMP/trail.ftsb"
"$BIN" info "$TMP/trail.ftsb" >/dev/null 2>&1
[ $? -eq 1 ] || fail "trailing-bytes .ftsb must exit 1"

echo "io_check OK"
