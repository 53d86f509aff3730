#!/usr/bin/env bash
# Runs each CLI once on a small accepted config, and once with a known-bad
# flag that must exit non-zero. Usage: bash .github/cli-smoke.sh
set -euo pipefail
bin=$(mktemp -d)
trap 'rm -rf "$bin"' EXIT
go build -o "$bin/" ./cmd/...

while read -r cmd; do
	echo "== $cmd"
	"$bin"/$cmd > /dev/null
done <<'OK'
dlrmcluster -scale 40 -queries 200
dlrmhetsched -gather 40 -dense 30 -requests 200
dlrmhetsched -gather 40 -dense 30 -mix smt2 -policy eft -util 0.95 -requests 20000 -check
dlrmserve -scale 40 -schemes baseline -requests 200
tracegen -rows 1000 -stats
reusedist -rows 1000 -cores 2 -hist
dlrmbench -exp fig1 -scale 40
OK

# The checkpoint store's resume path: a second run over the same store
# must serve every cell from it and simulate none.
echo "== dlrmbench -checkpoint (write, then resume)"
"$bin"/dlrmbench -exp fig1 -scale 40 -checkpoint "$bin/ck" > /dev/null
"$bin"/dlrmbench -exp fig1 -scale 40 -checkpoint "$bin/ck" > "$bin/resume.txt"
if ! grep -Eq ': [1-9][0-9]* resumed, 0 simulated\)$' "$bin/resume.txt"; then
	echo "resumed run simulated cells:"
	cat "$bin/resume.txt"
	exit 1
fi

# The trace file format, written and read back through tracegen.
echo "== tracegen -o, then -in"
"$bin"/tracegen -rows 1000 -o "$bin/t.bin" > /dev/null
"$bin"/tracegen -in "$bin/t.bin" > /dev/null

while read -r cmd; do
	echo "== $cmd (must fail)"
	if "$bin"/$cmd > /dev/null 2>&1; then
		echo "accepted a bad flag: $cmd"
		exit 1
	fi
done <<'BAD'
dlrmcluster -drop 2
dlrmhetsched -mix cpu2gpu1 -maxbatch 1 -hold 40
dlrmserve -cores 999
tracegen -rows 0
reusedist -cores 0
dlrmbench -exp nosuch
BAD
