#!/bin/sh
# Byte-identity guard for the certificate JSON stream and for stdout
# across execution configurations.
#
# The --certify-out JSONL file is specified to be a pure function of the
# job list, and stdout a pure function of the options that name the
# work, never of how it is executed. This script pins both on a
# 120-loop pinned-seed suite:
#
#   1. --threads 1 vs --threads 8 produce identical JSONL bytes;
#   2. stdout (the CSV the fingerprint guards) is byte-identical with
#      and without --certify, so certification observes without
#      perturbing;
#   3. the spill strategy at 16 registers prints identical stdout at
#      --threads 1 and at --threads 4.
#
# Usage: check_certify_determinism.sh /path/to/swpipe_cli
set -eu

cli="$1"
tmp="${TMPDIR:-/tmp}/swp_certify_$$"
mkdir -p "$tmp"
trap 'rm -rf "$tmp"' EXIT

"$cli" --suite 120 --csv > "$tmp/plain.csv" 2>/dev/null

"$cli" --suite 120 --csv --threads 1 --certify-out "$tmp/t1.jsonl" \
    > "$tmp/t1.csv" 2>/dev/null
"$cli" --suite 120 --csv --threads 8 --certify-out "$tmp/t8.jsonl" \
    > /dev/null 2>/dev/null

if ! cmp -s "$tmp/plain.csv" "$tmp/t1.csv"; then
    echo "--certify changed stdout; it must only write stderr/JSONL" >&2
    exit 1
fi
if ! cmp -s "$tmp/t1.jsonl" "$tmp/t8.jsonl"; then
    echo "certificate JSONL differs between --threads 1 and 8" >&2
    exit 1
fi

"$cli" --suite 120 --csv --strategy spill --registers 16 --threads 1 \
    > "$tmp/spill_t1.csv" 2>/dev/null
"$cli" --suite 120 --csv --strategy spill --registers 16 --threads 4 \
    > "$tmp/spill_t4.csv" 2>/dev/null

if ! cmp -s "$tmp/spill_t1.csv" "$tmp/spill_t4.csv"; then
    echo "spill stdout differs between --threads 1 and 4" >&2
    exit 1
fi

lines=$(wc -l < "$tmp/t1.jsonl")
if [ "$lines" -ne 120 ]; then
    echo "expected 120 certificate lines, got $lines" >&2
    exit 1
fi
echo "certify determinism OK (120 jobs; identical at every thread count)"
