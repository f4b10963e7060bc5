#!/bin/sh
# Byte-identity guard for the scheduler core.
#
# The pinned commands below exercise both schedulers (HRMS, IMS), all
# three paper machines and every strategy family over the pinned-seed
# generated suite. Their concatenated CSV output is hashed and compared
# against tests/golden/suite_fingerprint.sha256, which was captured
# BEFORE the PR 5 bitset/workspace scheduler-core refactor: any change
# to a schedule, an II, a spill decision or a register count — however
# small — fails this check. The suite generator uses the repo's own
# portable PRNG and the CSV contains integers only, so the hash is
# stable across compilers and platforms.
#
# A second hash, tests/golden/suite_fingerprint_tight.sha256, covers
# tight register budgets, where the drivers' budget-exceeded paths run:
# spill's over-budget replay, best-of-all's binary search over the
# unspilled loop, increase-II's acyclic fallback, use spilling and the
# no-fusion ablation. 134 of its 1200 rows do not fit the budget.
#
# A third hash, tests/golden/suite_fingerprint_ims_tight.sha256, pins
# IMS under tight budgets, where its placement meets spilled graphs and
# their fused groups: spill at 12 registers (288 of 400 rows spill) and
# best-of-all at 8 registers on p1l4 (147 of 200 rows spill).
#
# Usage: check_suite_fingerprint.sh /path/to/swpipe_cli
set -eu

cli="$1"
dir=$(dirname "$0")
want=$(cat "$dir/suite_fingerprint.sha256")
want_tight=$(cat "$dir/suite_fingerprint_tight.sha256")
want_ims_tight=$(cat "$dir/suite_fingerprint_ims_tight.sha256")

tmp="${TMPDIR:-/tmp}/swp_fingerprint_$$.csv"
trap 'rm -f "$tmp"' EXIT

{
    "$cli" --suite 400 --csv
    "$cli" --suite 400 --csv --scheduler ims --strategy spill
    "$cli" --suite 200 --csv --machine p1l4 --strategy increase-ii
    "$cli" --suite 200 --csv --machine p2l6 --strategy ideal
} > "$tmp"

got=$(sha256sum "$tmp" | cut -d' ' -f1)
if [ "$got" != "$want" ]; then
    echo "suite output fingerprint mismatch:" >&2
    echo "  want $want" >&2
    echo "  got  $got" >&2
    echo "schedules are no longer byte-identical to the golden run" >&2
    exit 1
fi
echo "suite fingerprint OK ($got)"

{
    "$cli" --suite 400 --csv --registers 8
    "$cli" --suite 400 --csv --strategy spill --registers 12 --uses
    "$cli" --suite 200 --csv --machine p2l6 --strategy increase-ii --registers 16
    "$cli" --suite 200 --csv --strategy spill --registers 16 --no-fusion --single
} > "$tmp"

got=$(sha256sum "$tmp" | cut -d' ' -f1)
if [ "$got" != "$want_tight" ]; then
    echo "tight-budget suite output fingerprint mismatch:" >&2
    echo "  want $want_tight" >&2
    echo "  got  $got" >&2
    echo "tight-budget schedules are no longer byte-identical to the golden run" >&2
    exit 1
fi
echo "tight-budget suite fingerprint OK ($got)"

{
    "$cli" --suite 400 --csv --scheduler ims --strategy spill --registers 12
    "$cli" --suite 200 --csv --scheduler ims --strategy best --registers 8 --machine p1l4
} > "$tmp"

got=$(sha256sum "$tmp" | cut -d' ' -f1)
if [ "$got" != "$want_ims_tight" ]; then
    echo "IMS tight-budget suite output fingerprint mismatch:" >&2
    echo "  want $want_ims_tight" >&2
    echo "  got  $got" >&2
    echo "IMS tight-budget schedules are no longer byte-identical to the golden run" >&2
    exit 1
fi
echo "IMS tight-budget suite fingerprint OK ($got)"
