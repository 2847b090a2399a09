#!/usr/bin/env bash
# Golden outputs of the fourteen paper programs: the ten figure/table
# binaries at --quick and the four examples. Every one prints byte-identical
# stdout run to run (progress lines go to stderr and are not compared), so
# any difference from the committed tests/golden/<program>.txt is a
# behaviour change.
#
#   tests/golden/check.sh           build (release), run all 14, diff each
#                                   against its committed file; exit 1 on a diff
#   tests/golden/check.sh --bless   rewrite the committed files instead
#
# A change that re-blesses lists every changed line in CHANGES.md and says why.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/../.."

bless=0
case "${1:-}" in
    "") ;;
    --bless) bless=1 ;;
    *) echo "usage: $0 [--bless]" >&2; exit 2 ;;
esac

bins=(chip_scale sla fig3_area fig4_latency fig5_preemption fig6_slowdown fig7_energy table1 table2_fairness ablations)
examples=(quickstart topology_explorer denial_of_service server_consolidation)

cargo build --release --quiet --workspace --bins --examples
release="${CARGO_TARGET_DIR:-target}/release"

out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT
for b in "${bins[@]}"; do
    "$release/$b" --quick > "$out/$b.txt"
done
for e in "${examples[@]}"; do
    "$release/examples/$e" > "$out/$e.txt"
done

if (( bless )); then
    cp "$out"/*.txt tests/golden/
    echo "blessed ${#bins[@]} binaries and ${#examples[@]} examples into tests/golden/"
    exit 0
fi

failed=0
for f in "$out"/*.txt; do
    name=$(basename "$f")
    if ! diff -u "tests/golden/$name" "$f"; then
        failed=1
    fi
done
if (( failed )); then
    echo "golden outputs differ (see the diffs above); re-bless with $0 --bless only for an intended change" >&2
    exit 1
fi
echo "all $(( ${#bins[@]} + ${#examples[@]} )) golden outputs identical"
