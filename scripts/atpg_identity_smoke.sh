#!/usr/bin/env bash
# ATPG identity smoke: the release `tpi` must reproduce recorded PODEM
# results byte for byte.
#
#   * `tpi atpg results/dag400_s5.bench` — every line equals
#     results/golden/atpg_dag400_s5.out, except that the backtrack count
#     on the `atpg work:` line may be lower than the recorded one (never
#     higher): the search may prune dead branches, but every verdict,
#     redundant fault and seed stays the same.
#   * `tpi insert --objective patterns` on the generated random-pattern-
#     resistant circuit results/golden/rpr_bus8.bench (tpi-gen's
#     `rpr::bus_match(8)`) — stdout and the written netlist equal
#     results/golden/insert_patterns_rpr_bus8.out and
#     results/golden/rpr_bus8.patterns.bench.
#
# Run from the repository root after `cargo build --release`.
set -euo pipefail

TPI="${TPI:-target/release/tpi}"
golden=results/golden
dir="$(mktemp -d)"
trap 'rm -rf "$dir"' EXIT

fail() { echo "FAIL: $1" >&2; exit 1; }

# ---- atpg on dag400: identical lines, backtracks never above golden. ----
"$TPI" atpg results/dag400_s5.bench > "$dir/atpg.out"
python3 - "$golden/atpg_dag400_s5.out" "$dir/atpg.out" <<'PY'
import re, sys
golden = open(sys.argv[1]).read().splitlines()
got = open(sys.argv[2]).read().splitlines()
assert len(got) == len(golden), f"{len(got)} lines, golden has {len(golden)}"
work = re.compile(r"^(atpg work: \d+ cubes generated, )(\d+)( backtracks, \d+ aborted faults)$")
for n, (g, x) in enumerate(zip(golden, got), 1):
    mg, mx = work.match(g), work.match(x)
    if mg and mx:
        assert (mg.group(1), mg.group(3)) == (mx.group(1), mx.group(3)), f"line {n}: {x!r} vs {g!r}"
        assert int(mx.group(2)) <= int(mg.group(2)), \
            f"line {n}: {mx.group(2)} backtracks, golden {mg.group(2)}"
    else:
        assert x == g, f"line {n}: {x!r}, golden {g!r}"
print(f"atpg dag400_s5: {len(got)} lines identical to golden")
PY

# ---- patterns objective on an rpr circuit: stdout and netlist. ----
"$TPI" insert "$golden/rpr_bus8.bench" --objective patterns \
  --out "$dir/rpr_bus8.patterns.bench" > "$dir/insert.out"
grep -v '^wrote ' "$dir/insert.out" > "$dir/insert.flt"
cmp "$golden/insert_patterns_rpr_bus8.out" "$dir/insert.flt" \
  || fail "insert --objective patterns stdout differs from golden"
cmp "$golden/rpr_bus8.patterns.bench" "$dir/rpr_bus8.patterns.bench" \
  || fail "insert --objective patterns netlist differs from golden"
echo "insert --objective patterns rpr_bus8: stdout and netlist identical to golden"

echo "atpg identity smoke: ok"
