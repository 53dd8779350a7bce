#!/usr/bin/env bash
# Set-up growth smoke: loading a circuit must stay linear in its size.
# A short traced `tpibench` run of the simulate_ladder workload (6.4k,
# 12.8k and 25.6k-gate DAGs) reports, per layer, the growth exponent
# d log t / d log gates between the smallest and the largest rung. The
# `.bench` parse and the fault collapse must each stay at or below
# BOUND. Linear set-up reads 0.9-1.4 in a run this short on a 2-core
# host (the rungs cross the L2 cache size, and a one-second run has few
# samples); the quadratic name and output rescans this guards against
# read 2.2-2.5 on parse and 1.5-1.7 on collapse, so only the parse
# exponent reliably tells the two apart.
#
# The harness reads an exponent of 0 when a rung has no timed sample, so
# every rung must have a positive parse and collapse time and each
# exponent must be positive: a run that measured nothing fails.
#
# Run from the repository root: bash scripts/setup_growth_smoke.sh
set -euo pipefail

BOUND=1.6
SEED=1

cargo run --release --offline -q --manifest-path tpibench/Cargo.toml -- \
  --workload simulate_ladder --seed "$SEED" --seconds 1 --trace 1 > /dev/null

python3 - ".bench_results/simulate_ladder-s$SEED-t1.json" "$BOUND" <<'PY'
import json, sys
doc = json.load(open(sys.argv[1]))
bound = float(sys.argv[2])
assert doc["correct"], "tpibench referees rejected the run"
layers = ["netlist.parse", "sim.collapse"]
failed = []
rungs = doc["size_ladder"]["rungs"]
if len(rungs) < 2:
    failed.append(f"{len(rungs)} ladder rung(s), need 2 or more")
for rung in rungs:
    print("  {:<14} {:>6} gates: parse {:>7.1f} ns/gate, collapse {:>7.1f} ns/gate".format(
        rung["job"], rung["gates"],
        rung["netlist.parse"]["ns_per_gate"], rung["sim.collapse"]["ns_per_gate"]))
    for layer in layers:
        if not rung[layer]["s"] > 0:
            failed.append(f"{rung['job']} has no {layer} time")
for layer in layers:
    growth = doc["per_layer"][layer + "_growth"]["value"]
    print(f"{layer}_growth = {growth:.3f} (bound {bound})")
    if not 0 < growth <= bound:
        failed.append(f"{layer}_growth {growth:.3f} outside (0, {bound}]")
if failed:
    sys.exit("set-up growth: " + "; ".join(failed))
print("set-up growth: ok")
PY
