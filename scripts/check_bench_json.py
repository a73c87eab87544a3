#!/usr/bin/env python3
"""Structural check and same-machine regression gate for the bench baseline.

Two modes:

``check_bench_json.py [path]``
    Structural smoke over a committed ``BENCH_subsumption.json``: fail when
    the file is malformed, an expected bench entry is missing, or a
    median/sample count is not a positive number — the situations where the
    baseline silently stops meaning anything. Timing values themselves are
    not compared (they are machine-dependent).

``check_bench_json.py --gate BASELINE.json CURRENT.json``
    Same-machine regression gate: both files must come from bench runs on
    the *same* machine (CI runs the bench at the merge-base and at HEAD on
    one runner, or twice at HEAD when no base is resolvable). Prints a
    per-entry old->new table for every bench present in both runs, then
    fails when the median of a gated bench regresses by more than its
    per-entry tolerance (written next to each median by the bench binary;
    current file wins over baseline, with ``GATE_TOLERANCE`` as the final
    fallback for pre-tolerance baselines). Benches present in only one of
    the two runs are skipped (a new bench has no baseline yet), but at
    least one gated bench must be comparable.
"""

import json
import numbers
import sys

EXPECTED_BENCHES = [
    "subsumption/ground_clause_new",
    "subsumption/subsumes",
    "subsumption/coverage_engine_counts",
    "subsumption/backtracking_heavy",
    "subsumption/backtracking_heavy_static",
    "subsumption/bottom_clause_build",
    "subsumption/repaired_clauses",
    "subsumption/ground_example_build",
    "subsumption/index_build",
    "subsumption/predict_loop",
    "subsumption/predict_batch",
    "subsumption/generalization_round",
    "scaling/index_build/vocab/250",
    "scaling/index_build/vocab/500",
    "scaling/index_build/vocab/1000",
    "scaling/index_build/zipf/250",
    "scaling/index_build/zipf/500",
    "scaling/index_build/zipf/1000",
    "scaling/coverage_engine_counts/examples/24",
    "scaling/coverage_engine_counts/examples/48",
    "scaling/coverage_engine_counts/examples/96",
    "scaling/predict_batch/trace/1",
    "scaling/predict_batch/trace/4",
    "scaling/predict_batch/trace/16",
    "service/cold/1",
    "service/cold/2",
    "service/cold/8",
    "service/warm/1",
    "service/warm/2",
    "service/warm/8",
    "delta_apply/small",
    "delta_apply/medium",
    "delta_apply/rebuild",
    "swap/publish",
    "coalesced/1_callers",
    "coalesced/8_callers",
    "coalesced/32_callers",
    "learn/foil_round",
    "learn/tilde_build",
]

EXPECTED_TOP_LEVEL = ["workload", "unit", "benches"]

# Fallback regression tolerance of the same-machine gate, used only when
# neither the current nor the baseline JSON carries a per-entry
# ``tolerance`` field (i.e. a pre-tolerance baseline). The committed
# per-entry values live in the bench binary (`gate_tolerance` in
# `crates/bench/benches/subsumption.rs`) and ride along in the JSON.
GATE_TOLERANCE = 0.20

# The hot-path benches the gate protects. The adversarial backtracking
# benches are deliberately not gated: `backtracking_heavy_static` measures
# an ordering mode nothing ships with, and `backtracking_heavy` is tracked
# through the committed trajectory instead. The scaling curves are also
# ungated — their small sizes are too noisy for a hard gate; curve shape is
# reviewed through the committed diff instead. `generalization_round` and
# the serving pair `predict_loop`/`predict_batch` are gated at widened
# per-entry tolerances (0.30 / 0.25) reflecting their observed variance.
# The `service/{cold,warm}/N` served-throughput curves graduated to the
# gate once their variance was characterised over the committed trajectory;
# they run at the widest per-entry tolerance in the table (0.35) because
# they thread-scale and cache-prime. The `delta_apply/*`, `swap/publish`
# and `coalesced/{1,8,32}_callers` entries followed the same path: they
# landed EXPECTED-but-ungated with their future tolerances already in-JSON
# (0.30 / 0.30 / 0.35), their variance held over the committed trajectory,
# and they are now gated at those tolerances. The newest entries —
# `learn/{foil_round,tilde_build}`, the extension-learner refinement
# searches — start the same way: committed EXPECTED but ungated, tolerance
# (0.30) riding along in the JSON for when they graduate. The grounding
# pair `subsumption/{repaired_clauses,ground_example_build}` is gated from
# the start at the default hot-path tolerance (0.20): it is single-threaded,
# deterministic work on one fixed clause.
GATED_BENCHES = [
    "subsumption/subsumes",
    "subsumption/coverage_engine_counts",
    "subsumption/repaired_clauses",
    "subsumption/ground_example_build",
    "subsumption/index_build",
    "subsumption/generalization_round",
    "subsumption/predict_loop",
    "subsumption/predict_batch",
    "service/cold/1",
    "service/cold/2",
    "service/cold/8",
    "service/warm/1",
    "service/warm/2",
    "service/warm/8",
    "delta_apply/small",
    "delta_apply/medium",
    "delta_apply/rebuild",
    "swap/publish",
    "coalesced/1_callers",
    "coalesced/8_callers",
    "coalesced/32_callers",
]


def fail(message: str) -> None:
    print(f"BENCH check FAILED: {message}", file=sys.stderr)
    sys.exit(1)


def load(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        fail(f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        fail(f"{path} is not valid JSON: {exc}")
    if not isinstance(data, dict):
        fail(f"{path}: top level must be an object")
    benches = data.get("benches")
    if not isinstance(benches, dict):
        fail(f"{path}: 'benches' must be an object")
    return data


def well_formed_median(path: str, benches: dict, name: str) -> float:
    entry = benches.get(name)
    if not isinstance(entry, dict):
        fail(f"{path}: bench entry {name!r} must be an object")
    median = entry.get("median_ns")
    if not isinstance(median, numbers.Real) or isinstance(median, bool) or median <= 0:
        fail(f"{path}: bench entry {name!r}: median_ns must be a positive number, got {median!r}")
    return float(median)


def entry_tolerance(name: str, current: dict, baseline: dict) -> float:
    """Per-entry gate slack: current file wins, then baseline, then default.

    The current-first order means a PR widening a tolerance is judged at the
    widened value in the same run that commits it.
    """
    for benches in (current, baseline):
        entry = benches.get(name)
        if isinstance(entry, dict):
            tolerance = entry.get("tolerance")
            if (
                isinstance(tolerance, numbers.Real)
                and not isinstance(tolerance, bool)
                and 0 < tolerance < 1
            ):
                return float(tolerance)
    return GATE_TOLERANCE


def structural_check(path: str) -> None:
    data = load(path)
    for key in EXPECTED_TOP_LEVEL:
        if key not in data:
            fail(f"missing top-level key {key!r}")
    benches = data["benches"]
    for name in EXPECTED_BENCHES:
        if benches.get(name) is None:
            fail(f"missing bench entry {name!r}")
        well_formed_median(path, benches, name)
        samples = benches[name].get("samples")
        if not isinstance(samples, int) or isinstance(samples, bool) or samples <= 0:
            fail(f"bench entry {name!r}: samples must be a positive integer, got {samples!r}")
        tolerance = benches[name].get("tolerance")
        if (
            not isinstance(tolerance, numbers.Real)
            or isinstance(tolerance, bool)
            or not 0 < tolerance < 1
        ):
            fail(
                f"bench entry {name!r}: tolerance must be a number in (0, 1), "
                f"got {tolerance!r}"
            )

    unexpected = sorted(set(benches) - set(EXPECTED_BENCHES))
    if unexpected:
        # New entries are fine to *add*, but they must be added to this list
        # so later removals are caught; treat unknown names as drift.
        fail(f"unknown bench entries {unexpected}; update scripts/check_bench_json.py")

    print(f"BENCH check OK: {len(EXPECTED_BENCHES)} entries present and well-formed in {path}")


def regression_gate(baseline_path: str, current_path: str) -> None:
    baseline = load(baseline_path)["benches"]
    current = load(current_path)["benches"]
    # Full per-entry old->new table first: every bench present in both runs,
    # gated or not, so a CI log shows the whole picture, not just verdicts.
    common = [name for name in EXPECTED_BENCHES if name in baseline and name in current]
    common += sorted(set(baseline) & set(current) - set(EXPECTED_BENCHES))
    width = max((len(name) for name in common), default=0)
    compared = 0
    regressed = []
    for name in common:
        base = well_formed_median(baseline_path, baseline, name)
        head = well_formed_median(current_path, current, name)
        ratio = head / base
        tolerance = entry_tolerance(name, current, baseline)
        if name not in GATED_BENCHES:
            verdict = "(ungated)"
        elif ratio > 1.0 + tolerance:
            verdict = f"REGRESSED (tol {tolerance:.0%})"
        else:
            verdict = f"ok (tol {tolerance:.0%})"
        print(f"gate: {name:<{width}} {base:>13.0f} ns -> {head:>13.0f} ns (x{ratio:.2f}) {verdict}")
        if name in GATED_BENCHES:
            compared += 1
            if ratio > 1.0 + tolerance:
                regressed.append((name, base, head, ratio, tolerance))
    for name in GATED_BENCHES:
        if name not in common:
            print(f"gate: skipping {name} (not present in both runs)")
    if compared == 0:
        fail("regression gate compared no benches; baseline and current runs share no gated entry")
    if regressed:
        lines = ", ".join(
            f"{name} {base:.0f}->{head:.0f} ns (x{ratio:.2f}, tol {tolerance:.0%})"
            for name, base, head, ratio, tolerance in regressed
        )
        fail(f"median regression beyond per-entry tolerance on the same machine: {lines}")
    print(
        f"BENCH gate OK: {compared} gated benches within their per-entry "
        f"tolerance of the same-machine baseline"
    )


def main() -> None:
    args = sys.argv[1:]
    if args and args[0] == "--gate":
        if len(args) != 3:
            fail("usage: check_bench_json.py --gate BASELINE.json CURRENT.json")
        regression_gate(args[1], args[2])
        return
    path = args[0] if args else "BENCH_subsumption.json"
    structural_check(path)


if __name__ == "__main__":
    main()
