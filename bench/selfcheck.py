"""Quick self-check of the benchmark harness.

    python3 bench/selfcheck.py

Runs every workload at a tiny size, untraced and then traced, and asserts:

- the result line has exactly the keys correct, attempted, failed, metrics; no
  operation failed, and every metric BENCHMARK.json lists for that mode is
  emitted with its unit and nothing else is;
- every layer is exercised: each per-layer time and count is positive,
  except the error counters, which are zero;
- in every traced span list, each span's self time plus its children's
  durations adds up to the span's duration, with the children inside it,
  and spans nest as the calls do (loop calls under ``purify``, retrain steps
  under ``train_linear_*``, everything in a CLI child under ``dispatch``).

Exits 0 when all hold. Takes well under a minute.
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys

import run
import spans

ZERO = {"ipc.errors", "eac.errors", "error_rate"}
SIGNED = {"trace_overhead"}


def tiny(w: run.Workload) -> run.Workload:
    # Long enough for one label replacement (period 50); too short to purify,
    # so the accuracy floor is off here and exercised only at full size.
    return dataclasses.replace(w, n=600, dim=min(w.dim, 64), n_val=60, n_test=200, epochs=17, min_gain=-1.0)


LOOP = {
    f"purifier.{attr}"
    for attr in spans.TARGETS["labelpure.purifier"]
    if attr not in ("purify", "save_report")
}
TRAIN = {"evaluate.train_linear_ce", "evaluate.train_linear_on_targets"}


def ancestors(span_list: list[list], i: int) -> set[str]:
    names = set()
    parent = span_list[i][3]
    while parent >= 0:
        names.add(span_list[parent][0])
        parent = span_list[parent][3]
    return names


def check_spans(span_list: list[list], where: str, in_child: bool) -> int:
    own = spans.self_times(span_list)
    kids = spans.children(span_list)
    for i, span in enumerate(span_list):
        above = ancestors(span_list, i)
        if span[0] in LOOP:
            assert "purifier.purify" in above, f"{where}: {span[0]} not under purify"
        if span[0] == "evaluate.eac_train_step":
            assert above & TRAIN, f"{where}: retrain step not under train_linear_*"
        if in_child and span[0] != "cli.dispatch":
            assert "cli.dispatch" in above, f"{where}: {span[0]} not under dispatch"
        duration = span[2] - span[1]
        child_total = 0.0
        for k in kids[i]:
            child = span_list[k]
            assert span[1] <= child[1] <= child[2] <= span[2], f"{where}: {child[0]} outside {span[0]}"
            child_total += child[2] - child[1]
        assert own[i] >= 0, f"{where}: negative self time in {span[0]}"
        assert math.isclose(own[i] + child_total, duration, rel_tol=1e-9, abs_tol=1e-12), (
            f"{where}: {span[0]} self {own[i]} + children {child_total} != {duration}"
        )
    return len(span_list)


def main() -> int:
    problem = run.import_labelpure()
    if problem:
        print(problem, file=sys.stderr)
        return 2
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    wanted = {
        False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        True: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for name in sorted(run.WORKLOADS):
        w = tiny(run.WORKLOADS[name])
        for trace in (False, True):
            result, units, _ = run.run(w, seed=7, seconds=0.0, trace=trace)
            where = f"{name} trace={int(trace)}"
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, where
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, (where, result)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == wanted[trace], f"{where}: metrics {sorted(got)} != {sorted(wanted[trace])}"
            for key, metric in result["metrics"].items():
                value = metric["value"]
                assert isinstance(value, float) and math.isfinite(value), (where, key, value)
                if trace and key in ZERO:
                    assert value == 0.0, (where, key, value)
                elif key not in SIGNED:
                    assert value > 0, f"{where}: {key} is {value}"
            checked = sum(
                check_spans(span_list, f"{where} {unit['kind']}", wall is not None)
                for unit in units
                for span_list, wall in unit["procs"]
            )
            assert not trace or checked > 0, f"{where}: no spans recorded"
            print(f"selfcheck: {where}: {len(got)} metrics, {checked} spans ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
