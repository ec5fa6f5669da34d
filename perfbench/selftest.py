"""Smoke-size self-test of the benchmark (about two minutes on 2 cores).

    python3 perfbench/selftest.py

Run from the repository root.  Runs every workload tiny (small LPN
parameters and model shapes), untraced and traced, and asserts that
the result line has exactly the contract's keys, that every metric
BENCHMARK.json names is emitted with its unit, and that no op failed.
Then it breaks each correctness check on purpose -- a corrupted COT
check, a wrong oracle, a wrong draw count -- and asserts the run
refuses with ``CheckFailed``, which proves the checks run.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import workloads  # noqa: E402
from repro.ppml.plan import PreprocessingPlan  # noqa: E402
from bench import run_workload  # noqa: E402
from workloads import WORKLOADS, CheckFailed  # noqa: E402

SECONDS = 1.5


def declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        doc = json.load(f)
    units = lambda key: {m["name"]: m["unit"] for m in doc[key]}  # noqa: E731
    return units("end_to_end"), units("per_layer"), [w["name"] for w in doc["workloads"]]


def check_result(result, want_units, label):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, label
    assert result["correct"] is True, label
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1, label
    assert result["failed"] == 0, (label, result["failed"])
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want_units, (label, set(got) ^ set(want_units))
    for name, m in result["metrics"].items():
        assert set(m) == {"value", "unit"}, (label, name)
        assert isinstance(m["value"], (int, float)), (label, name)
    json.dumps(result)  # the result line must serialize


def expect_refusal(name, label, **patches):
    """Run with one check broken; the run must raise CheckFailed."""
    cls = WORKLOADS[name]
    saved = {attr: getattr(owner, attr) for attr, (owner, _) in patches.items()}
    for attr, (owner, value) in patches.items():
        setattr(owner, attr, value)
    try:
        run_workload(cls, 3, SECONDS, False, smoke=True)
    except CheckFailed as exc:
        print(f"ok   refused ({label}): {exc}")
        return
    finally:
        for attr, (owner, _) in patches.items():
            setattr(owner, attr, saved[attr])
    raise AssertionError(f"{label}: a broken check did not refuse the run")


def main() -> int:
    e2e, layer, names = declared()
    assert sorted(names) == sorted(WORKLOADS), names
    with tempfile.TemporaryDirectory() as tmp:
        for name in names:
            for trace in (False, True):
                out = os.path.join(tmp, f"{name}.trace.json")
                result = run_workload(
                    WORKLOADS[name], 7, SECONDS, trace, smoke=True, trace_out=out
                )
                label = f"{name} trace={int(trace)}"
                check_result(result, layer if trace else e2e, label)
                if trace:
                    assert os.path.getsize(out) > 0, label
                print(f"ok   {label}: {len(result['metrics'])} metrics")
    expect_refusal(
        "cot_stream", "COT correlation",
        verify_cot=(workloads, lambda s, r: False),
    )
    wrong = workloads.MlpServe.oracle
    expect_refusal(
        "mlp_serve", "inference output",
        oracle=(workloads.MlpServe, lambda self, x: wrong(self, x) + 1),
    )
    targets = PreprocessingPlan.pool_targets
    expect_refusal(
        "mlp_serve", "draws == plan x items",
        pool_targets=(
            PreprocessingPlan,
            lambda self: {k: v + 1 for k, v in targets(self).items()},
        ),
    )
    print("selftest passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
