"""Minimal-size self-test of the benchmark.

Runs every workload for a couple of seconds, untraced and traced, and
checks that:

* the last output line has exactly the keys of the result contract, and
  every metric named in ``BENCHMARK.json`` is emitted with its unit;
* the traced run wrote spans for every layer its workload exercises, and
  the workloads together cover every traced layer a passing run reaches;
* two traced runs of the same seed repeat every count exactly, and two
  untraced runs repeat ``qor.*`` exactly.

Usage (from the root of a checkout)::

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SECONDS = "2"
SEED = "7"
#: Layers no passing run reaches: reduction runs only on a failing fuzz
#: seed, and candidate pricing only in the ``discover`` command.
UNREACHED = {"fuzz.reduce", "discover.price"}
#: Per-layer metrics that are times or rates, so they need not repeat.
TIMED_UNITS = {"s", "ms", "ops/s"}


def run(workload: str, trace: int) -> dict:
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", SEED,
               "--seconds", SECONDS, "--trace", str(trace)]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=300)
    if done.returncode != 0:
        raise AssertionError(f"{workload} --trace {trace} exited "
                             f"{done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def check_result(result: dict, spec: list, label: str) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, \
        f"{label}: result keys {sorted(result)}"
    assert result["correct"] and result["failed"] == 0, label
    assert isinstance(result["attempted"], int) \
        and result["attempted"] >= 1, label
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in spec}, \
        f"{label}: metrics differ from BENCHMARK.json"
    for metric in spec:
        emitted = metrics[metric["name"]]
        assert emitted["unit"] == metric["unit"], \
            f"{label}: {metric['name']} unit {emitted['unit']}"
        assert isinstance(emitted["value"], (int, float)), label


def span_layers(workload: str) -> set:
    path = os.path.join(HERE, "out", f"{workload}.spans.json")
    with open(path, encoding="utf-8") as handle:
        dump = json.load(handle)
    layer = dump["fields"].index("layer")
    return {span[layer] for span in dump["spans"]}


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    import tracing
    import workloads

    assert [w["name"] for w in bench["workloads"]] \
        == list(workloads.WORKLOADS), "workload list differs"
    per_layer_units = {m["name"]: m["unit"] for m in bench["per_layer"]}
    covered = set()
    for name, cls in workloads.WORKLOADS.items():
        plain = [run(name, 0) for _ in range(2)]
        for result in plain:
            check_result(result, bench["end_to_end"], f"{name} --trace 0")
        for key in ("qor.area_um2", "qor.stages"):
            values = {r["metrics"][key]["value"] for r in plain}
            assert len(values) == 1, f"{name}: {key} differs: {values}"

        traced = [run(name, 1) for _ in range(2)]
        for result in traced:
            check_result(result, bench["per_layer"], f"{name} --trace 1")
        layers = span_layers(name)
        missing = set(cls.layers) - layers
        assert not missing, f"{name}: no spans for {sorted(missing)}"
        covered |= layers
        for key, unit in per_layer_units.items():
            if unit in TIMED_UNITS:
                continue
            values = {r["metrics"][key]["value"] for r in traced}
            assert len(values) == 1, f"{name}: {key} differs: {values}"
        print(f"selftest: {name} ok ({len(layers)} layers traced)")

    uncovered = set(tracing.LAYERS) - covered - UNREACHED
    assert not uncovered, f"no workload traces {sorted(uncovered)}"
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
