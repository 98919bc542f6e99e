#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload compile|interactive|fleet \
        --seed N --seconds S --trace 0|1

Run from the repository root. The build goes to $CARGO_TARGET_DIR
(default .bench_build). The benchmark's own output is checked strictly
against BENCHMARK.json before it is passed on: the last stdout line must
be one JSON object with exactly `correct`, `attempted`, `failed` and
`metrics`, naming every metric of the mode with its declared unit. A
build failure, a crash, a failed output check or a malformed result
exits non-zero.
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
# The benchmark binary must finish well inside the 180 s a run may take.
RUN_TIMEOUT_S = 170


def _reject_constant(name):
    raise ValueError(f"non-finite number {name} in result")


def _unique_keys(pairs):
    keys = [k for k, _ in pairs]
    if len(keys) != len(set(keys)):
        raise ValueError(f"duplicate keys in {keys}")
    return dict(pairs)


def expected_metrics(spec, trace):
    """{name: unit} the result must report in this mode."""
    section = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in section}


def validate(line, expected):
    """Parse one result line strictly; raise ValueError on any defect."""
    result = json.loads(line, parse_constant=_reject_constant, object_pairs_hook=_unique_keys)
    if not isinstance(result, dict):
        raise ValueError("result is not a JSON object")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError(f"result keys are {sorted(result)}")
    if not isinstance(result["correct"], bool):
        raise ValueError("correct is not a boolean")
    for key in ("attempted", "failed"):
        value = result[key]
        if isinstance(value, bool) or not isinstance(value, int) or value < 0:
            raise ValueError(f"{key} is not a whole number: {value!r}")
    if result["attempted"] < 1:
        raise ValueError("attempted is below 1")
    metrics = result["metrics"]
    if not isinstance(metrics, dict) or set(metrics) != set(expected):
        missing = sorted(set(expected) - set(metrics or {}))
        extra = sorted(set(metrics or {}) - set(expected))
        raise ValueError(f"metric set differs: missing {missing}, extra {extra}")
    for name, unit in expected.items():
        entry = metrics[name]
        if not isinstance(entry, dict) or set(entry) != {"value", "unit"}:
            raise ValueError(f"{name} is not {{value, unit}}: {entry!r}")
        value = entry["value"]
        if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
            raise ValueError(f"{name} value is not a finite number: {value!r}")
        if entry["unit"] != unit:
            raise ValueError(f"{name} unit is {entry['unit']!r}, BENCHMARK.json says {unit!r}")
    return result


def main(argv):
    spec_path = os.path.join(HERE, os.pardir, "BENCHMARK.json")
    with open(spec_path, encoding="utf-8") as f:
        spec = json.load(f)
    trace = "--trace" in argv and argv[argv.index("--trace") + 1:][:1] == ["1"]

    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env, stdout=sys.stderr, check=False)
    if build.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return 1

    binary = os.path.join(env["CARGO_TARGET_DIR"], "release", "perfbench")
    try:
        run = subprocess.run([binary] + argv, env=env, stdout=subprocess.PIPE,
                             text=True, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        print(f"run.py: benchmark exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    lines = run.stdout.strip().splitlines()
    if not lines:
        print(f"run.py: benchmark printed no result (exit {run.returncode})", file=sys.stderr)
        return 1
    for line in lines[:-1]:
        print(line)
    try:
        result = validate(lines[-1], expected_metrics(spec, trace))
    except ValueError as e:
        print(f"run.py: malformed result: {e}", file=sys.stderr)
        return 1
    print(lines[-1])
    if run.returncode != 0 or not result["correct"]:
        print(f"run.py: benchmark failed its output checks (exit {run.returncode})", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
