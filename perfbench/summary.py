"""Run every workload untraced and traced, and print every metric with its unit.

    python3 perfbench/summary.py [--seed N] [--seconds S] [--workload NAME ...]

Run from the root of a checkout.  Prints the end-to-end metrics, then for
each workload the traced functions ordered by self time, with the purpose
check the README states for that workload.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import WORKLOADS

HERE = Path(__file__).resolve().parent


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=180, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def purpose(workload: str, self_s: dict[str, float], layers: dict[str, float], e2e: dict) -> str:
    """The traced run's check of why the workload exists (see README)."""
    top = max(self_s, key=self_s.get)
    total = sum(self_s.values())
    if workload == "twohint-eve":
        return f"largest self time: {top} (expected adversary.eve_exact_matching)"
    if workload == "scheme-sweep-exact":
        return f"largest self-time share: {top} {self_s[top] / total:.0%} (expected below 50%)"
    if workload == "rd-exponent":
        share = sum(v for k, v in self_s.items() if k.startswith("exponents.")) / total
        adversary = sum(v for k, v in layers.items() if k.startswith("adversary.") and k.endswith(".calls"))
        return f"exponents.* self-time share {share:.0%} (expected most); adversary calls {adversary:g} (expected 0)"
    share = layers["import.hintlock_s"] / e2e["job_p50_s"]["value"]
    return f"import.hintlock_s / job_p50_s = {share:.0%} (expected most)"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--workload", nargs="*", default=list(WORKLOADS))
    args = parser.parse_args()
    for workload in args.workload:
        e2e = run(workload, args.seed, args.seconds, 0)
        traced = run(workload, args.seed, args.seconds, 1)
        layers = {k: v["value"] for k, v in traced["metrics"].items()}
        print(f"## {workload} (seed {args.seed}, correct={e2e['correct'] and traced['correct']})")
        for name, m in e2e["metrics"].items():
            print(f"  {name:<16} {m['value']:.4g} {m['unit']}")
        self_s = {k[: -len(".self_s")]: v for k, v in layers.items() if k.endswith(".self_s") and v > 0}
        for name in sorted(self_s, key=self_s.get, reverse=True):
            calls = layers[f"{name}.calls"]
            print(f"  {name:<48} self {self_s[name]:.4f} s  total {layers[name + '.total_s']:.4f} s  calls {calls:g}")
        for name, value in layers.items():
            if name.endswith("cells") and value:
                print(f"  {name:<48} {value:g}")
        for name in ("import.hintlock_s", "import.scipy_s", "import.numpy_s", "trace.overhead_s"):
            print(f"  {name:<48} {layers[name]:.4f} s")
        print(f"  purpose: {purpose(workload, self_s, layers, e2e['metrics'])}")


if __name__ == "__main__":
    main()
