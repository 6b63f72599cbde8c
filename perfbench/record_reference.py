"""Record the reference values that benchmark runs on the default seed must reproduce.

    python3 perfbench/record_reference.py

Run from the root of a checkout.  Writes perfbench/reference/values.json
(every job's checked values on the default seed) and the two criterion-12
CSV bodies.  Re-record only for a change that is meant to alter the
program's output, and say so in that change.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))

from run import child_env  # noqa: E402

os.environ.clear()
os.environ.update(child_env(ROOT))

import workloads  # noqa: E402


def record_criterion_12(tmp: Path) -> None:
    config = tmp / "criterion12.json"
    config.write_text(json.dumps(workloads.CRITERION_12_TWOHINT))
    argvs = {
        "twohint": ["twohint", str(config), "--rational", "--seed", "11"],
        "verify-all": ["verify-all", "{}", "--seed", "11"],
    }
    for command, argv in argvs.items():
        out = workloads.CRITERION_12[command]
        cmd = [sys.executable, "-m", "hintlock.cli", *argv, "--out", str(out)]
        subprocess.run(cmd, cwd=ROOT, check=True, capture_output=True, timeout=120)


def main() -> None:
    tmp = Path(tempfile.mkdtemp(prefix=".perfbench-tmp-", dir=ROOT))
    try:
        record_criterion_12(tmp)
        ctx = workloads.Context(ROOT, tmp)
        values: dict = {}
        for name, build in workloads.WORKLOADS.items():
            values[name] = {}
            for job in build(workloads.DEFAULT_SEED, False, tmp):
                got, problems = job.check(job.run(ctx))
                if problems:
                    raise SystemExit(f"{name}/{job.key} fails its checks: {problems[0]}")
                values[name][job.key] = got
            print(f"recorded {name}: {len(values[name])} jobs")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    workloads.REFERENCE_FILE.write_text(json.dumps(values, indent=1) + "\n")


if __name__ == "__main__":
    main()
