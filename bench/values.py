"""Check values of two commits, compared as hex floats.

    python bench/values.py --base HEAD~1 --change .      # the working tree
    python bench/values.py --base HEAD~1 --change HEAD

Run it from the root of the repository.  Each tree is exported as in
`bench/layers.py` (`.` is the working tree as it is) and run by a fresh
interpreter with that tree's `src` and `perfbench` first on its path.  From
each tree it collects:

- every check value of the benchmark's twohint-eve and scheme-sweep-exact
  jobs at seeds 1, 7 and 31337 (the values and problems a job's check
  returns), each value written by `float.hex`, so equal means bit-identical;
- the two CSV bodies of acceptance criterion 12, `hintlock verify-all --seed
  11` and `hintlock twohint --rational --seed 11` on the benchmark's
  CRITERION_12_TWOHINT config, with their exit codes.

It exits 0 when the two trees agree on every job and body, and otherwise
names the first job or body that differs and exits 1 (2 if a tree fails to
run).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from layers import _export

WORKLOADS = ("twohint-eve", "scheme-sweep-exact")
SEEDS = (1, 7, 31337)


def child(tree: Path) -> dict:
    """Job or body name -> what it produced, in run order."""
    import workloads

    from hintlock.cli import main

    out: dict = {}
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        ctx = workloads.Context(tree, tmp)
        for name in WORKLOADS:
            for seed in SEEDS:
                for job in workloads.WORKLOADS[name](seed, False, tmp):
                    key = f"{name} seed {seed} {job.key}"
                    try:
                        values, problems = job.check(job.run(ctx))
                        out[key] = {"values": [float(v).hex() for v in values], "problems": problems}
                    except Exception as e:  # a job that raises differs from one that returns
                        out[key] = {"error": f"{type(e).__name__}: {e}"}
        config = tmp / "twohint.json"
        config.write_text(json.dumps(workloads.CRITERION_12_TWOHINT))
        bodies = {
            "verify-all --seed 11": ["verify-all", "{}", "--seed", "11"],
            "twohint --rational --seed 11": ["twohint", str(config), "--rational", "--seed", "11"],
        }
        for label, argv in bodies.items():
            body = tmp / "body.csv"
            code = main([*argv, "--out", str(body)])
            out[label] = {"exit": code, "body": body.read_text() if body.exists() else None}
            body.unlink(missing_ok=True)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", default="HEAD~1")
    parser.add_argument("--change", default=".")
    parser.add_argument("--child", default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        print(json.dumps(child(Path(args.child))))
        return 0
    dumps = {}
    with tempfile.TemporaryDirectory() as tmp:
        for side in ("base", "change"):
            rev = getattr(args, side)
            tree = _export(rev, Path(tmp) / side)
            env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(tree / "src"), str(tree / "perfbench")])}
            cmd = [sys.executable, str(Path(__file__).resolve()), "--child", str(tree)]
            proc = subprocess.run(cmd, env=env, capture_output=True, text=True)
            if proc.returncode:
                print(f"{side} ({rev}) failed to run:\n{proc.stderr}", file=sys.stderr)
                return 2
            dumps[side] = json.loads(proc.stdout)
    base, change = dumps["base"], dumps["change"]
    for key in [*base, *(k for k in change if k not in base)]:
        if base.get(key) != change.get(key):
            print(f"differs: {key}\n  base:   {str(base.get(key))[:400]}\n  change: {str(change.get(key))[:400]}")
            return 1
    count = sum(len(entry.get("values", ())) for entry in base.values())
    print(f"equal: {len(base) - 2} jobs ({count} values as hex floats) and 2 CSV bodies")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
