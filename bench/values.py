"""Check values of two commits, compared as hex floats.

    python bench/values.py --base HEAD~1 --change .      # the working tree
    python bench/values.py --base HEAD~1 --change HEAD

Run it from the root of the repository.  Each tree is exported as in
`bench/layers.py` (`.` is the working tree as it is) and run by a fresh
interpreter with that tree's `src` and `perfbench` first on its path.  From
each tree it collects:

- every check value of the benchmark's twohint-eve, scheme-sweep-exact,
  rd-exponent and cli-cold jobs at seeds 1, 7 and 31337 (the values and
  problems a job's check returns; an rd-exponent job's are its `rd_function`
  value, or the functional's value and bracket end; a cli-cold job's are the
  lhs and rhs of every CSV row its `hintlock` process prints, and its problems
  name a nonzero exit code or a CSV body that differs from its committed
  fixture), each value written by `float.hex`, so equal means bit-identical;
- the two CSV bodies of acceptance criterion 12, `hintlock verify-all --seed
  11` and `hintlock twohint --rational --seed 11` on the benchmark's
  CRITERION_12_TWOHINT config, with their exit codes;
- the GF body, the integers of `hintlock.gf`: for the criterion-08 sweep
  (l = 2, 3, 4, every k <= n <= q) each `rs_generator(k, n)` entry, its
  `mds_check` verdict, and per k' < k the first k' rows and their verdict;
  and `encode` of 64 messages from `default_rng(1)` by RS(4, 16) and RS(32, 256) over
  GF(2^8).

It exits 0 when the two trees agree on every job and body.  Otherwise it lists
every job or body that differs, a job with its count of differing values and
their largest relative difference, and exits 1 (2 if a tree fails to run).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from layers import _export

WORKLOADS = ("twohint-eve", "scheme-sweep-exact", "rd-exponent", "cli-cold")
SEEDS = (1, 7, 31337)
GF_BODY = "GF: criterion-08 sweep and GF(2^8) encode"


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
    out[GF_BODY] = {"ints": gf_integers()}
    return out


def gf_integers() -> dict:
    """The GF body: generator entries, first rows and verdicts of the
    criterion-08 sweep, and encoded words over GF(2^8)."""
    import numpy as np

    from hintlock.gf import field_make, mds_check, rs_generator

    out: dict = {}
    for ell in (2, 3, 4):
        field = field_make(ell)
        for n in range(1, field.q + 1):
            for k in range(1, n + 1):
                g = rs_generator(k, n, field)
                tops = [g.first_rows(kp) for kp in range(1, k)]
                out[f"GF(2^{ell}) k={k} n={n}"] = [
                    [g.entries.tolist(), mds_check(g)],
                    *([top.entries.tolist(), mds_check(top)] for top in tops),
                ]
    rng = np.random.default_rng(SEEDS[0])
    for k, n in ((4, 16), (32, 256)):
        words = rs_generator(k, n, field_make(8)).encode(rng.integers(0, 256, (64, k)))
        out[f"GF(2^8) encode k={k} n={n}"] = words.tolist()
    return out


def _difference(base, change) -> str:
    """How one job's or body's output differs between the trees."""
    if base and change and "ints" in base and "ints" in change:
        names = [name for name in {**base["ints"], **change["ints"]} if base["ints"].get(name) != change["ints"].get(name)]
        return f"{len(names)} of {len(base['ints'])} generators and encodings differ, first {names[:3]}"
    if not (base and change and "values" in base and "values" in change):
        return f"\n  base:   {str(base)[:400]}\n  change: {str(change)[:400]}"
    if len(base["values"]) != len(change["values"]):
        return f"{len(base['values'])} values at base, {len(change['values'])} at change"
    pairs = [(float.fromhex(b), float.fromhex(c)) for b, c in zip(base["values"], change["values"]) if b != c]
    worst = max((_relative(b, c) for b, c in pairs), default=0.0)
    note = "" if base["problems"] == change["problems"] else f"; problems {base['problems']} -> {change['problems']}"
    return f"{len(pairs)} of {len(base['values'])} values differ, largest relative difference {worst:.2g}{note}"


def _relative(b: float, c: float) -> float:
    """|b - c| over the larger magnitude; inf when only one of them is finite or one is nan."""
    if not (math.isfinite(b) and math.isfinite(c)):
        return math.inf
    return abs(b - c) / (max(abs(b), abs(c)) or 1.0)


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
    keys = [*base, *(k for k in change if k not in base)]
    differing = [key for key in keys if base.get(key) != change.get(key)]
    count = sum(len(entry.get("values", ())) for entry in base.values())
    for key in differing:
        print(f"differs: {key}: {_difference(base.get(key), change.get(key))}")
    if differing:
        print(f"{len(differing)} of {len(keys)} jobs and bodies differ ({count} values at base)")
        return 1
    print(f"equal: {len(base) - 3} jobs ({count} values as hex floats), 2 CSV bodies and the GF body")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
