"""Compare a base commit with the working tree in alternating pairs.

    python3 bench/pairs.py --base HEAD~1 --workload p2_jain \
        --seeds 300-309 --out pairs.json

The base commit is extracted with `git archive` into a temporary
directory, so the repository's `.git` is only read.  For each workload
and seed the script runs `perfbench/run.py --trace 0` once on each side,
base and change one right after the other, and alternates which side
runs first from one pair to the next.  Every end-to-end metric that
BENCHMARK.json names is compared pair by pair:

- a pair is a win for the change when its value is better by the
  metric's direction, a loss when worse, a tie when equal;
- the sign test counts wins against losses (ties dropped) under a fair
  coin, two-sided;
- the median of the per-pair ratios change / base is reported, with the
  base's median and quartiles (linear interpolation, as numpy's default)
  and the change's;
- a gain resolves when the change wins at least nine tenths of all pairs
  and the medians differ by more than the base's interquartile range;
- a metric regresses when the change's median is worse than the base's by
  more than the metric's bound, a fraction of the base's median.

A run whose output check fails, or that gives no result, counts as failed
on its side, and no seed is dropped: a metric a run did not report loses
its pair.  The JSON file holds every run, the comparison and a paragraph
ready for CHANGES.md, which is also printed.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("p1_gaussian", "p2_jain", "train_predict")


def sign_test(wins: int, losses: int) -> float:
    """Two-sided p-value of wins against losses under a fair coin."""
    n = wins + losses
    if n == 0:
        return 1.0
    tail = sum(math.comb(n, i) for i in range(min(wins, losses) + 1))
    return min(1.0, 2.0 * tail / 2.0 ** n)


def quartiles(values) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), linearly interpolated."""
    values = list(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def compare(base, change, better: str, bound: float) -> dict:
    """Pairwise comparison of one metric; None marks a missing value."""
    sign = 1.0 if better == "higher" else -1.0
    wins = losses = 0
    for b, c in zip(base, change):
        if b is None or c is None:
            wins += b is None and c is not None
            losses += c is None and b is not None
        elif sign * (c - b) > 0:
            wins += 1
        elif sign * (c - b) < 0:
            losses += 1
    pairs = len(base)
    ratios = [c / b for b, c in zip(base, change)
              if b is not None and c is not None and b != 0]
    base_q = quartiles([b for b in base if b is not None] or [math.nan])
    change_q = quartiles([c for c in change if c is not None] or [math.nan])
    gain = sign * (change_q[1] - base_q[1])
    return {
        "pairs": pairs, "wins": wins, "losses": losses,
        "ties": pairs - wins - losses, "sign_test_p": sign_test(wins, losses),
        "median_ratio": statistics.median(ratios) if ratios else None,
        "base_quartiles": base_q, "change_quartiles": change_q,
        "base_iqr": base_q[2] - base_q[0], "median_gain": gain,
        "gain_resolves": (wins >= 0.9 * pairs
                          and gain > base_q[2] - base_q[0]),
        "regresses": -gain > bound * abs(base_q[1]),
    }


def extract(rev: str, into: Path) -> str:
    """Write the tree of rev under into; returns its commit hash."""
    commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", rev],
                            capture_output=True, text=True, check=True)
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar",
                          commit.stdout.strip()], capture_output=True,
                         check=True)
    with tarfile.open(fileobj=io.BytesIO(tar.stdout)) as archive:
        if hasattr(tarfile, "data_filter"):
            archive.extractall(into, filter="data")
        else:
            archive.extractall(into)
    return commit.stdout.strip()


def perfbench(tree: Path, workload: str, seed: int, seconds: int) -> dict:
    """One untraced perfbench run in tree: its last JSON line, or None."""
    argv = [sys.executable, str(tree / "perfbench" / "run.py"), "--workload",
            workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", "0"]
    done = subprocess.run(argv, capture_output=True, text=True, cwd=tree)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    run = {"exit": done.returncode, "result": result,
           "failed": result is None or result.get("correct") is not True}
    if result is None:
        run["stderr_tail"] = done.stderr[-2000:]
    return run


def value(run: dict, metric: str):
    result = run["result"] or {}
    entry = result.get("metrics", {}).get(metric)
    return None if entry is None else entry["value"]


def paragraph(args, base_commit: str, summary: dict, failed: dict) -> str:
    """The comparison as sentences for CHANGES.md."""
    lines = [f"Pairs against {args.base} ({base_commit[:10]}), "
             f"`bench/pairs.py`, seeds {args.seeds}, --seconds "
             f"{args.seconds}, base and change alternating which runs "
             f"first:"]
    for workload, metrics in summary.items():
        parts = []
        for name, s in metrics.items():
            b, c = s["base_quartiles"], s["change_quartiles"]
            verdict = ("gain resolves" if s["gain_resolves"]
                       else "regresses past its bound" if s["regresses"]
                       else "no resolved change")
            ratio = ("n/a" if s["median_ratio"] is None
                     else f"{s['median_ratio']:.3f}")
            parts.append(
                f"{name} {b[1]:.4g} -> {c[1]:.4g} (base quartiles "
                f"{b[0]:.4g}/{b[2]:.4g}, IQR {s['base_iqr']:.3g}, median "
                f"gain {s['median_gain']:.3g}), change better in "
                f"{s['wins']} of {s['pairs']} pairs, {s['losses']} worse, "
                f"sign test p = {s['sign_test_p']:.3g}, median ratio "
                f"{ratio}: {verdict}")
        lines.append(f"- {workload}: failed runs base {failed[workload][0]}, "
                     f"change {failed[workload][1]}; " + "; ".join(parts)
                     + ".")
    return "\n".join(lines)


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        first, _, last = part.partition("-")
        seeds += range(int(first), int(last or first) + 1)
    return seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", required=True,
                        help="git revision to compare the working tree with")
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="a workload to run (repeatable; default all)")
    parser.add_argument("--seeds", default="0-9",
                        help="seeds as a list of ranges, such as 300-309")
    parser.add_argument("--seconds", type=int, default=30,
                        help="--seconds of each perfbench run")
    parser.add_argument("--out", default="pairs.json",
                        help="path of the JSON file to write")
    args = parser.parse_args(argv)
    workloads = args.workload or list(WORKLOADS)
    seeds = parse_seeds(args.seeds)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    runs, summary, failed = [], {}, {}
    with tempfile.TemporaryDirectory() as scratch:
        base_tree = Path(scratch)
        base_commit = extract(args.base, base_tree)
        for workload in workloads:
            for i, seed in enumerate(seeds):
                order = (("base", base_tree), ("change", ROOT))
                for side, tree in order if i % 2 == 0 else order[::-1]:
                    run = perfbench(tree, workload, seed, args.seconds)
                    run.update(workload=workload, seed=seed, side=side)
                    runs.append(run)
                    print(f"{workload} seed {seed} {side}: "
                          f"wall_s {value(run, 'wall_s')}"
                          f"{' FAILED' if run['failed'] else ''}",
                          flush=True)
    for workload in workloads:
        sides = {side: sorted((r for r in runs if r["workload"] == workload
                               and r["side"] == side),
                              key=lambda r: seeds.index(r["seed"]))
                 for side in ("base", "change")}
        failed[workload] = [sum(r["failed"] for r in sides[side])
                            for side in ("base", "change")]
        summary[workload] = {
            m["name"]: compare([value(r, m["name"]) for r in sides["base"]],
                               [value(r, m["name"]) for r in sides["change"]],
                               m["better"], m["bound"])
            for m in spec["end_to_end"]}
    text = paragraph(args, base_commit, summary, failed)
    Path(args.out).write_text(json.dumps(
        {"base": args.base, "base_commit": base_commit, "seeds": seeds,
         "seconds": args.seconds, "runs": runs, "failed": failed,
         "summary": summary, "paragraph": text}, indent=1) + "\n")
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
