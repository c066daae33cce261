#!/usr/bin/env python3
"""A/B the row-scale benchmark against a parent revision.

Run from anywhere inside the repository:

    python3 scripts/rowbench_ab.py --parent HEAD~1 --pairs 10 --seconds 30 --seed 1
    make rowbench-ab PARENT=HEAD~1 PAIRS=10 SECONDS=30 SEED=1

The parent's committed files are exported (git archive, so the
repository's worktree list is left alone) into .bench_build/ab/<rev>/,
and rowbench/run.py runs in that tree and in this checkout, each
building from its own source. The order flips every pair, so slow
drift on the host hits both sides alike.

For each workload and each end-to-end metric of BENCHMARK.json it
prints both medians and quartiles, how many pairs the change won, and
the metric's bound. A metric whose change median is worse than the
parent's by more than its bound is flagged WORSE, as is any run that
was incorrect or failed ops; the exit code is then 1. Nothing under
rowbench/ is changed.
"""

import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True).stdout


def export(rev):
    """Export rev's committed tree once and return its directory."""
    sha = git("rev-parse", "--verify", rev + "^{commit}").decode().strip()
    tree = os.path.join(ROOT, ".bench_build", "ab", sha[:12])
    if not os.path.isdir(os.path.join(tree, "rowbench")):
        os.makedirs(tree, exist_ok=True)
        with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", sha))) as tar:
            tar.extractall(tree)
    return sha, tree


def run(tree, workload, args):
    """One benchmark run in tree; returns its parsed result line."""
    env = dict(os.environ)
    env.pop("CARGO_TARGET_DIR", None)  # each tree builds into its own .bench_build
    cmd = [sys.executable, "rowbench/run.py", "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    p = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True)
    lines = [l for l in p.stdout.splitlines() if l.strip()]
    try:
        res = json.loads(lines[-1])
    except (IndexError, ValueError):
        res = {}
    if p.returncode != 0 or not res.get("correct"):
        sys.stderr.write("%s %s: run failed (exit %d)\n%s%s" % (tree, workload, p.returncode, p.stdout, p.stderr))
        res.setdefault("correct", False)
    return res


def quartiles(xs):
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, med, q3


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--parent", required=True, help="revision to compare the checkout against")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--trace", type=int, default=0, help="1 runs the traced (per-layer) benchmark")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    metrics = bench["per_layer"] if args.trace else bench["end_to_end"]

    sha, parent = export(args.parent)
    sides = {"parent": parent, "change": ROOT}
    runs = {side: {w: [] for w in workloads} for side in sides}
    for w in workloads:
        for i in range(args.pairs):
            order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
            for side in order:
                runs[side][w].append(run(sides[side], w, args))
            print("%s pair %d/%d done" % (w, i + 1, args.pairs), file=sys.stderr, flush=True)

    bad = False
    print("rowbench A/B: parent %s vs checkout; %d pairs, --seconds %d, --seed %d, --trace %d"
          % (sha[:12], args.pairs, args.seconds, args.seed, args.trace))
    for w in workloads:
        print("\n## %s" % w)
        for side in sides:
            rs = runs[side][w]
            failed = sum(r.get("failed", 0) for r in rs)
            incorrect = sum(1 for r in rs if not r.get("correct"))
            print("%-6s correct %d/%d, failed ops %d" % (side, len(rs) - incorrect, len(rs), failed))
            bad = bad or incorrect > 0 or failed > 0
        print("%-32s %28s %28s %8s %6s %6s" % ("metric", "parent median [q1, q3]", "change median [q1, q3]", "delta", "wins", "bound"))
        for m in metrics:
            name, lower = m["name"], m["better"] == "lower"
            pairs = [(a["metrics"][name]["value"], b["metrics"][name]["value"])
                     for a, b in zip(runs["parent"][w], runs["change"][w])
                     if name in a.get("metrics", {}) and name in b.get("metrics", {})]
            if not pairs:
                continue
            pq, cq = quartiles([p for p, _ in pairs]), quartiles([c for _, c in pairs])
            wins = sum(1 for p, c in pairs if (c < p if lower else c > p))
            delta = (cq[1] - pq[1]) / pq[1] if pq[1] else 0.0
            worse = delta if lower else -delta
            bound = m.get("bound")
            flag = ""
            if bound is not None and worse > bound:
                flag, bad = "WORSE", True
            print("%-32s %28s %28s %+7.2f%% %3d/%-2d %6s %s" % (
                name,
                "%.6g [%.6g, %.6g]" % (pq[1], pq[0], pq[2]),
                "%.6g [%.6g, %.6g]" % (cq[1], cq[0], cq[2]),
                100 * delta, wins, len(pairs), "" if bound is None else "%g" % bound, flag))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
