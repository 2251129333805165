#!/usr/bin/env python3
"""Compare two sets of e2e benchmark runs (choosing-metrics guide, 6.5).

    python3 benchmarks/e2e/compare.py --base base/*.json --new new/*.json

Each file is what ``run.py --out FILE`` wrote; a set needs at least five
runs.  For every workload and end-to-end metric the medians, quartiles
and the ratio (with its base) are printed, and one verdict:

* ``within-bound`` — the new median is not worse than the base median by
  more than the bound ``catalog.py`` fixes for the metric;
* ``regressed`` — it is worse by more than the bound;
* ``unresolved`` — the run-to-run spread (interquartile range over
  median, the wider of the two sets) exceeds the bound, so the medians
  decide nothing — unless every new run reads better (``within-bound``)
  or worse (``regressed``) than every base run.

``failed_share`` may not rise at all, and the exact-count per-layer
metrics of traced runs must be identical in all runs that share a seed.
Comparing two sets from one commit is the A/A check: everything must
come out ``within-bound``.  Exit status 1 if anything regressed or an
exact count differs.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import catalog  # noqa: E402
from estimators import quartiles  # noqa: E402

MIN_RUNS = 5


def load(paths: list[str]) -> dict:
    """``{(workload, trace): [result, ...]}`` over every run in ``paths``."""
    runs: dict[tuple[str, int], list[dict]] = {}
    for path in paths:
        for result in json.loads(Path(path).read_text())["results"]:
            runs.setdefault((result["workload"], result["trace"]), []).append(result)
    return runs


def values(results: list[dict], metric: str) -> list[float]:
    return [r["metrics"][metric]["value"] for r in results]


def verdict(base: list[float], new: list[float], better: str, bound: float) -> tuple[str, float, float]:
    """``(verdict, worse_by, spread)``: how much worse the new median is,
    as a share of the base median, and the wider relative IQR."""
    (b1, b2, b3), (n1, n2, n3) = quartiles(base), quartiles(new)
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (n2 - b2) / b2
    spread = max((b3 - b1) / b2, (n3 - n1) / n2)
    if spread > bound:
        if all(sign * n < sign * b for n in new for b in base):
            return "within-bound", worse_by, spread
        if all(sign * n > sign * b for n in new for b in base) and worse_by > bound:
            return "regressed", worse_by, spread
        return "unresolved", worse_by, spread
    return ("regressed" if worse_by > bound else "within-bound"), worse_by, spread


def compare(base: dict, new: dict, out=sys.stdout) -> bool:
    """Print the comparison; True when nothing regressed or differs."""
    ok = True
    for (workload, trace), base_runs in sorted(base.items()):
        new_runs = new.get((workload, trace))
        if new_runs is None:
            continue
        if min(len(base_runs), len(new_runs)) < MIN_RUNS:
            raise SystemExit(
                f"{workload} trace={trace}: {len(base_runs)} base and {len(new_runs)} new runs; "
                f"a set needs at least {MIN_RUNS}"
            )
        if trace == 0:
            for metric in catalog.END_TO_END:
                b, n = values(base_runs, metric.name), values(new_runs, metric.name)
                word, worse_by, spread = verdict(b, n, metric.better, metric.bound)
                (b1, b2, b3), (n1, n2, n3) = quartiles(b), quartiles(n)
                print(
                    f"{workload:14s} {metric.name:16s} base {b2:12.4f} [{b1:.4f}, {b3:.4f}] "
                    f"new {n2:12.4f} [{n1:.4f}, {n3:.4f}] {metric.unit:4s} "
                    f"ratio {n2 / b2:6.3f} of base {b2:.4f}  spread {spread:6.1%} "
                    f"bound {metric.bound:4.0%}  {word}",
                    file=out,
                )
                ok &= word != "regressed"
        shares = [
            sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)
            for runs in (base_runs, new_runs)
        ]
        word = "regressed" if shares[1] > shares[0] else "within-bound"
        print(
            f"{workload:14s} {'failed_share':16s} base {shares[0]:12.6f} new {shares[1]:12.6f} "
            f"(trace={trace})  {word}",
            file=out,
        )
        ok &= word != "regressed"
        if trace == 1:
            # exact counts depend on the generated inputs: compare within a seed
            for name in sorted(catalog.EXACT):
                by_seed: dict[int, set[float]] = {}
                for result in base_runs + new_runs:
                    by_seed.setdefault(result["seed"], set()).add(result["metrics"][name]["value"])
                word = "equal" if all(len(seen) == 1 for seen in by_seed.values()) else "differs"
                shown = {seed: sorted(seen) for seed, seen in sorted(by_seed.items())}
                print(f"{workload:14s} {name:40s} {shown}  {word}", file=out)
                ok &= word == "equal"
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", nargs="+", required=True, help="result files of the base set")
    parser.add_argument("--new", nargs="+", required=True, help="result files of the new set")
    args = parser.parse_args(argv)
    return 0 if compare(load(args.base), load(args.new)) else 1


if __name__ == "__main__":
    sys.exit(main())
