#!/usr/bin/env python3
"""Trajectory regression gate for the figure harness.

Compares a freshly generated ``results/BENCH_trajectory.json`` (written by
``cargo run -p rock-bench --bin figures``) against the committed baseline
``results/BENCH_trajectory_baseline.json`` and exits non-zero on a
regression:

* **Wall time** is compared as per-panel *shares* of the run's total wall
  seconds, not absolute seconds — CI runners vary wildly in speed, but a
  panel suddenly eating a 20%+ larger slice of the run than it used to is
  a real algorithmic regression, not runner noise.  A panel fails when its
  share exceeds baseline share * (1 + SLACK) + ABS_SLACK.
* **Semantic metrics** (the ``metrics`` map: speedup ratios, checkpoint /
  resume-point counts) are runner-speed invariant, so they gate directly:
  a metric fails when it degrades by more than SLACK relative to baseline.
  Direction matters — for ratios named ``*_ratio`` where bigger is better
  (chase_delta_valuation_ratio) a *drop* fails, for overhead-style ratios
  (durability_overhead_ratio, chaos_wall_ratio) a *rise* fails, and counts
  (checkpoints, resume_points) fail only when they *shrink* (lost
  durability coverage).

Bootstrap mode: while the baseline carries ``"bootstrap": true`` the gate
only reports (always exit 0).  Refresh the baseline from a green CI run's
``BENCH_trajectory.json`` artifact and drop the flag to arm the gate.

Usage: check_trajectory.py [current.json [baseline.json]]
"""

import json
import sys

SLACK = 0.20  # 20% relative tolerance (the ISSUE's regression budget)
# 10-point absolute share slack.  Shares are gated against an *armed*
# baseline now: with only four gated panels in the trajectory run a small
# absolute cushion turns runner jitter on 1-4s panels into spurious
# failures, so the share gate catches panels whose slice of the run grows
# by double digits (a real algorithmic regression) while the semantic
# metrics below stay tight at SLACK.
ABS_SLACK = 0.10


def load(path):
    try:
        with open(path) as f:
            return json.load(f)
    except FileNotFoundError:
        return None


def shares(panels):
    total = sum(p.get("wall_seconds", 0.0) for p in panels.values())
    if total <= 0:
        return {}
    return {k: p.get("wall_seconds", 0.0) / total for k, p in panels.items()}


# Overhead-style metrics where a RISE is a regression; everything else
# ending in _ratio is treated as bigger-is-better, bare counts as
# must-not-shrink.
RISE_IS_BAD = {
    "durability_overhead_ratio",
    "chaos_wall_ratio",
    "recovery_wall_ratio",
}

# Metrics that must stay *exactly* zero: any nonzero current value is a
# regression regardless of slack.  Checked before the base<=0 guard below,
# which would otherwise silently skip a zero-valued baseline.
ZERO_METRICS = {
    "lint_violations",
}


def check_metric(name, base, cur):
    """Return a failure message or None."""
    if name in ZERO_METRICS:
        if cur != 0:
            return f"metric {name} must stay 0, got {cur:g}"
        return None
    if base <= 0:
        return None
    if name in RISE_IS_BAD:
        if cur > base * (1.0 + SLACK):
            return f"metric {name} rose {base:.3f} -> {cur:.3f} (> {SLACK:.0%} slack)"
    elif name.endswith("_ratio"):
        if cur < base * (1.0 - SLACK):
            return f"metric {name} fell {base:.3f} -> {cur:.3f} (> {SLACK:.0%} slack)"
    else:  # counts: losing durability coverage is the regression
        if cur < base * (1.0 - SLACK):
            return f"metric {name} shrank {base:.0f} -> {cur:.0f} (> {SLACK:.0%} slack)"
    return None


def main(argv):
    cur_path = argv[1] if len(argv) > 1 else "results/BENCH_trajectory.json"
    base_path = (
        argv[2] if len(argv) > 2 else "results/BENCH_trajectory_baseline.json"
    )
    cur = load(cur_path)
    if cur is None:
        print(f"FAIL: no current trajectory at {cur_path}")
        return 1
    base = load(base_path)
    if base is None:
        print(f"WARN: no baseline at {base_path}; nothing to gate against")
        return 0
    bootstrap = bool(base.get("bootstrap"))

    failures = []
    cur_shares = shares(cur.get("panels", {}))
    base_shares = shares(base.get("panels", {}))
    for panel, bshare in sorted(base_shares.items()):
        cshare = cur_shares.get(panel)
        if cshare is None:
            failures.append(f"panel {panel} missing from current run")
            continue
        limit = bshare * (1.0 + SLACK) + ABS_SLACK
        status = "ok" if cshare <= limit else "REGRESSED"
        print(
            f"panel {panel:<12} share {bshare:.3f} -> {cshare:.3f}"
            f" (limit {limit:.3f}) {status}"
        )
        if cshare > limit:
            failures.append(
                f"panel {panel} wall share {bshare:.3f} -> {cshare:.3f}"
                f" exceeds limit {limit:.3f}"
            )

    base_metrics = base.get("metrics", {})
    cur_metrics = cur.get("metrics", {})
    for name, bval in sorted(base_metrics.items()):
        cval = cur_metrics.get(name)
        if cval is None:
            failures.append(f"metric {name} missing from current run")
            continue
        msg = check_metric(name, float(bval), float(cval))
        print(f"metric {name:<32} {float(bval):.3f} -> {float(cval):.3f}"
              f" {'REGRESSED' if msg else 'ok'}")
        if msg:
            failures.append(msg)

    if failures:
        print()
        for f in failures:
            print(f"FAIL: {f}")
        if bootstrap:
            print(
                "\nbaseline is bootstrap-mode (estimated numbers): reporting"
                " only, not failing the build. Refresh the baseline from a"
                " green run's BENCH_trajectory.json artifact to arm the gate."
            )
            return 0
        return 1
    print("\ntrajectory within budget" + (" (bootstrap baseline)" if bootstrap else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
