#!/usr/bin/env python3
"""Benchmark the three allocation policies in one star cell.

Runs classical-uniform against both entangled-game regimes on a shared
primary-occupancy sequence, prints a metrics table, and writes the summary
JSON and per-slot CSV exactly as `qmg mac` does for the same cell.
"""

import argparse

from qmg.mac import POLICY_KINDS, AllocatorPolicy, CellConfig, compare_policies


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=4)
    parser.add_argument("--slots", type=int, default=1_000_000)
    parser.add_argument("--activity", type=float, default=0.0)
    parser.add_argument("--seed", type=int, default=404)
    parser.add_argument("--out-prefix", default="results/mac_benchmark")
    args = parser.parse_args()

    config = CellConfig(n_users=args.n, n_channels=args.n, primary_activity=args.activity,
                        slots=args.slots, seed=args.seed)
    comparison = compare_policies(config, [AllocatorPolicy(kind) for kind in POLICY_KINDS])

    print(f"{'policy':>26} {'throughput':>11} {'collisions':>11} {'all-distinct':>13} "
          f"{'all-same':>10} {'energy':>8}")
    for run in comparison.runs:
        m = run.metrics
        print(f"{run.policy.kind:>26} {m.throughput:>11.4f} {m.collision_rate:>11.4f} "
              f"{m.all_distinct_rate:>13.6f} {m.all_same_rate:>10.6f} {m.energy_proxy:>8.3f}")
    for kind, ratio in comparison.all_distinct_ratios().items():
        shown = "n/a" if ratio is None else f"{ratio:.4f}"
        print(f"all-distinct ratio {kind}/classical-uniform: {shown}")

    comparison.write(args.out_prefix)
    print(f"wrote {args.out_prefix}.json and {args.out_prefix}.csv")


if __name__ == "__main__":
    main()
