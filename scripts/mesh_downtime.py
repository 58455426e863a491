#!/usr/bin/env python3
"""All-same rate and energy comparison: star cell vs mesh arbitration rounds.

Sensor-network angle: the avoid-worst regime removes the event in which
every player of a game lands on one channel, so its all-same rate is 0.
That is not zero downtime: a slot whose channels are all occupied delivers
nothing, and players can still collide in smaller groups with nobody alone
on a channel (a full n=5 game does so with probability 0.080).  In a mesh
every node pays an extra arbitration charge per round, which makes the
collision savings show up directly in the energy-per-delivery proxy.
"""

import argparse
import dataclasses

from qmg.mac import (
    CLASSICAL_UNIFORM,
    QUANTUM_AVOID_WORST,
    AllocatorPolicy,
    CellConfig,
    run_cell,
    run_mesh_rounds,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=4)
    parser.add_argument("--slots", type=int, default=200_000)
    parser.add_argument("--activity", type=float, default=0.2)
    parser.add_argument("--degree", type=int, default=None,
                        help="mesh ring degree (default: full mesh)")
    parser.add_argument("--seed", type=int, default=2)
    args = parser.parse_args()

    star = CellConfig(n_users=args.n, n_channels=args.n, primary_activity=args.activity,
                      slots=args.slots, seed=args.seed)
    mesh = dataclasses.replace(star, topology="mesh-rounds", mesh_degree=args.degree)

    print(f"{'topology':>8} {'policy':>22} {'all-same':>10} {'throughput':>11} {'energy':>8}")
    for kind in (CLASSICAL_UNIFORM, QUANTUM_AVOID_WORST):
        policy = AllocatorPolicy(kind)
        star_metrics, _ = run_cell(star, policy)
        mesh_metrics = run_mesh_rounds(mesh, policy)
        for name, m in (("star", star_metrics), ("mesh", mesh_metrics)):
            print(f"{name:>8} {kind:>22} {m.all_same_rate:>10.6f} "
                  f"{m.throughput:>11.4f} {m.energy_proxy:>8.3f}")


if __name__ == "__main__":
    main()
