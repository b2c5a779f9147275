#!/usr/bin/env python3
"""Regime-separation experiment: point-mass counts vs heavy log-Pareto counts.

Runs the frog simulation at a dyadic horizon for both count laws, applies
the dyadic-slope diagnostic, and prints per-law label tallies.  Heavy-tail
cells run with the cohort cap enabled (a labeled biased speedup that can
only delay activations, so explosive-like labels stay conservative).
"""
import argparse
from collections import Counter

from frogmodel import FrogConfig, LogPareto, Dirac, regime_diagnostic, simulate
from frogmodel.rng import substream


def run_cell(name, make_config, replicas, seed):
    records = []
    for rep in range(replicas):
        rep_seed = int(substream(seed, name, rep).integers(1 << 62))
        records.append(simulate(make_config(rep_seed)))
    report = regime_diagnostic(records)
    tally = Counter(report.labels)
    print(f"{name:<12} label={report.label:<16} slope={report.slope:8.3f} "
          f"agreement={report.agreement:.0%} excluded={report.excluded} "
          f"tally={dict(tally)}")
    return report


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--replicas", type=int, default=50)
    ap.add_argument("--horizon", type=int, default=256)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--pareto-a", type=float, default=0.5)
    args = ap.parse_args()

    print(f"replicas={args.replicas} horizon={args.horizon} seed={args.seed}")
    run_cell("point-mass",
             lambda s: FrogConfig(dist=Dirac(1), right_horizon=args.horizon,
                                  seed=s),
             args.replicas, args.seed)
    run_cell("log-pareto",
             lambda s: FrogConfig(dist=LogPareto(args.pareto_a),
                                  right_horizon=args.horizon, seed=s,
                                  cohort_cap=64),
             args.replicas, args.seed)
    print("labels are finite-size diagnostics, not proofs")


if __name__ == "__main__":
    main()
