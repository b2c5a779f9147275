#!/usr/bin/env python3
"""Dry-site mass profile under the non-explosive benchmark regime.

Samples grain fields with reach-statistic lengths and prints, per site m,
the empirical classical dry frequency and the product-formula value built
from MC reach tails (these describe two events one threshold apart; both
are shown).
"""
import argparse
import math

import numpy as np

from frogmodel import SpeedFunction, YLogY, dry_probability, sample_grain_fields
from frogmodel.rng import substream
from frogmodel.tadibp import dry_frequency, no_overshoot_frequency
from frogmodel.walks import estimate_reach_tail


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sites", type=int, nargs="+", default=[10, 20, 40, 80])
    ap.add_argument("--fields", type=int, default=800)
    ap.add_argument("--reach-replicas", type=int, default=20000)
    ap.add_argument("--seed", type=int, default=11)
    args = ap.parse_args()

    m_max = max(args.sites)
    cap = m_max + 16
    speed = SpeedFunction.log_increment(horizon=m_max + cap + 1)
    dist = YLogY(1.0)
    fields = sample_grain_fields(speed, dist, m_max - 1,
                                 substream(args.seed, "fields"),
                                 n_fields=args.fields, cap=cap, traj_cap=5000)
    lengths = np.stack([f.lengths for f in fields])
    # one sample of replicas per site i serves every m > i, at threshold m - i
    tails = []
    for i in range(m_max):
        ms = [m for m in args.sites if m > i]
        est = estimate_reach_tail(speed, i, [m - i for m in ms], dist,
                                  args.reach_replicas, substream(args.seed, "tail", i),
                                  cap=cap, traj_cap=5000)
        tails.append(dict(zip(ms, est.p.tolist())))

    print(f"{'m':>4} {'dry_freq':>9} {'se':>7} {'no_overshoot':>13} {'formula':>9}")
    for m in args.sites:
        dry = dry_frequency(lengths, m)
        se = math.sqrt(max(dry * (1 - dry), 1e-9) / args.fields)
        noov = no_overshoot_frequency(lengths, m)
        formula = dry_probability(m, [tails[i][m] for i in range(m)])
        print(f"{m:>4} {dry:>9.4f} {se:>7.4f} {noov:>13.4f} {formula:>9.4f}")


if __name__ == "__main__":
    main()
