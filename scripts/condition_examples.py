#!/usr/bin/env python3
"""Series-condition checks for the two benchmark regimes.

Explosive side: counts floor(e^X) with Pareto X (tail t^-a, a in (0,1)),
quadratic speed, rho = 2; the paper proves explosion for every such a.
Non-explosive side: counts floor(e^{Y ln Y}) with exponential Y and the
speed whose reciprocal prefix telescopes to ln(n+1).  A point mass is
included to show the explosion condition failing.
"""
import argparse

from frogmodel import Dirac, LogPareto, SpeedFunction, YLogY
from frogmodel.conditions import check_explosion, check_nonexplosion


def show(title, report):
    print(f"\n{title}: {report.verdict}")
    for name, part in report.parts.items():
        lo, hi = part.log_partial_sum()
        print(f"  {name:<24} {part.verdict:<24} ln partial sum in [{lo:.6g}, {hi:.6g}]"
              f" @ k_last {part.k_last}, slopes {part.slope_lo:.3g} / {part.slope_hi:.3g}")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--horizon", type=int, default=0,
                    help="largest m summed (0: every block up to k = K_MAX)")
    ap.add_argument("--rho", type=float, default=2.0)
    ap.add_argument("--pareto-a", type=float, nargs="+", default=[0.5, 0.7, 0.9])
    args = ap.parse_args()

    square = SpeedFunction.power(2.0, horizon=4096)
    log_inc = SpeedFunction.log_increment(horizon=4096)

    for a in args.pareto_a:
        show(f"log-Pareto({a}) counts, quadratic speed",
             check_explosion(LogPareto(a), square, args.rho, args.horizon))
    show("exp(Y ln Y) counts, log-increment speed",
         check_nonexplosion(YLogY(1.0), log_inc, args.horizon))
    show("point-mass counts, quadratic speed",
         check_explosion(Dirac(1), square, args.rho, args.horizon))
    print("\nverdicts are finite-horizon diagnostics, not convergence proofs")


if __name__ == "__main__":
    main()
