#!/usr/bin/env python3
"""Mean-field model checks: representation equivalence and concentration.

Sweeps the single-group inverse temperature over a grid, checking that
the Gibbs enumeration and the mixing-density quadrature give the same
margin law, then profiles how fast the mixing measure concentrates and
reports the slope of log tail mass in n.  Exits 0 when every check
holds, 1 when one fails, and with the command line's codes (2 invalid
arguments, 3 a tripped resource guard) on an error.
"""

import argparse
import sys

import numpy as np

from votelim import (
    CouplingSpec,
    GroupStructure,
    VotelimError,
    concentration_profile,
    representation_equivalence_check,
)
from votelim.cli import report_error
from votelim.config import KINDS


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--betas", type=float, nargs="+", default=[0.25, 0.5, 0.75, 0.9])
    parser.add_argument("--sizes", type=int, nargs="+", default=[8, 12, 16])
    parser.add_argument("--delta", type=float, default=0.5)
    parser.add_argument("--conc-grid", type=int, nargs="+", default=[20, 40, 80, 160])
    args = parser.parse_args()
    try:
        return checks(args)
    except (VotelimError, MemoryError) as exc:
        return report_error(exc)


def checks(args) -> int:
    """Run the equivalence sweep and the concentration profiles; 0 if all hold."""
    groups = GroupStructure(1, [1.0])
    bound = KINDS["verify-cwm"].thresholds["equivalence"]
    ok = True
    print("representation equivalence (max |Gibbs - quadrature| per margin):")
    for beta in args.betas:
        spec = CouplingSpec.single_group(beta)
        for n in args.sizes:
            disc = representation_equivalence_check(spec, groups, n)
            ok = ok and disc <= bound
            print(f"  beta={beta:<5} n={n:<3} discrepancy={disc:.3e}")

    print(f"\nconcentration outside [-{args.delta}, {args.delta}]:")
    for beta in args.betas:
        spec = CouplingSpec.single_group(beta)
        tails = np.array(concentration_profile(spec, groups, args.conc_grid, args.delta))
        ns = np.array(args.conc_grid, dtype=float)
        slope = np.polyfit(ns, np.log(tails), 1)[0]
        ok = ok and slope < 0
        pretty = ", ".join(f"{t:.3e}" for t in tails)
        print(f"  beta={beta:<5} tails=[{pretty}]  log-slope={slope:.4f}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
