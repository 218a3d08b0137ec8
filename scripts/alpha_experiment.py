#!/usr/bin/env python3
"""End-to-end scaling-exponent experiment.

Simulates per-capita absolute margins of a subcritically contracting
uniform model over a grid of population sizes, writes them in the CSV
schema the estimate-alpha command ingests, and fits the decay exponent.
With eps_n = n^-0.15 the fitted alpha should land near 0.15, inside the
empirically observed 0.1..0.2 band.  Exit codes are the command line's:
2 for invalid arguments or data (a count below 2, a one-point grid, a
nonpositive exponent), 3 for a tripped resource guard, each with one
line on stderr.
"""

import argparse
import csv
import sys
from pathlib import Path

from votelim import (
    CLAMP,
    ContractedSequence,
    DeFinettiModel,
    GroupStructure,
    PowerLawSchedule,
    UniformBox,
    VotelimError,
    estimate_alpha,
    expected_abs_margin,
)
from votelim.cli import ingest_margins, report_error


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--exponent", type=float, default=0.15)
    parser.add_argument("--grid", type=int, nargs="+",
                        default=[10**3, 10**4, 10**5, 10**6])
    parser.add_argument("--count", type=int, default=200_000)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--out", default="results/alpha")
    args = parser.parse_args()
    try:
        return experiment(args)
    except (VotelimError, MemoryError) as exc:
        return report_error(exc)


def experiment(args) -> int:
    """Simulate over the grid, write the CSV and print the fit."""
    model = DeFinettiModel(
        GroupStructure(1, [1.0]),
        ContractedSequence(UniformBox([-1.0], [1.0]), PowerLawSchedule(1.0, args.exponent)),
        CLAMP,
    )
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / "margins.csv"
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["population", "margin_per_capita"])
        for n in args.grid:
            est = expected_abs_margin(
                model, n, mode="monte-carlo", count=args.count, seed=args.seed
            )
            writer.writerow([n, repr(est.per_capita[0])])
            print(f"n={n:>8}  E|margin|/n = {est.per_capita[0]:.6f} "
                  f"(se {est.standard_error[0]:.2e})")

    fit = estimate_alpha(ingest_margins(csv_path))
    print(f"\nfitted alpha = {fit.alpha:.4f} (target {args.exponent}), "
          f"residual variance {fit.residual_variance:.2e}")
    print(f"margins written to {csv_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
