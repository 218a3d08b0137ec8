#!/usr/bin/env python3
"""Run every shipped config: the three contraction regimes, the decay
controls, the local-limit baseline and the mean-field equivalence check.

Each experiment comes from a config file in configs/ and writes its
artifacts (margins.npy, report JSONL, manifest) into a subdirectory of
the chosen output root.  The negative control is expected to fail; the
script's exit status is 0 only when every run behaves as expected, 1
otherwise, and the command line's 2 or 3 when a config cannot be loaded
or a run ends in an error.
"""

import argparse
import sys
from pathlib import Path

from votelim import VotelimError
from votelim.cli import report_error, run
from votelim.config import load_config

ROOT = Path(__file__).resolve().parent.parent

# (config, expected exit code)
EXPERIMENTS = [
    ("fast_clt.yaml", 0),
    ("critical_clt.yaml", 0),
    ("subcritical_base.yaml", 0),
    ("subcritical_decay.yaml", 0),
    ("decay_negative_control.yaml", 1),
    ("llt_baseline.yaml", 0),
    ("cwm_equivalence.yaml", 0),
]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="results/regimes", help="output root directory")
    parser.add_argument("--workers", type=int, default=None,
                        help="sampler threads for every run (default: the config's "
                             "workers, else one per CPU)")
    args = parser.parse_args()

    failures = 0
    for name, expected in EXPERIMENTS:
        out_dir = Path(args.out) / name.removesuffix(".yaml")
        try:
            cfg = load_config(ROOT / "configs" / name, {"workers": args.workers})
            print(f"== {name} -> {out_dir}")
            code = run(cfg, out_dir)
        except (VotelimError, MemoryError) as exc:
            return report_error(exc)
        verdict = "as expected" if code == expected else f"UNEXPECTED (got {code}, want {expected})"
        print(f"   exit {code} {verdict}")
        failures += code != expected
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
