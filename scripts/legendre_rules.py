#!/usr/bin/env python3
"""Rebuild, or check, the stored Gauss-Legendre rules of votelim.quadrature.

The package reads its rules from ``src/votelim/legendre_rules.npy``: for
every level ``refine_until_stable`` can ask for, the nonnegative half of
``numpy.polynomial.legendre.leggauss(level)``'s nodes and weights (see
``quadrature.RULE_LEVELS``).  Run without arguments, this script rebuilds
that file from ``leggauss``; level 4096 takes most of its few seconds.
With ``--check`` it writes nothing and compares a rebuild with the stored
file, node by node and weight by weight, exiting 1 if any value differs by
more than ``TOLERANCE``, the bound the tests put on the weights' sum.
Another LAPACK may move the last bits of a rebuild, so the check allows
them; the package itself never rebuilds a rule.  Run from the root of a
checkout:

    PYTHONPATH=src python3 scripts/legendre_rules.py [--check]
"""

import argparse
import sys

import numpy as np

from votelim.quadrature import RULE_LEVELS, RULES_FILE

#: largest difference --check allows between a rebuilt and a stored value
TOLERANCE = 1e-14


def rebuild() -> np.ndarray:
    """The (2, sum(RULE_LEVELS) // 2) array of stored nodes and weights."""
    halves = []
    for level in RULE_LEVELS:
        nodes, weights = np.polynomial.legendre.leggauss(level)
        halves.append(np.stack([nodes[level // 2:], weights[level // 2:]]))
    return np.concatenate(halves, axis=1)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="compare a rebuild with the stored file instead of writing it")
    args = parser.parse_args()

    table = rebuild()
    if not args.check:
        np.save(RULES_FILE, table)
        print(f"wrote {RULES_FILE}: levels {', '.join(map(str, RULE_LEVELS))}")
        return 0
    stored = np.load(RULES_FILE)
    if stored.shape != table.shape or stored.dtype != table.dtype:
        print(f"{RULES_FILE} holds a {stored.dtype} array of shape {stored.shape}, "
              f"a rebuild a {table.dtype} array of shape {table.shape}")
        return 1
    delta = float(np.max(np.abs(stored - table)))
    exact = np.array_equal(stored, table)
    print(f"levels {', '.join(map(str, RULE_LEVELS))}: largest difference from a "
          f"rebuild {delta:g} ({'bit-identical' if exact else f'bound {TOLERANCE:g}'})")
    return 0 if delta <= TOLERANCE else 1


if __name__ == "__main__":
    sys.exit(main())
