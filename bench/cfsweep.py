"""Continued-fraction round trip over every reduced p/q with p, q <= N.

Each pair goes through ``cf_expand(Fraction(p, q))``, ``convergent`` and
``euclid_quotients`` and must come back exactly (acceptance criterion 7).
The seed only fixes the order in which the pairs are visited.

The traced benchmark run calls :func:`sweep` in-process; the untraced runs
time this file as a fresh process, which prints one JSON line:

    PYTHONPATH=src python3 bench/cfsweep.py --n 300 --seed 1
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import random
from fractions import Fraction


def reduced_pairs(n: int, seed: int) -> list[tuple[int, int]]:
    pairs = [(p, q) for q in range(1, n + 1) for p in range(1, n + 1)
             if math.gcd(p, q) == 1]
    random.Random(seed).shuffle(pairs)
    return pairs


def sweep(pairs: list[tuple[int, int]]) -> dict:
    """Round-trip every pair; returns the counts and a digest of all quotients."""
    from sixradii.contfrac import cf_expand, convergent, euclid_quotients

    failed = 0
    expansions = []
    for p, q in pairs:
        value = Fraction(p, q)
        expansion = cf_expand(value)
        quotients = expansion.quotients
        euclid = euclid_quotients(p, q)
        if (not expansion.exact or convergent(quotients) != value
                or euclid != list(quotients)):
            failed += 1
        expansions.append(quotients)
    digest = hashlib.sha256(repr((pairs, expansions)).encode()).hexdigest()
    return {"pairs": len(pairs), "failed": failed, "sha256": digest}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    print(json.dumps(sweep(reduced_pairs(args.n, args.seed)), sort_keys=True))


if __name__ == "__main__":
    main()
