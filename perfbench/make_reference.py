#!/usr/bin/env python3
"""Regenerate the reference values the benchmark's correctness gate reads.

For every family it writes perfbench/reference/<family>.txt with f(0..ORDER)
as "<n> <value>" lines. A file is written only when the gf, product and
binomial routes agree on every coefficient, and the brute route agrees as
well for n <= BRUTE_LIMIT; any disagreement aborts without writing.

Run from the repository root:  python3 perfbench/make_reference.py
"""

from __future__ import annotations

import sys

from run import import_package
from workloads import REFERENCE_DIR, REFERENCE_ORDER


def main() -> int:
    pkg = import_package()
    Route = pkg.Route
    REFERENCE_DIR.mkdir(parents=True, exist_ok=True)
    for family in pkg.FamilyId:
        tables = {route: pkg.table(family, REFERENCE_ORDER, route)
                  for route in (Route.GF, Route.PRODUCT, Route.BINOMIAL)}
        tables[Route.BRUTE] = pkg.table(family, pkg.BRUTE_LIMIT, Route.BRUTE)
        values = tables[Route.GF]
        for route, other in tables.items():
            if other != values[:len(other)]:
                n = next(i for i, (a, b) in enumerate(zip(values, other)) if a != b)
                print(f"error: {family.value}: {route.value} disagrees with gf at n={n}",
                      file=sys.stderr)
                return 1
        path = REFERENCE_DIR / f"{family.value}.txt"
        with open(path, "w", encoding="ascii") as fh:
            fh.write(f"# {family.value}: f(0..{REFERENCE_ORDER}); gf, product and binomial "
                     f"routes agree, brute agrees for n <= {pkg.BRUTE_LIMIT}\n")
            fh.writelines(f"{n} {v}\n" for n, v in enumerate(values))
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
