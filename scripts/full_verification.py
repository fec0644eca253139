#!/usr/bin/env python3
"""Full-scale verification run: `verify --limit 500` (every family across the
three analytic routes, plus the binary product identity for m <= 50), then
`verify --limit 40 --brute` (the brute-force oracle). Exits with the larger
of the two exit codes.
"""

import sys

from v2partitions.cli import main

if __name__ == "__main__":
    sys.exit(max(main(["verify", "--limit", "500"]),
                 main(["verify", "--limit", "40", "--brute"])))
