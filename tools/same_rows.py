#!/usr/bin/env python3
"""Exact row-parity gate for two RunReport JSON files.

Exits 0 when both reports' `rows` arrays are equal, row for row and
field for field, and 1 otherwise, naming the first row that differs.
`bpstat diff` forgives small deltas and rows found in one report
only, so parity gates call this beside it.

Usage: same_rows.py A.json B.json
"""

import json
import sys


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    a, b = (json.load(open(p))["rows"] for p in sys.argv[1:])
    if a == b:
        return 0
    i = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y),
             min(len(a), len(b)))
    print(f"same_rows: {len(a)} vs {len(b)} rows, first difference "
          f"at row {i}:\n  {a[i] if i < len(a) else '-'}\n"
          f"  {b[i] if i < len(b) else '-'}", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
