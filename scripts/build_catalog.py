#!/usr/bin/env python3
"""Dump the full case catalog (with exact coefficient data) as JSON.

Usage: python scripts/build_catalog.py [--max-rank N] [--out FILE]
"""

import argparse
import sys
from pathlib import Path

from trisym.cases import LIST_MAX_RANK, enumerate_cases
from trisym.coeffs import coefficients_for_case
from trisym.errors import TrisymError
from trisym.serialize import encode_case, envelope, to_json


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-rank", type=int, default=LIST_MAX_RANK)
    ap.add_argument("--out", type=Path, default=None)
    args = ap.parse_args()

    try:
        cases = enumerate_cases(args.max_rank)
    except TrisymError as exc:
        ap.error(str(exc))  # argparse's usage exit, code 2
    payload = {
        "max_rank": args.max_rank,
        "cases": [encode_case(c, coefficients_for_case(c)) for c in cases],
    }
    doc = to_json(envelope("catalog", payload))
    if args.out:
        args.out.write_text(doc)
        print(f"wrote {len(cases)} cases to {args.out}", file=sys.stderr)
    else:
        sys.stdout.write(doc)
    return 0


if __name__ == "__main__":
    sys.exit(main())
