#!/usr/bin/env python3
"""Reproduce the headline classification results in one run.

For every exceptional case plus a slice of the classical families, prints
the ``trisym dims`` text (dimensions and exact coefficient data) and the
``trisym solve`` text (the Einstein-metric classification: counts and
certified decimals, each metric verified before it is printed). Exits with
the largest exit code of those commands.
"""

import argparse
import sys

from trisym import cli

HEADLINE = [
    ["A-II", "--l", "3"], ["A-II", "--l", "5"], ["A-II", "--l", "7"],
    ["E6-I"], ["E6-II"], ["E6-III"],
    ["E7-I"], ["E7-II"], ["E7-III"],
    ["E8-I"], ["E8-II"],
    ["F4-I"], ["F4-II"],
    ["A-III", "--l", "2", "--i", "1", "--j", "2"],
    ["C-I", "--l", "3", "--i", "1", "--j", "2"],
    ["D-V", "--l", "4"],
    ["D-IV", "--l", "4"],
]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--digits", type=int, default=4)
    args = ap.parse_args()
    status = cli.EXIT_OK
    for entry in HEADLINE:
        for argv in (["dims", *entry], ["solve", *entry, "--digits", str(args.digits)]):
            status = max(status, cli.main(argv))
        print()
    return status


if __name__ == "__main__":
    sys.exit(main())
