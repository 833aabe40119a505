#!/usr/bin/env python3
"""Regenerate every desk-scale figure dataset into one directory.

Usage: python scripts/regenerate_figure_data.py [--out-dir data]
"""

import argparse
import sys

from rgstates.cli import FIG_TARGETS, main as cli_main


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="data")
    args = parser.parse_args()
    for target in FIG_TARGETS:
        code = cli_main(["figs", "--target", target, "--out-dir", args.out_dir])
        if code != 0:
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
