#!/usr/bin/env python3
"""Purity surfaces over (field, temperature) and their field derivatives.

Writes, under --outdir:
  purity_n2.csv             two-site surface with the dense cross-check column
  purity_deriv_n2.csv       d(purity)/db curves at four temperatures
  purity_n10.csv            ten-site surface, analytic column only (`xxchain
                            purity --n 10` with the same grids also fills the
                            dense column, in about 22 s)
  negativity_n2.csv         two-site negativity sweep (kT_c goes to stderr)
"""

import argparse
import pathlib

from xxchain.cli import run


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="out", type=pathlib.Path)
    args = parser.parse_args()
    args.outdir.mkdir(parents=True, exist_ok=True)

    jobs = [
        (["purity", "--n", "2", "--b-range", "-1.5:1.5:121", "--t-range", "0.01:2:40"],
         "purity_n2.csv"),
        (["purity-derivative", "--n", "2", "--b-range", "-1.5:1.5:121", "--t-range", "0.01:2:4"],
         "purity_deriv_n2.csv"),
        (["purity", "--n", "10", "--b-range", "-1.5:1.5:121", "--t-range", "0.01:2:50", "--dense-cap", "2"],
         "purity_n10.csv"),
        (["negativity", "--n", "2", "--b-range", "-1.5:1.5:61", "--t-range", "0.05:2:40"],
         "negativity_n2.csv"),
    ]
    for argv, name in jobs:
        target = args.outdir / name
        code = run(argv + ["--output", str(target)])
        if code != 0:
            return code
        print("wrote", target)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
