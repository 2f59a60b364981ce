#!/usr/bin/env python3
"""Purity surfaces over (field, temperature) and their field derivatives.

Writes, under --outdir:
  purity_n2.csv             two-site surface with the dense cross-check column
  purity_deriv_n2.csv       d(purity)/db curves at four temperatures
  purity_n{N}.csv           the large-chain surface (analytic column only;
                            pass --with-dense to also fill the dense column,
                            which takes about 22 s for N = 10)
  negativity_n2.csv         two-site negativity sweep (kT_c goes to stderr)
"""

import argparse
import pathlib

from xxchain.cli import run


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="out", type=pathlib.Path)
    parser.add_argument("--n", type=int, default=10, help="large-chain size")
    parser.add_argument("--with-dense", action="store_true",
                        help="fill the dense purity column for the large chain too")
    args = parser.parse_args()
    args.outdir.mkdir(parents=True, exist_ok=True)

    large_cap = [] if args.with_dense else ["--dense-cap", "2"]
    jobs = [
        (["purity", "--n", "2", "--b-range", "-1.5:1.5:121", "--t-range", "0.01:2:40"],
         "purity_n2.csv"),
        (["purity-derivative", "--n", "2", "--b-range", "-1.5:1.5:121", "--t-range", "0.01:2:4"],
         "purity_deriv_n2.csv"),
        (["purity", "--n", str(args.n), "--b-range", "-1.5:1.5:121", "--t-range", "0.01:2:50"]
         + large_cap, f"purity_n{args.n}.csv"),
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
