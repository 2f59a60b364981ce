#!/usr/bin/env python3
"""The paper's datasets: level crossings at T = 0, then purity and negativity surfaces.

Writes, under --outdir:
  spectrum_n4.csv        all 16 energies of the 4-site chain over a field grid
  crossings_n4.csv       the fields where its ground sector hops
  thermal_n2_t*.csv      two-site populations at a cold and a warm temperature
  limit_overlay.csv      50-site energy density against the infinite-chain curve
  purity_n2.csv          two-site surface with the dense cross-check column
  purity_deriv_n2.csv    d(purity)/db curves at four temperatures
  purity_n10.csv         ten-site surface, analytic column only (`xxchain purity
                         --n 10` with the same grids also fills the dense column:
                         22.5 s and 31.2 s in two sessions on a shared 2-core Xeon
                         VM with one BLAS thread; this script took 0.59 s there
                         in a later session, fresh process, median of 5)
  negativity_n2.csv      two-site negativity sweep (kT_c goes to stderr)
"""

import argparse
import pathlib

from xxchain.cli import run

# (argv of `xxchain`, file written under --outdir)
JOBS = [
    (["spectrum", "--n", "4", "--b-range", "-1.2:1.2:241"], "spectrum_n4.csv"),
    (["crossings", "--n", "4"], "crossings_n4.csv"),
    (["thermal", "--n", "2", "--b-range", "-1:1:201", "--t", "0.1"], "thermal_n2_t0.1.csv"),
    (["thermal", "--n", "2", "--b-range", "-1:1:201", "--t", "1"], "thermal_n2_t1.csv"),
    (["thermo-limit", "--sizes", "50", "--b-range", "-1.5:1.5:121"], "limit_overlay.csv"),
    (["purity", "--n", "2", "--b-range", "-1.5:1.5:121", "--t-range", "0.01:2:40"], "purity_n2.csv"),
    (["purity-derivative", "--n", "2", "--b-range", "-1.5:1.5:121", "--t-range", "0.01:2:4"], "purity_deriv_n2.csv"),
    (["purity", "--n", "10", "--b-range", "-1.5:1.5:121", "--t-range", "0.01:2:50", "--dense-cap", "2"],
     "purity_n10.csv"),
    (["negativity", "--n", "2", "--b-range", "-1.5:1.5:61", "--t-range", "0.05:2:40"], "negativity_n2.csv"),
]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="out", type=pathlib.Path)
    args = parser.parse_args()
    args.outdir.mkdir(parents=True, exist_ok=True)
    for argv, name in JOBS:
        target = args.outdir / name
        code = run(argv + ["--output", str(target)])
        if code != 0:
            return code
        print("wrote", target)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
