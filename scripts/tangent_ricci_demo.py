"""Ricci curvature of the doubled space for each flat catalog family.

For every positive-definite trace-form algebra in the catalog this prints
the block structure of the Ricci tensor of the double-space metric built
from the trace form: the two diagonal blocks against the closed form -beta,
and the mixed block.  The metric scale * trace form has the same blocks, and
its Einstein constant, einstein_check(A, scale), should track -1/scale:

    python3 scripts/tangent_ricci_demo.py [--scale S]
"""

import argparse

import numpy as np

from leftsym.catalog import catalog_build, catalog_entry, catalog_list
from leftsym.geometry import _trace_form_report, einstein_check


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--scale", type=float, default=1.0, help="metric = scale * trace form")
    args = ap.parse_args()

    for name in catalog_list():
        if catalog_entry(name).kind != "lspk":
            continue
        A = catalog_build(name)
        mu = einstein_check(A, alpha_scale=args.scale)
        rep, _ = _trace_form_report(A)  # the report of (A, B) that einstein_check measured and kept
        hh_gap = float(np.max(np.abs(rep.tb_ricci_hh.matrix + rep.beta.matrix)))
        vv_gap = float(np.max(np.abs(rep.tb_ricci_vv.matrix + rep.beta.matrix)))
        hv_max = float(np.max(np.abs(rep.tb_ricci_hv)))
        print(f"{name:16s} dim {A.dim}:  |hh + beta| = {hh_gap:.2e}  "
              f"|vv + beta| = {vv_gap:.2e}  |hv| = {hv_max:.2e}  mu = {mu:+.12f}")

    print(f"\nexpected mu at this scale: {-1.0 / args.scale:+.12f}")


if __name__ == "__main__":
    main()
