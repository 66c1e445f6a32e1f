"""Print every catalog family at its default parameters.

For each entry: the nonzero products, the Koszul matrix, and the
decomposition signature (flat algebras) or the constant k (curved ones).
Everything here is recomputed from the structure constants on the spot,
so the output doubles as a quick end-to-end sanity run:

    python3 scripts/reproduce_tables.py
"""

import numpy as np

from leftsym import decompose, is_solvable, koszul_form, lie_bracket_constants
from leftsym.catalog import _parts, catalog_build, catalog_entry, catalog_list, catalog_verify


def product_lines(A):
    lines = []
    for i in range(A.dim):
        for j in range(A.dim):
            row = A.constants[i, j]
            if np.max(np.abs(row)) == 0.0:
                continue
            terms = " + ".join(
                f"{row[k]:g} e{k + 1}" for k in range(A.dim) if row[k] != 0.0
            )
            lines.append(f"  e{i + 1} * e{j + 1} = {terms}")
    return lines


def main():
    for name in catalog_list():
        entry = catalog_entry(name)
        A, _ = _parts(catalog_build(name))
        print(f"== {name} (kind: {entry.kind}, dim {A.dim}) ==")
        print("\n".join(product_lines(A)) or "  (zero product)")
        B = koszul_form(A)
        print("  koszul:")
        for row in B.matrix:
            print("   ", np.array2string(row, precision=6, suppress_small=True))
        if entry.kind == "lspk":
            dec = decompose(A)
            n1, n2, rho = dec.signature
            print(f"  signature: dim h1 = {n1}, dim h2 = {n2}, rho = {rho:g}")
            print(f"  bracket solvable: {is_solvable(lie_bracket_constants(A))}")
        if entry.kind == "khessian":
            print(f"  constant k = {entry.expected_k(entry.resolve(None)):g}")
        rep = catalog_verify(name)
        print(f"  verified, worst residual {rep.max_residual:.3e}")
        print()


if __name__ == "__main__":
    main()
