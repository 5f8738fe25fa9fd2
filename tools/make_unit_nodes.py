#!/usr/bin/env python3
"""Write, or check, lagdg's table of unit-scale (beta = 1) Laguerre nodes.

    python3 tools/make_unit_nodes.py            # (re)write src/lagdg/unit_nodes.npy
    python3 tools/make_unit_nodes.py --check    # regenerate and compare bit for bit

The table holds the nodes of every rule ``build_rule`` accepts, as one flat
float64 array: the n zeros of L_n for n = 1..201 (the Gauss-Laguerre
nodes of M = n - 1), then the M zeros of L'_{M+1} for M = 1..200 (the
interior Gauss-Laguerre-Radau nodes), each block in increasing order.
``quadrature._gl_unit`` and ``quadrature._glr_unit`` slice it.

GL nodes are the eigenvalues of the Jacobi matrix (Golub & Welsch, Math.
Comp. 23, 1969), through ``quadrature._golub_welsch``.  Each GLR node is
bracketed by consecutive GL nodes of order M+1 and polished by Newton
steps on the three-term recurrence, with a bisection fallback.

--check regenerates all 401 rules (a few seconds) and exits 1 when the
table's shape, dtype or any bit differs; 0 otherwise.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from lagdg.basis import laguerre_poly_table  # noqa: E402
from lagdg.quadrature import _MAX_M, _UNIT_NODES, _golub_welsch  # noqa: E402

_NEWTON_TOL = 1e-14
_NEWTON_MAXIT = 100


def gl_unit(n: int) -> np.ndarray:
    """Unit-scale Gauss-Laguerre nodes: the n zeros of L_n.

    The Jacobi matrix of the Laguerre weight has diagonal 2k+1 and
    off-diagonal k.
    """
    nodes, _ = _golub_welsch(2.0 * np.arange(n) + 1.0, np.arange(1.0, n))
    return nodes


def glr_unit(M: int) -> np.ndarray:
    """Interior unit-scale GLR nodes: the M zeros of L'_{M+1}.

    Each zero is bracketed by consecutive zeros of L_{M+1} and polished
    with Newton steps (bisection fallback keeps the iterate inside the
    bracket).  L'' comes from the Laguerre ODE x y'' = (x-1) y' - n y.
    All brackets iterate together, one recurrence pass over the nodes
    still active; a node leaves once its own step passes the tolerance.
    The arithmetic is elementwise, so every node is bit-identical to a
    node-by-node solve with the same steps.
    """
    n = M + 1
    gl_nodes = gl_unit(n)

    def dval(x):
        tab = laguerre_poly_table(n, x)
        d = n * (tab[n] - tab[n - 1]) / x
        dd = ((x - 1.0) * d - n * tab[n]) / x
        return d, dd

    lo, hi = gl_nodes[:-1], gl_nodes[1:]
    sign_lo = np.sign(dval(lo)[0])
    x = 0.5 * (lo + hi)
    roots = np.empty(M)
    active = np.arange(M)
    for _ in range(_NEWTON_MAXIT):
        f, fp = dval(x)
        same = np.sign(f) == sign_lo
        lo = np.where(same, x, lo)
        hi = np.where(same, hi, x)
        x_new = x - f / fp
        x_new = np.where((lo < x_new) & (x_new < hi), x_new, 0.5 * (lo + hi))
        done = np.abs(x_new - x) <= _NEWTON_TOL * np.maximum(np.abs(x), 1.0)
        roots[active[done]] = x_new[done]
        keep = ~done
        active, x, lo, hi, sign_lo = active[keep], x_new[keep], lo[keep], hi[keep], sign_lo[keep]
        if active.size == 0:
            return roots
    raise RuntimeError(
        f"GLR nodes {active.tolist()} did not converge for M={M}: "
        f"max residual {np.max(np.abs(dval(x)[0])):.3e}"
    )


def build_table() -> np.ndarray:
    """GL n = 1..201, then GLR M = 1..200, as one flat float64 array."""
    gl = [gl_unit(n) for n in range(1, _MAX_M + 2)]
    glr = [glr_unit(M) for M in range(1, _MAX_M + 1)]
    return np.concatenate(gl + glr)


def check(path: Path) -> list[str]:
    """One line per way the table at path differs from a fresh build."""
    table = np.load(path, allow_pickle=False)
    fresh = build_table()
    if table.dtype != fresh.dtype or table.shape != fresh.shape:
        return [f"{path}: {table.dtype} {table.shape}, expected {fresh.dtype} {fresh.shape}"]
    differ = np.flatnonzero(table.view(np.uint64) != fresh.view(np.uint64))
    return [f"{path}: entry {i} is {table[i]!r}, expected {fresh[i]!r}" for i in differ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true", help="compare the table with a fresh build")
    if parser.parse_args(argv).check:
        problems = check(_UNIT_NODES)
        for line in problems[:20]:
            print(line)
        print(f"{_UNIT_NODES}: {len(problems)} differences" if problems else f"{_UNIT_NODES}: identical")
        return 1 if problems else 0
    np.save(_UNIT_NODES, build_table(), allow_pickle=False)
    return 0


if __name__ == "__main__":
    sys.exit(main())
