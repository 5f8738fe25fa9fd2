import ast
import re
from pathlib import Path

import numpy as np
import pytest

import lagdg
from lagdg.coupled import SWEConfig, swe_system
from lagdg.dg import (
    DGOperator,
    Mesh1D,
    _from_blocks,
    characteristic_closure,
    characteristic_ghost,
    center_values,
    edge_values,
    eval_at_centers,
    project_dg,
)
from lagdg.scenarios import dg_advection_error
from lagdg.semiinf import flux_split, scalar_system


class TestProjection:
    def test_constant(self):
        mesh = Mesh1D(2.0, 5)
        coeffs = project_dg([lambda z: 3.0 + 0.0 * z], mesh, 2)
        assert coeffs.shape == (5, 1, 3)
        assert coeffs[:, 0, 0] == pytest.approx(np.full(5, 3.0))
        assert np.max(np.abs(coeffs[:, 0, 1:])) < 1e-14

    def test_linear_exact(self):
        # exact at the cell centres and at both ends of every element
        mesh = Mesh1D(1.0, 4)
        coeffs = project_dg([lambda z: 2.0 * z - 0.3], mesh, 1)
        left, right = edge_values(1)
        edges = np.arange(5) * mesh.dz
        assert eval_at_centers(coeffs)[:, 0] == pytest.approx(2.0 * mesh.centers - 0.3, abs=1e-13)
        assert coeffs[:, 0] @ left == pytest.approx(2.0 * edges[:-1] - 0.3, abs=1e-13)
        assert coeffs[:, 0] @ right == pytest.approx(2.0 * edges[1:] - 0.3, abs=1e-13)

    def test_gaussian_projection_error_scales(self):
        f = lambda z: np.exp(-(((z - 0.5) / 0.1) ** 2))
        errs = []
        for nx in (8, 16, 32):
            mesh = Mesh1D(1.0, nx)
            coeffs = project_dg([f], mesh, 1)[:, 0]
            left, right = edge_values(1)
            z0 = mesh.centers - 0.5 * mesh.dz
            errs.append(max(np.max(np.abs(coeffs @ center_values(1) - f(mesh.centers))),
                            np.max(np.abs(coeffs @ left - f(z0))),
                            np.max(np.abs(coeffs @ right - f(z0 + mesh.dz)))))
        assert errs[2] < errs[1] < errs[0]
        assert errs[1] / errs[2] > 2.0


class TestRhs:
    def test_constant_state_is_steady(self):
        sys = swe_system(SWEConfig())
        mesh = Mesh1D(10.0, 16)
        q_star = np.array([0.7, -0.2])
        op = DGOperator(sys, mesh, 1, lambda t: q_star, np.array([False, True]))
        y = op.project([lambda z: q_star[0] + 0.0 * z, lambda z: q_star[1] + 0.0 * z])
        rhs = op.rhs(y.reshape(op.blocks_shape), 0.0, q_star)
        assert np.max(np.abs(rhs)) < 1e-13

    def test_p0_reduces_to_upwind_finite_volume(self):
        sys = scalar_system(1.0)
        mesh = Mesh1D(1.0, 10)
        rng = np.random.default_rng(1)
        q = rng.normal(size=(10, 1, 1))
        op = DGOperator(sys, mesh, 0, lambda t: np.array([0.3]), np.array([True]))
        rhs = _from_blocks(op.rhs(q.reshape(op.blocks_shape), 0.0, None), 1)
        vals = q[:, 0, 0]
        expect = np.empty(10)
        expect[0] = -(vals[0] - 0.3) / mesh.dz
        expect[1:] = -np.diff(vals) / mesh.dz
        assert rhs[:, 0, 0] == pytest.approx(expect, abs=1e-13)

    def test_upwind_flux_consistency(self):
        sys = swe_system(SWEConfig())
        ap, am = flux_split(sys.a, sys.eig)
        rng = np.random.default_rng(2)
        for _ in range(5):
            q = rng.normal(size=2)
            assert ap @ q + am @ q == pytest.approx(sys.a @ q, abs=1e-12)

    def test_conservation_of_compact_pulse(self):
        # zero boundary fluxes: total integral of the state is conserved
        sys = scalar_system(1.0)
        mesh = Mesh1D(1.0, 40)
        f = lambda z: np.exp(-(((z - 0.35) / 0.05) ** 2))
        op = DGOperator(sys, mesh, 1, lambda t: np.array([0.0]), np.array([True]))
        rhs = _from_blocks(op.rhs(op.project([f]).reshape(op.blocks_shape), 0.0, None), 1)
        # total integral rate = dz * sum of constant-mode rates
        assert abs(mesh.dz * rhs[:, 0, 0].sum()) < 1e-10

    def test_linearity(self):
        sys = swe_system(SWEConfig())
        mesh = Mesh1D(5.0, 9)
        op = DGOperator(sys, mesh, 1, lambda t: np.zeros(2), np.array([False, False]))
        rng = np.random.default_rng(3)
        a = rng.normal(size=op.blocks_shape)
        b = rng.normal(size=op.blocks_shape)
        lhs = op.rhs(3.0 * a + b, 0.0, None)
        rhs = 3.0 * op.rhs(a, 0.0, None) + op.rhs(b, 0.0, None)
        assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_convergence_order_two(self):
        errs = [dg_advection_error(1.0, 1, nx, 0.5, 0.1) for nx in (50, 100, 200)]
        orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert min(orders) >= 1.9


class TestTraceAndGhost:
    def test_trace_p0(self):
        op = DGOperator(scalar_system(1.0), Mesh1D(2.0, 2), 0)
        assert op.right_trace(np.array([[2.0], [5.0]])) == pytest.approx([5.0])

    def test_trace_p1(self):
        op = DGOperator(scalar_system(1.0), Mesh1D(1.0, 1), 1)
        assert op.right_trace(np.array([[1.0, 0.5]])) == pytest.approx([1.0 + np.sqrt(3) * 0.5])

    def test_trace_matches_eval(self):
        rng = np.random.default_rng(4)
        coeffs = rng.normal(size=(6, 2, 3))
        mesh = Mesh1D(3.0, 6)
        tr = DGOperator(swe_system(SWEConfig()), mesh, 2).right_trace(coeffs.reshape(6, -1))
        assert tr == pytest.approx(coeffs[-1] @ edge_values(2)[1], abs=1e-14)
        # numpy's Legendre series of the last element at its right end
        ev = np.polynomial.legendre.legval(1.0, (coeffs[-1] * np.sqrt(2 * np.arange(3) + 1)).T)
        assert tr == pytest.approx(ev, abs=1e-9)

    def test_ghost_imposes_velocity(self):
        sys = swe_system(SWEConfig())
        q_int = np.array([0.23, -0.11])
        u_bc = 0.4
        closure = characteristic_closure(sys.eig, np.array([False, True]))
        ghost = characteristic_ghost(closure, q_int, np.array([0.0, u_bc]))
        # the upwind interface state takes incoming characteristics from the
        # ghost and outgoing from the interior: its velocity must be u_bc
        V, lam, Vinv = sys.eig
        w_ghost = Vinv @ ghost
        w_int = Vinv @ q_int
        w_star = np.where(lam > 0, w_ghost, w_int)
        q_star = V @ w_star
        assert q_star[1] == pytest.approx(u_bc, abs=1e-13)

    def test_ghost_transmissive_default(self):
        sys = swe_system(SWEConfig())
        q_int = np.array([1.0, 2.0])
        closure = characteristic_closure(sys.eig, None)
        ghost = characteristic_ghost(closure, q_int, None)
        assert ghost == pytest.approx(q_int)

    @pytest.mark.parametrize("mask", [
        [True, True],            # two prescribed, one incoming characteristic
        [True],                  # too short: would prescribe h silently
        [False, True, False],    # too long
        [False, False, True],    # too long, marking a component that does not exist
    ], ids=["count", "short", "long", "long-marked"])
    def test_ghost_count_mismatch(self, mask):
        sys = swe_system(SWEConfig())
        with pytest.raises(ValueError):
            characteristic_closure(sys.eig, np.array(mask))
        with pytest.raises(ValueError, match="has shape|prescribed but"):
            DGOperator(sys, Mesh1D(1.0, 3), 1, lambda t: np.zeros(len(mask)), np.array(mask))

    def test_mass_matrix_orthonormality(self):
        # int phi_p phi_q over the element equals dz * delta_pq
        from lagdg.dg import gauss_legendre
        from lagdg.basis import legendre_table

        xi, w = gauss_legendre(6)
        dz = 0.7
        phi = np.sqrt(2 * np.arange(4) + 1.0)[:, None] * legendre_table(3, xi)
        assert (dz / 2) * (phi * w) @ phi.T == pytest.approx(dz * np.eye(4), abs=1e-12)

    def test_edge_values(self):
        left, right = edge_values(2)
        assert right == pytest.approx([1.0, np.sqrt(3), np.sqrt(5)])
        assert left == pytest.approx([1.0, -np.sqrt(3), np.sqrt(5)])

    def test_eval_at_centers_p1(self):
        rng = np.random.default_rng(5)
        coeffs = rng.normal(size=(4, 1, 2))
        assert eval_at_centers(coeffs)[:, 0] == pytest.approx(coeffs[:, 0, 0])


@pytest.mark.parametrize("boundary", ["transmissive", "masked-left", "prescribed-right"])
@pytest.mark.parametrize("p", [0, 1, 3])
def test_rhs_and_trace_return_fresh_arrays(p, boundary):
    # the hot path may not write to its input nor hand back a view of the
    # state or of a temporary
    kw = {}
    if boundary == "masked-left":
        kw = dict(left_bc=lambda t: np.array([0.0, 0.3]), left_mask=np.array([False, True]))
    right = np.array([0.2, -0.1]) if boundary == "prescribed-right" else None
    op = DGOperator(swe_system(SWEConfig()), Mesh1D(10.0, 5), p, **kw)
    blocks = np.random.default_rng(p).normal(size=op.blocks_shape)
    before = blocks.copy()
    out = op.rhs(blocks, 0.0, right)
    assert np.array_equal(blocks, before)
    assert out.shape == op.blocks_shape
    assert not np.shares_memory(out, blocks)
    if right is not None:
        assert np.array_equal(right, [0.2, -0.1]) and not np.shares_memory(out, right)
    trace = op.right_trace(blocks)
    assert trace.shape == (2,) and trace.flags.owndata
    assert not np.shares_memory(trace, blocks)


def _ghost_row_case(d: int, boundary: str):
    """(system, DGOperator keywords, right exterior as a function of the
    blocks' right trace) of one boundary kind.  A scalar case that reads the
    left boundary needs u > 0, one that reads the right needs u < 0."""
    if d == 1:
        sys = scalar_system(0.8 if boundary == "masked-left" else -0.6)
        masked = dict(left_bc=lambda t: np.array([np.cos(t)]), left_mask=np.array([True]))
        wall = np.array([-1.0])
    else:
        sys = swe_system(SWEConfig(U=0.3))   # both A+ and A- are nonzero
        masked = dict(left_bc=lambda t: np.array([7.0, 0.4 * np.cos(t)]), left_mask=np.array([False, True]))
        wall = np.array([1.0, -1.0])
    kw = masked if boundary == "masked-left" else {}
    right = {"prescribed-right": lambda tr: np.linspace(0.3, -0.2, d),
             "wall": lambda tr: tr * wall}.get(boundary, lambda tr: None)
    return sys, kw, right


def _lifted_rhs(sys, mesh: Mesh1D, p: int, blocks, t, right, left_bc=None, left_mask=None):
    """The DG right-hand side with its boundary fluxes as separate lifts on the
    boundary rows: kron(A+, e_l) / dz times the left ghost onto the first
    element and -kron(A-, e_r) / dz times the right exterior state onto the
    last, as DGOperator applied them before they moved into ghost rows."""
    interior = DGOperator(sys, mesh, p)
    ap, am = flux_split(sys.a, sys.eig)
    el, er = edge_values(p)
    coeffs = _from_blocks(blocks, sys.d)
    out = blocks @ interior.diag
    out[1:] += blocks[:-1] @ interior.lower
    out[:-1] += blocks[1:] @ interior.upper
    values = left_bc(t) if left_bc is not None else None
    ghost = characteristic_ghost(characteristic_closure(sys.eig, left_mask), coeffs[0] @ el, values)
    out[0] += np.kron(ap, el[:, None]) @ ghost / mesh.dz
    out[-1] -= np.kron(am, er[:, None]) @ (coeffs[-1] @ er if right is None else right) / mesh.dz
    return out


@pytest.mark.parametrize("boundary", ["transmissive", "masked-left", "prescribed-right", "wall"])
@pytest.mark.parametrize("n", [1, 2, 5])
@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("p", [0, 1, 3])
def test_ghost_rows_match_the_boundary_lifts(p, d, n, boundary):
    # phi_0 = 1 at both element ends, so lower and upper applied to a ghost row
    # that holds a state in its degree-0 slots are the lifts of that state
    sys, kw, right_of = _ghost_row_case(d, boundary)
    mesh = Mesh1D(3.0 * n, n)
    op = DGOperator(sys, mesh, p, **kw)
    blocks = np.random.default_rng(100 * p + 10 * d + n).normal(size=op.blocks_shape)
    right = right_of(op.right_trace(blocks))
    got = op.rhs(blocks, 0.7, right)
    expect = _lifted_rhs(sys, mesh, p, blocks, 0.7, right, **kw)
    # one transmissive p = 0 element has a zero derivative: its rounding is
    # measured against the size of the terms that cancel
    scale = max(np.max(np.abs(expect)), np.max(np.abs(blocks @ op.diag)))
    assert np.max(np.abs(got - expect)) <= 1e-14 * scale


def test_only_dg_knows_the_block_layout():
    # coupled.py and scenarios.py go through DGOperator.project, centers
    # and right_trace; the private layout helpers stay inside dg.py
    src = Path(lagdg.__file__).parent
    offenders = [f"{path.name}: {name}" for path in sorted(src.glob("*.py")) if path.name != "dg.py"
                 for name in ("_to_blocks", "_from_blocks") if name in path.read_text()]
    assert offenders == []


# Public names that no shipped module reads, each with the reason it stays.
_UNREFERENCED_OK = {
    "__version__": "package metadata, read by users and packaging tools rather than by the code",
    "semi_energy": "the semi-infinite half of the discrete energy W that the energy diagnostics build on",
}
_WORD = re.compile(r"[A-Za-z_]\w*")


def _parse_without_docstrings(path) -> ast.Module:
    tree = ast.parse(path.read_text())
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)) and ast.get_docstring(node) is not None:
            node.body = node.body[1:]
    return tree


def _referenced_names(node) -> set:
    """Identifiers read anywhere in node: names, attributes, imported names
    and the words of string constants (perfbench looks functions up by
    their dotted names)."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.alias):
            names.add(sub.name.rsplit(".", 1)[-1])
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            names.update(_WORD.findall(sub.value))
    return names


def _defined_names(stmt) -> list:
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, ast.Assign):
        return [t.id for t in stmt.targets if isinstance(t, ast.Name)]
    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        return [stmt.target.id]
    return []


def test_every_public_name_is_used_by_shipped_code():
    # a public module-level name of lagdg must be read somewhere in src/,
    # perfbench/, tools/ or configs/ outside its own definition; code that
    # only tests call is deleted, and the tests check the shipping code
    root = Path(__file__).resolve().parents[1]
    uses = []  # (file, top-level statement or None, names read there)
    for top in ("src", "perfbench", "tools", "configs"):
        for path in sorted((root / top).rglob("*")):
            if path.suffix == ".py":
                uses += [(path, stmt, _referenced_names(stmt)) for stmt in _parse_without_docstrings(path).body]
            elif path.suffix in (".cfg", ".sh"):
                uses.append((path, None, set(_WORD.findall(path.read_text()))))
    unused = [f"{path.stem}.{name}" for path, stmt, _ in uses if path.parent == root / "src" / "lagdg"
              for name in _defined_names(stmt)
              if not (name.startswith("_") and not name.endswith("__")) and name not in _UNREFERENCED_OK
              and not any(name in names for _, other, names in uses if other is not stmt)]
    assert unused == []
