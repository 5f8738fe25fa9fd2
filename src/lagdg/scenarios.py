"""Experiment runners behind the CLI: spectra, rules, operators, and the
coupled shallow-water test suite (coupling validation, wavetrain
absorption, Gaussian absorption, convergence study).

Every runner takes a flat configuration dict, writes deterministic CSV
output plus a manifest of all resolved parameters, and returns the table
rows it produced.
"""

from __future__ import annotations

import json
import shutil
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .advection import SchemeVariant, assemble
from .basis import BasisSpec
from .coupled import CoupledModel, SWEConfig, run_simulation, swe_system
from .dg import DGOperator, Mesh1D
from .diagnostics import energy_error, error_norms, reflection_ratio
from .quadrature import build_rule
from .semiinf import HyperbolicSystem, SigmoidDamping, default_rule, reconstruct, scalar_system
from .spectrum import classify

FLOAT_FORMAT = "%.8e"


class ConfigError(ValueError):
    """Invalid or incomplete experiment configuration."""


def format_float(x: float) -> str:
    return FLOAT_FORMAT % float(x)


def write_csv(path: Path, header: list[str], rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(format_float(v) if isinstance(v, (int, float, np.floating)) and not isinstance(v, bool)
                              else str(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


def write_manifest(outdir: Path, resolved: dict) -> None:
    path = outdir / "run_manifest.json"
    path.write_text(json.dumps(resolved, indent=2, sort_keys=True, default=str) + "\n")


# --------------------------------------------------------------------------
# config plumbing


def parse_config_file(path) -> dict:
    """Flat ``key = value`` file; values parse as JSON with string fallback."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc.strerror or exc}") from exc
    lines = ((f"{path}:{n}", raw.split("#", 1)[0].strip()) for n, raw in enumerate(text.splitlines(), 1))
    return dict(parse_item(line, where) for where, line in lines if line)


def parse_item(text: str, where: str) -> tuple:
    """(key, value) of one ``key = value`` config line or ``--override`` item."""
    key, eq, value = text.partition("=")
    if not eq:
        raise ConfigError(f"{where}: expected 'key = value', got {text!r}")
    return key.strip(), parse_value(value.strip())


def parse_value(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def _kind(value) -> str:
    """Type a config value is checked against; ints and floats are both numbers."""
    return "number" if isinstance(value, (int, float)) and not isinstance(value, bool) else type(value).__name__


def _typed(v, default, where: str):
    """v as its default's type: an int default takes whole numbers and
    gives an int, a float or None default gives a float (or None), a list
    default takes a non-empty list typed element by element, and the rows
    of a list-of-lists default are typed position by position like its
    first row.  A number must lie in the double range."""
    if isinstance(default, list):
        like = default[0]
        if not (isinstance(v, list) and v):
            raise ConfigError(f"{where} takes a non-empty list, each element a {_kind(like)}; got {v!r}")
        if not isinstance(like, list):
            return [_typed(x, like, where) for x in v]
        if not all(isinstance(r, list) and len(r) == len(like) for r in v):
            raise ConfigError(f"{where} takes rows of {len(like)} elements like {like}; got {v!r}")
        return [[_typed(x, d, where) for x, d in zip(r, like)] for r in v]
    if v is None and default is None:
        return None
    kind = "number" if default is None else _kind(default)
    if _kind(v) != kind:
        raise ConfigError(f"{where} takes a {kind}{' or null' if default is None else ''}; got {v!r}")
    if kind != "number":
        return v
    if not abs(v) <= sys.float_info.max:
        raise ConfigError(f"{where} must be finite; got {v!r}")
    if not isinstance(default, int):
        return float(v)
    if not float(v).is_integer():
        raise ConfigError(f"{where} takes whole numbers; got {v!r}")
    return int(v)


def resolve_config(defaults: dict, cfg: dict, scenario: str) -> dict:
    """Defaults updated by cfg, each value checked against its default
    and converted to its type (see _typed)."""
    unknown = [k for k in cfg if k not in defaults and k != "scenario"]
    if unknown:
        raise ConfigError(f"unknown keys for scenario {scenario!r}: {unknown}")
    typed = {k: _typed(v, defaults[k], f"key {k!r} of scenario {scenario!r}")
             for k, v in cfg.items() if k in defaults}
    return {**defaults, **typed, "scenario": scenario}


# --------------------------------------------------------------------------
# single-domain DG reference model


class DGOnlyModel:
    """DG on [0, length] for any hyperbolic system; transmissive right
    boundary, or for shallow water a solid wall (reflect_right).

    left_bc and left_mask go to the DG operator, which owns the left
    boundary (see DGOperator).  The flat state holds the DG coefficients
    in the operator's layout.
    """

    def __init__(self, system: HyperbolicSystem, mesh: Mesh1D, p: int, left_bc=None, left_mask=None,
                 reflect_right: bool = False):
        if reflect_right and system.d != 2:
            raise ValueError(f"a solid wall flips the velocity of (h, u); got a {system.d}-component system")
        self.reflect_right = reflect_right
        self.dg_op = DGOperator(system, mesh, p, left_bc, left_mask)

    def rhs(self, t: float, y: np.ndarray) -> np.ndarray:
        blocks = y.reshape(self.dg_op.blocks_shape)
        right = None
        if self.reflect_right:
            tr = self.dg_op.right_trace(blocks)
            right = np.array([tr[0], -tr[1]])
        return self.dg_op.rhs(blocks, t, right).ravel()

    def initial_state(self, *component_funcs) -> np.ndarray:
        return self.dg_op.project(component_funcs)

    def centers_view(self, y: np.ndarray) -> np.ndarray:
        return self.dg_op.centers(y)


# --------------------------------------------------------------------------
# spectrum / rule / operator scenarios

SPECTRUM_DEFAULTS = {
    "form": "modal", "basis": "functions", "nodes": "glr", "direction": "outflow",
    "beta": 1.0, "M": 50, "u": None,
}


def _assemble_variant(cfg: dict, q_left: float = 0.0):
    """(op, u): the variant's (A, g) pair and the speed used; u defaults to
    +1 for inflow and -1 for outflow."""
    u = cfg["u"]
    if u is None:
        u = 1.0 if cfg["direction"] == "inflow" else -1.0
    variant = SchemeVariant(cfg["form"], cfg["basis"], cfg["nodes"], cfg["direction"], q_left)
    return assemble(variant, cfg["beta"], cfg["M"], u), u


def run_spectrum(cfg: dict, outdir: Path) -> dict:
    op, u = _assemble_variant(cfg)
    report = classify(op)
    lam = report.eigenvalues
    write_csv(outdir / "eigenvalues.csv", ["re", "im"], [(z.real, z.imag) for z in lam])
    summary = {
        "max_real_part": report.max_real_part,
        "spectral_radius": report.spectral_radius,
        "stable": bool(report.stable),
    }
    (outdir / "summary.json").write_text(json.dumps(summary, sort_keys=True) + "\n")
    write_manifest(outdir, {**cfg, "u": u})
    return summary


RULE_DEFAULTS = {"nodes": "gl", "basis": "polynomials", "beta": 1.0, "M": 10}


def run_rule(cfg: dict, outdir: Path) -> dict:
    rule = build_rule(cfg["nodes"], cfg["basis"], cfg["beta"], cfg["M"])
    write_csv(outdir / "rule.csv", ["node", "weight"], zip(rule.nodes, rule.weights))
    write_manifest(outdir, cfg)
    return {"n_nodes": rule.n}


OPERATOR_DEFAULTS = {**SPECTRUM_DEFAULTS, "q_left": 1.0}


def run_operator(cfg: dict, outdir: Path) -> dict:
    op, u = _assemble_variant(cfg, cfg["q_left"])
    write_csv(outdir / "operator_a.csv", [f"c{j}" for j in range(op.n)], op.A)
    write_csv(outdir / "operator_g.csv", ["g"], [(v,) for v in op.g])
    write_manifest(outdir, {**cfg, "u": u})
    return {"n": op.n, "dof_offset": op.dof_offset}


# --------------------------------------------------------------------------
# coupled shallow-water scenarios


def _snapshot_csv(outdir: Path, name: str, model: CoupledModel, y: np.ndarray) -> None:
    """x, then one column per component: h, u for shallow water, q0, q1, ... otherwise."""
    mesh, spec = model.dg_op.mesh, model.semi_op.spec
    nodes = default_rule(spec).nodes
    x = np.concatenate([mesh.centers, mesh.length + nodes])
    vals = np.vstack([model.centers_view(y), reconstruct(model.split(y)[1], spec, nodes).T])
    names = ["h", "u"] if vals.shape[1] == 2 else [f"q{c}" for c in range(vals.shape[1])]
    write_csv(outdir / name, ["x", *names], np.column_stack([x, vals]))


def _gaussian(h1: float, x0: float, sigma: float):
    return lambda x: h1 * np.exp(-(((x - x0) / sigma) ** 2))


def _zero(x):
    return np.zeros_like(np.asarray(x, dtype=float))


def _swe(cfg: dict) -> SWEConfig:
    return SWEConfig(H=cfg["H"], U=cfg["U"], grav=cfg["grav"])


def _damping(cfg: dict) -> SigmoidDamping:
    return SigmoidDamping(cfg["dgamma"], cfg["alpha"], cfg["sigma_over_l0"])


def _steps(T: float, dt_max: float) -> tuple[float, int]:
    """(dt, n_steps): the fewest equal steps of at most dt_max that reach T."""
    if not (T > 0 and dt_max > 0):
        raise ConfigError(f"a run needs positive T and cfl; got T={T} and a step of {dt_max}")
    n_steps = int(np.ceil(T / dt_max))
    return T / n_steps, n_steps


def _reference(cfg: dict, mesh: Mesh1D, n_elements: int, key: str, **kw) -> DGOnlyModel:
    """Undamped DG-only model on n_elements cells of the coupled mesh's size;
    key names the config value that sets n_elements.  The reference must
    cover the coupled mesh, which is checked before anything is solved."""
    if n_elements < mesh.n_elements:
        raise ConfigError(f"{key} = {cfg[key]} gives a reference of {n_elements} elements, fewer than "
                          f"the {mesh.n_elements} of the coupled mesh on [0, {mesh.length:g}]")
    return DGOnlyModel(swe_system(_swe(cfg)), Mesh1D(n_elements * mesh.dz, n_elements), cfg["p"], **kw)


def _solve(model, y0: np.ndarray, dt: float, n_steps: int, n_cells: int):
    """(yT, values at the first n_cells cell centres) after n_steps from t = 0;
    the CFL warning reads the speed and cell size of model.dg_op."""
    op = model.dg_op
    yT = run_simulation(model.rhs, y0, 0.0, dt, n_steps, max_speed=op.sys.max_speed, min_dz=op.mesh.dz)
    return yT, model.centers_view(yT)[:n_cells]


def _write_results(outdir: Path, cfg: dict, header: list[str], rows: list[dict]) -> dict:
    """results.csv with the header's columns of each row, then the manifest."""
    write_csv(outdir / "results.csv", header, [[r[k] for k in header] for r in rows])
    write_manifest(outdir, cfg)
    return {"rows": rows}


COUPLING_VALIDATION_DEFAULTS = {
    "L": 10000.0, "nx": 1250, "p": 1, "semi_nodes": 181, "beta": 0.0025,
    "H": 1.0, "U": 0.0, "grav": 9.81,
    "h1_list": [0.1, 0.5], "sigma_list": [1000.0, 500.0],
    "x0_ingoing": 12000.0, "x0_outgoing": 5000.0,
    "dt_ingoing": 0.5, "nt_ingoing": 2200,
    "T_outgoing": 1000.0, "nt_outgoing": 8400,
    "ref_length": 20000.0, "directions": ["ingoing", "outgoing"],
    "write_snapshots": False,
}


def _validation_row(cfg: dict, direction: str, h1: float, sigma: float,
                    outdir: Path) -> dict:
    mesh = Mesh1D(cfg["L"], cfg["nx"])
    spec = BasisSpec(cfg["beta"], cfg["semi_nodes"] - 1)
    model = CoupledModel(swe_system(_swe(cfg)), mesh, cfg["p"], spec)
    ref = _reference(cfg, mesh, round(cfg["ref_length"] / mesh.dz), "ref_length")

    ingoing = direction == "ingoing"
    x0 = cfg["x0_ingoing"] if ingoing else cfg["x0_outgoing"]
    n_steps = cfg[f"nt_{direction}"]
    dt = cfg["dt_ingoing"] if ingoing else cfg["T_outgoing"] / n_steps

    h_fun = _gaussian(h1, x0, sigma)
    n = mesh.n_elements
    yT, num = _solve(model, model.initial_state(h_fun, _zero), dt, n_steps, n)
    _, refv = _solve(ref, ref.initial_state(h_fun, _zero), dt, n_steps, n)

    eh = error_norms(num[:, 0], refv[:, 0], relative=ingoing)
    eu = error_norms(num[:, 1], refv[:, 1], relative=ingoing)
    if cfg.get("write_snapshots"):
        _snapshot_csv(outdir, f"snapshot_{direction}_h{h1}_s{int(sigma)}.csv", model, yT)
    return {
        "x0": x0, "h1": h1, "sigma": sigma,
        "e1_h": eh.e1, "e1_u": eu.e1, "e2_h": eh.e2, "e2_u": eu.e2,
        "einf_h": eh.einf, "einf_u": eu.einf, "relative": ingoing,
    }


def run_coupling_validation(cfg: dict, outdir: Path) -> dict:
    unknown = [d for d in cfg["directions"] if d not in ("ingoing", "outgoing")]
    if unknown:
        raise ConfigError(f"key 'directions' takes 'ingoing' and 'outgoing' only; got {unknown}")
    for d in cfg["directions"]:
        if cfg[f"nt_{d}"] < 1:
            raise ConfigError(f"nt_{d} must be at least 1, got {cfg[f'nt_{d}']}")
    tasks = [(d, h1, s) for d in cfg["directions"] for h1 in cfg["h1_list"] for s in cfg["sigma_list"]]
    rows = _map_rows(lambda t: _validation_row(cfg, *t, outdir), tasks)
    return _write_results(outdir, cfg, ["x0", "h1", "sigma", "e1_h", "e1_u", "e2_h", "e2_u",
                                        "einf_h", "einf_u"], rows)


WAVETRAIN_DEFAULTS = {
    "L": 5000.0, "nx": 600, "p": 1, "semi_nodes": 30, "beta": 0.0143,
    "H": 1.0, "U": 0.0, "grav": 9.81,
    "amplitude_list": [0.025, 0.05], "wavenumber": 30.0,
    "T": 5000.0, "cfl": 0.3333333333333333,
    "dgamma": 0.1, "alpha": 0.1, "sigma_over_l0": 0.05,
    "ref_margin": 500.0,
    "write_snapshots": False,
}


def _wavetrain_row(cfg: dict, amplitude: float, outdir: Path) -> dict:
    swe = _swe(cfg)
    c = swe.wave_speed
    mesh = Mesh1D(cfg["L"], cfg["nx"])
    spec = BasisSpec(cfg["beta"], cfg["semi_nodes"] - 1)

    wavelength = cfg["L"] / cfg["wavenumber"]
    period = wavelength / c
    mask = np.array([False, True])

    def left_bc(t):
        return np.array([0.0, amplitude * np.sin(2 * np.pi * t / period)])

    dt, n_steps = _steps(cfg["T"], cfg["cfl"] * mesh.dz / c)

    model = CoupledModel(swe_system(swe), mesh, cfg["p"], spec, left_bc=left_bc, left_mask=mask,
                         damping=_damping(cfg))
    ref_len = cfg["L"] + c * cfg["T"] + cfg["ref_margin"]
    ref = _reference(cfg, mesh, int(np.ceil(ref_len / mesh.dz)), "ref_margin",
                     left_bc=left_bc, left_mask=mask)

    n = mesh.n_elements
    yT, num = _solve(model, model.initial_state(_zero, _zero), dt, n_steps, n)
    # the reference starts at rest: no need to project zero onto its long mesh
    yr0 = np.zeros(ref.dg_op.blocks_shape).ravel()
    _, refv = _solve(ref, yr0, dt, n_steps, n)

    eh = error_norms(num[:, 0], refv[:, 0], relative=True)
    eu = error_norms(num[:, 1], refv[:, 1], relative=True)
    e_en = energy_error(num[:, 0], refv[:, 0], num[:, 1], refv[:, 1], cfg["grav"], cfg["H"])
    if cfg.get("write_snapshots"):
        _snapshot_csv(outdir, f"snapshot_wavetrain_A{amplitude}.csv", model, yT)
    return {
        "amplitude": amplitude, "wavenumber": cfg["wavenumber"], "nx": cfg["nx"],
        "beta": cfg["beta"], "e2_h": eh.e2, "einf_h": eh.einf,
        "e2_u": eu.e2, "einf_u": eu.einf, "e_en": e_en,
    }


def run_wavetrain(cfg: dict, outdir: Path) -> dict:
    if not cfg["wavenumber"] > 0:
        raise ConfigError(f"wavetrain needs a positive wavenumber; got {cfg['wavenumber']}")
    rows = _map_rows(lambda a: _wavetrain_row(cfg, a, outdir), list(cfg["amplitude_list"]))
    return _write_results(outdir, cfg, ["amplitude", "wavenumber", "nx", "beta", "e2_h", "einf_h",
                                        "e2_u", "einf_u", "e_en"], rows)


ABSORPTION_DEFAULTS = {
    "D": 10000.0, "x0": 7500.0, "sigma": 500.0, "h1": 0.1, "p": 1,
    "H": 1.0, "U": 0.0, "grav": 9.81,
    "rows": [[40, 400, 600, 0.0035714285714285713],
             [30, 300, 450, 0.0035714285714285713],
             [20, 200, 300, 0.0035714285714285713],
             [10, 100, 150, 0.0035714285714285713]],
    "dgamma": 0.1, "alpha": 0.1, "sigma_over_l0": 0.05,
    "ref_length": 15000.0,
    "write_snapshots": False,
}


def _absorption_row(cfg: dict, row, outdir: Path) -> dict:
    semi_nodes, nx, steps, beta = row
    swe = _swe(cfg)
    T = cfg["D"] / (2.0 * swe.wave_speed)
    dt = T / steps
    mesh = Mesh1D(cfg["D"], nx)
    spec = BasisSpec(beta, semi_nodes - 1)

    system = swe_system(swe)
    model = CoupledModel(system, mesh, cfg["p"], spec, damping=_damping(cfg))
    wall = DGOnlyModel(system, mesh, cfg["p"], reflect_right=True)
    ref = _reference(cfg, mesh, round(cfg["ref_length"] / mesh.dz), "ref_length")

    h_fun = _gaussian(cfg["h1"], cfg["x0"], cfg["sigma"])
    yT, num = _solve(model, model.initial_state(h_fun, _zero), dt, steps, nx)
    _, wallv = _solve(wall, wall.initial_state(h_fun, _zero), dt, steps, nx)
    _, refv = _solve(ref, ref.initial_state(h_fun, _zero), dt, steps, nx)

    e_en = energy_error(num[:, 0], refv[:, 0], num[:, 1], refv[:, 1], cfg["grav"], cfg["H"])
    e_wall = energy_error(wallv[:, 0], refv[:, 0], wallv[:, 1], refv[:, 1], cfg["grav"], cfg["H"])
    rho = reflection_ratio(e_en, e_wall)
    if cfg.get("write_snapshots"):
        _snapshot_csv(outdir, f"snapshot_absorption_N{semi_nodes}.csv", model, yT)
    return {
        "semi_nodes": semi_nodes, "nx": nx, "steps": steps, "beta": beta,
        "resid_h": float(np.max(np.abs(num[:, 0] - refv[:, 0]))),
        "resid_u": float(np.max(np.abs(num[:, 1] - refv[:, 1]))),
        "e_en": e_en, "e_en_wall": e_wall, "rho": rho,
    }


def run_gaussian_absorption(cfg: dict, outdir: Path) -> dict:
    bad = [r for r in cfg["rows"] if r[2] < 1]
    if bad:
        raise ConfigError(f"rows {bad} need steps >= 1")
    rows = _map_rows(lambda r: _absorption_row(cfg, r, outdir), list(cfg["rows"]))
    return _write_results(outdir, cfg, ["semi_nodes", "nx", "steps", "beta", "resid_h", "resid_u",
                                        "e_en", "rho"], rows)


CONVERGENCE_DEFAULTS = {
    "u": 1.0, "p": 1, "T": 0.5, "nx_list": [50, 100, 200], "cfl": 0.1,
}


def dg_advection_error(u: float, p: int, nx: int, T: float, cfl: float) -> float:
    """L2 error of p-degree DG for q_t + u q_z = 0 with exact inflow data."""
    mesh = Mesh1D(1.0, nx)
    exact = lambda x, t: np.sin(2 * np.pi * (x - u * t))
    model = DGOnlyModel(scalar_system(u), mesh, p, lambda t: np.array([exact(0.0, t)]), np.array([True]))
    dt, n_steps = _steps(T, cfl * mesh.dz / abs(u))
    _, num = _solve(model, model.initial_state(lambda x: exact(x, 0.0)), dt, n_steps, nx)
    return float(np.sqrt(mesh.dz * np.sum((num[:, 0] - exact(mesh.centers, T)) ** 2)))


def run_convergence(cfg: dict, outdir: Path) -> dict:
    nx_list = cfg["nx_list"]
    errs = _map_rows(lambda nx: dg_advection_error(cfg["u"], cfg["p"], nx, cfg["T"], cfg["cfl"]), nx_list)
    orders = [float("nan")] + [float(np.log2(errs[i - 1] / errs[i])) for i in range(1, len(errs))]
    rows = [{"nx": n, "l2_error": e, "order": o} for n, e, o in zip(nx_list, errs, orders)]
    return _write_results(outdir, cfg, ["nx", "l2_error", "order"], rows)


# --------------------------------------------------------------------------


def _map_rows(fn, items):
    """Rows in order, serially; its own function so perfbench can time the row loop."""
    return [fn(item) for item in items]


@dataclass(frozen=True)
class Scenario:
    defaults: dict
    runner: object


SCENARIOS = {
    "spectrum": Scenario(SPECTRUM_DEFAULTS, run_spectrum),
    "rule": Scenario(RULE_DEFAULTS, run_rule),
    "operator": Scenario(OPERATOR_DEFAULTS, run_operator),
    "coupling_validation": Scenario(COUPLING_VALIDATION_DEFAULTS, run_coupling_validation),
    "wavetrain": Scenario(WAVETRAIN_DEFAULTS, run_wavetrain),
    "gaussian_absorption": Scenario(ABSORPTION_DEFAULTS, run_gaussian_absorption),
    "convergence": Scenario(CONVERGENCE_DEFAULTS, run_convergence),
}


def run_scenario(cfg: dict, outdir) -> dict:
    name = cfg.get("scenario")
    if name not in SCENARIOS:
        raise ConfigError(f"unknown scenario {name!r}; expected one of {sorted(SCENARIOS)}")
    scenario = SCENARIOS[name]
    resolved = resolve_config(scenario.defaults, cfg, name)
    outdir = Path(outdir)
    try:
        made = _make_dirs(outdir)
    except OSError as exc:
        raise ConfigError(f"cannot make output directory {outdir}: {exc.strerror or exc}") from exc
    try:
        return scenario.runner(resolved, outdir)
    except Exception:
        # a failed run leaves no directory of its own behind; one that was
        # there before the run stays as it was
        if made is not None:
            shutil.rmtree(made)
        raise


def _make_dirs(path: Path) -> Path | None:
    """``path.mkdir(parents=True, exist_ok=True)`` that returns the top-most
    directory it created, or None if ``path`` was already a directory.

    It makes the same system calls as ``Path.mkdir``: one ``mkdir`` when
    the parent exists, and a walk up only when it does not.
    """
    try:
        path.mkdir()
    except FileExistsError:
        if not path.is_dir():
            raise
        return None
    except FileNotFoundError:
        if path.parent == path:
            raise
        top = _make_dirs(path.parent)
        path.mkdir(exist_ok=True)
        return path if top is None else top
    return path
