"""Seeded inputs of the benchmark workloads.

A workload is a list of jobs. A job is one ``lagdg`` command line (without
``--output``) plus the rule its output is checked by. Every input a job
gets is drawn here from the seed; the workload process receives nothing
else.

Every coupled model is linear, so the seed may rescale the initial or
boundary amplitude by a power of two: relative errors and ``rho`` stay
the same and absolute columns rescale exactly, which lets one golden row
serve every scale. A table job's ``powers`` say by which power of the
scale each column rescales; unlisted columns do not.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from pathlib import Path

WORKLOADS = ("validation", "absorption", "wavetrain", "spectra")

# Run length of one sample. The full configs take minutes per row; these
# keep each sample at a few seconds while every model keeps the dofs of
# the shipped config.
VALIDATION_STEPS = 200
WAVETRAIN_T = 100.0

SCALE_EXPONENTS = (-2, -1, 0, 1, 2)

SPECTRA_M = (10, 25, 50)
SPECTRA_BETAS = (0.25, 0.5, 1.0, 2.0)
SPECTRA_VARIANTS = tuple(
    (form, basis, nodes, direction)
    for form, basis, nodes, direction in itertools.product(
        ("strong", "nodal", "modal"), ("functions", "polynomials"), ("gl", "glr"), ("inflow", "outflow"))
    if not (form == "strong" and nodes == "gl")  # strong collocation needs the GLR boundary node
)

# Columns at rounding level on the seed, and the error columns: compared
# with an absolute tolerance as well as the relative one. The errors are
# differences of two solutions (about 4e-7 relative on ingoing validation
# rows, exactly 0 on wavetrain at the benchmark's run length), so a change
# in the last bits of either solution moves them by far more than RTOL of
# their own value.
ERROR_COLUMNS = ("e1_h", "e1_u", "e2_h", "e2_u", "einf_h", "einf_u")
ROUNDING_COLUMNS = frozenset({"resid_h", "resid_u", "e_en", "e_en_wall", "rho", *ERROR_COLUMNS})
RTOL = 1e-10
ATOL_ROUNDING = 1e-12


def read_config(path: Path) -> dict:
    """A shipped config, parsed by lagdg itself."""
    from lagdg.scenarios import parse_config_file  # lagdg is on sys.path once run.py is imported

    return parse_config_file(path)


def _overrides(values: dict) -> list[str]:
    args = []
    for key, value in values.items():
        args += ["--override", f"{key}={json.dumps(value)}"]
    return args


def _table_job(job_id, config, overrides, key, scale, powers, snapshot=False):
    argv = ["run", "--config", f"configs/{config}"] + _overrides(overrides)
    check = {"kind": "table", "key": key, "scale": scale, "powers": powers}
    if snapshot:
        check["snapshot"] = True
    return {"id": job_id, "argv": argv, "check": check}


# --------------------------------------------------------------------------
# per workload: the jobs for a choice, and the choices that cover every golden


def _validation_lists(cfg: dict) -> tuple:
    """The directions, h1 values and sigmas the config's rows combine."""
    return cfg.get("directions", ["ingoing", "outgoing"]), cfg["h1_list"], cfg["sigma_list"]


def validation_jobs(root: Path, rows, scale: float) -> list[dict]:
    """One single-row job per (direction, h1, sigma) in ``rows``."""
    cfg = read_config(root / "configs" / "coupling_validation.cfg")
    return [_validation_job(cfg, row, scale) for row in rows]


def _validation_job(cfg: dict, row, scale: float) -> dict:
    direction, h1, sigma = row
    n = VALIDATION_STEPS
    overrides = {
        "directions": [direction], "h1_list": [h1 * scale], "sigma_list": [sigma],
        "nt_ingoing": n, "nt_outgoing": n,
        # keeps the outgoing dt of the config
        "T_outgoing": cfg["T_outgoing"] * n / cfg["nt_outgoing"],
    }
    ingoing = direction == "ingoing"
    # ingoing rows report relative errors, outgoing rows absolute ones
    powers = {"h1": 1, **{c: 0 if ingoing else 1 for c in ERROR_COLUMNS}}
    key = f"{direction}|{h1!r}|{sigma!r}"
    return _table_job(f"{direction}-h{h1}-s{sigma}", "coupling_validation.cfg", overrides,
                      key, scale, powers)


def validation_choices(root: Path) -> list:
    cfg = read_config(root / "configs" / "coupling_validation.cfg")
    return [[row] for row in itertools.product(*_validation_lists(cfg))]


ABSORPTION_POWERS = {"resid_h": 1, "resid_u": 1, "e_en": 2}


def absorption_jobs(root: Path, parts, scale: float) -> list[dict]:
    """One job per part: "main" runs absorption_main.cfg as shipped, an
    integer i runs row i of absorption_beta_sweep.cfg.

    Rows run one after another (no ``--jobs``): on two cpus, ``--jobs 2``
    was slower and doubled the spread of the metrics between runs."""
    main = read_config(root / "configs" / "absorption_main.cfg")
    sweep = read_config(root / "configs" / "absorption_beta_sweep.cfg")
    jobs = []
    for part in parts:
        if part == "main":
            jobs.append(_table_job("main", "absorption_main.cfg", {"h1": main["h1"] * scale},
                                   "main", scale, ABSORPTION_POWERS))
        else:
            jobs.append(_table_job(f"sweep{part}", "absorption_beta_sweep.cfg",
                                   {"h1": sweep["h1"] * scale, "rows": [sweep["rows"][part]]},
                                   f"sweep|{part}", scale, ABSORPTION_POWERS))
    return jobs


# The sweep row is fixed, not drawn: its M changes the cost of the damped
# Laguerre rhs, so a drawn row would move the metrics from seed to seed.
ABSORPTION_SWEEP_ROW = 2


def absorption_choices(root: Path) -> list:
    return [["main", ABSORPTION_SWEEP_ROW]]


WAVETRAIN_CONFIGS = ("wavetrain_15nodes.cfg", "wavetrain_30nodes.cfg")
WAVETRAIN_POWERS = {"amplitude": 1, "e_en": 2}
SNAPSHOT_POWERS = {"h": 1, "u": 1}


def _wavetrain_margin(cfg: dict) -> float:
    """ref_margin that keeps the shipped reference mesh at the shorter T.

    The reference covers L + c T + ref_margin; shortening T would shrink
    it, so the margin grows to keep the element count of the full run.
    """
    grav, H = cfg.get("grav", 9.81), cfg.get("H", 1.0)
    c = math.sqrt(grav * H)
    dz = cfg["L"] / cfg["nx"]
    ref_nx = math.ceil((cfg["L"] + c * cfg["T"] + cfg.get("ref_margin", 500.0)) / dz)
    return (ref_nx - 0.5) * dz - cfg["L"] - c * WAVETRAIN_T


def wavetrain_jobs(root: Path, choice, scale: float) -> list[dict]:
    """One job per (config, amplitude). The train does not reach the
    interface by WAVETRAIN_T, so the error columns are 0; the snapshot of
    the coupled state is what checks the forced, masked boundary."""
    jobs = []
    for name, amplitude in choice:
        cfg = read_config(root / "configs" / name)
        overrides = {"amplitude_list": [amplitude * scale], "T": WAVETRAIN_T,
                     "ref_margin": _wavetrain_margin(cfg), "write_snapshots": True}
        jobs.append(_table_job(name.removesuffix(".cfg"), name, overrides,
                               f"{name}|{amplitude!r}", scale, WAVETRAIN_POWERS, snapshot=True))
    return jobs


def wavetrain_choices(root: Path) -> list:
    return [[(name, a)] for name in WAVETRAIN_CONFIGS
            for a in read_config(root / "configs" / name)["amplitude_list"]]


def spectrum_key(variant, beta: float, M: int) -> str:
    return "|".join(variant) + f"|{beta!r}|{M}"


def spectra_jobs(points) -> list[dict]:
    """Every variant at each (beta, M) point, then the rule and operator examples."""
    jobs = []
    for beta, M in points:
        for variant in SPECTRA_VARIANTS:
            form, basis, nodes, direction = variant
            jobs.append({
                "id": f"spectrum{len(jobs)}",
                "argv": ["spectrum", "--form", form, "--basis", basis, "--nodes", nodes,
                         "--direction", direction, "--beta", repr(beta), "--M", str(M)],
                "check": {"kind": "spectrum", "key": spectrum_key(variant, beta, M)},
            })
    for name in ("rule_example", "operator_example"):
        jobs.append({"id": name, "argv": ["run", "--config", f"configs/{name}.cfg"],
                     "check": {"kind": name}})
    return jobs


def spectra_choices(root: Path) -> list:
    return [[(beta, M) for M in SPECTRA_M for beta in SPECTRA_BETAS]]


# --------------------------------------------------------------------------


def build(workload: str, seed: int, root: Path) -> list[dict]:
    """The jobs of one benchmark run, drawn from the seed."""
    rng = random.Random(f"{workload}:{seed}")
    scale = 2.0 ** rng.choice(SCALE_EXPONENTS)
    if workload == "validation":
        cfg = read_config(root / "configs" / "coupling_validation.cfg")
        return validation_jobs(root, [tuple(rng.choice(v) for v in _validation_lists(cfg))], scale)
    if workload == "absorption":
        return absorption_jobs(root, ["main", ABSORPTION_SWEEP_ROW], scale)
    if workload == "wavetrain":
        choice = [(name, rng.choice(read_config(root / "configs" / name)["amplitude_list"]))
                  for name in WAVETRAIN_CONFIGS]
        return wavetrain_jobs(root, choice, scale)
    if workload == "spectra":
        return spectra_jobs([(rng.choice(SPECTRA_BETAS), M) for M in SPECTRA_M])
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")


def golden_jobs(workload: str, root: Path) -> list[dict]:
    """Jobs at scale 1 that together produce every golden key of a workload."""
    jobs_for, choices = {
        "validation": (lambda c: validation_jobs(root, c, 1.0), validation_choices),
        "absorption": (lambda c: absorption_jobs(root, c, 1.0), absorption_choices),
        "wavetrain": (lambda c: wavetrain_jobs(root, c, 1.0), wavetrain_choices),
        "spectra": (spectra_jobs, spectra_choices),
    }[workload]
    jobs = []
    for i, choice in enumerate(choices(root)):
        jobs += [{**job, "id": f"{job['id']}-{i}"} for job in jobs_for(choice)]
    return jobs
