#!/usr/bin/env python3
"""Checked-in mutation checks: does the test suite still catch known defects?

    python3 tools/mutants.py

Each mutant is one exact text replacement in one file of the repository,
with the test ids that must fail once it is applied.  For each mutant the
tool extracts ``git archive HEAD`` into a temporary
directory, replaces the one occurrence of the old text, and runs
``python -m pytest`` on those test ids there, with BLAS pinned to one
thread.  A mutant is caught when every listed id (a test function or one
of its parametrized cases) has a failing case, and it survived when none
has.  A known survivor lists the tests that fail to see it and the reason;
it is expected to survive, and it is reported if it is caught.

Exit status 1 when a mutant that should be caught is not (fully) caught,
when its tests cannot be run, or when an old text does not occur exactly
once in its file at HEAD; 0 otherwise.
tests/test_tools.py checks only the anchors, against the working tree.
"""

from __future__ import annotations

import io
import os
import re
import subprocess
import sys
import tarfile
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str                # relative to the repository root
    old: str                 # must occur exactly once in path
    new: str
    tests: tuple[str, ...]   # ids expected to fail; for a known survivor, the ids it passes
    survivor: str = ""       # why a known survivor is not caught, and what will catch it
    also: tuple = ()         # further (old, new) pairs in the same file, for a two-place defect

    @property
    def edits(self) -> tuple:
        return ((self.old, self.new),) + tuple(self.also)


_SEMI = "src/lagdg/semiinf.py"
_FOLDED = "tests/test_operator_oracle.py::test_folded_operator_matches_reference"
_DENSE = "tests/test_semiinf.py::TestStructuredApply::test_undamped_matches_dense_operator"
_EXACT = "tests/test_coupled.py::TestExactSolution::test_convergence_order"
_CARDINAL = "tests/test_quadrature.py::TestCardinalBasis"
_TABLE = "tests/test_quadrature.py::TestUnitNodeTable::test_table_equals_the_generator"
_GHOST_ROWS = "tests/test_dg.py::test_ghost_rows_match_the_boundary_lifts"
_ADV = "src/lagdg/advection.py"
_DIAG = "src/lagdg/diagnostics.py"
_SCEN = "src/lagdg/scenarios.py"
_ENERGY = "tests/test_dg_energy.py::test_energy_rate_is_the_face_dissipation_plus_the_boundary_fluxes"
_FLAGS = "tests/test_cli.py::TestInspectionFlags::test_flag_and_override_spellings_fail_alike"
_MISTYPED = "tests/test_cli.py::TestCliCommands::test_mistyped_scalar_keys_are_config_errors"
_EVERY_KEY = "tests/test_cli.py::test_every_key_resolves_to_its_defaults_type"
_ZERO_LENGTH = "tests/test_cli.py::TestCliCommands::test_zero_length_runs_are_config_errors"
_CLI = "src/lagdg/cli.py"
_INSPECT = "tests/test_cli.py::TestInspectionFlags"

MUTANTS = (
    # the undamped structured apply of LaguerreModalOperator.rhs
    Mutant("structured-half-diagonal", _SEMI, "s -= 0.5 * coeffs", "s -= 0.6 * coeffs",
           (_DENSE, _EXACT, "tests/test_operator_oracle.py::test_modal_rhs_matches_reference")),
    Mutant("structured-trace-first-sum", _SEMI, "self.a_minus @ s[:, -1]", "self.a_minus @ s[:, 0]",
           (f"{_DENSE}[u=-1-14]", _EXACT,
            "tests/test_coupled.py::TestCoupledRhs::test_isotropic_layer_sends_nothing_back[undamped]")),
    Mutant("structured-cumsum-axis-0", _SEMI, "s = np.cumsum(coeffs, axis=1)", "s = np.cumsum(coeffs, axis=0)",
           (f"{_DENSE}[swe-U0.3-14]", _EXACT)),
    # the outgoing-trace feedback block beta A- (x) 11^T of K
    Mutant("feedback-block-dropped", _SEMI,
           "K.reshape(sys.d, M + 1, sys.d, M + 1)[...] += (beta * self.a_minus)[:, None, :, None]", "pass",
           (_FOLDED, "tests/test_semiinf.py::TestModalRhs::test_damping_matches_quadrature_oracle")),
    Mutant("feedback-a-plus", _SEMI, "(beta * self.a_minus)[:, None, :, None]",
           "(beta * self.a_plus)[:, None, :, None]",
           (_FOLDED, "tests/test_coupled.py::TestCoupledRhs::test_isotropic_layer_sends_nothing_back")),
    Mutant("feedback-eye", _SEMI,
           "K.reshape(sys.d, M + 1, sys.d, M + 1)[...] += (beta * self.a_minus)[:, None, :, None]",
           "K += np.kron(beta * self.a_minus, np.eye(M + 1))",
           (_FOLDED, "tests/test_semiinf.py::TestModalRhs::test_damping_matches_quadrature_oracle")),
    Mutant("feedback-beta-dropped", _SEMI, "(beta * self.a_minus)[:, None, :, None]",
           "self.a_minus[:, None, :, None]",
           (_FOLDED, "tests/test_advection.py::TestBetaScaling::test_operator_scales_with_beta")),
    # the slices of the generated unit-node table
    Mutant("table-gl-start-off-by-one", "src/lagdg/quadrature.py", "start = n * (n - 1) // 2",
           "start = n * (n - 1) // 2 + 1",
           (_TABLE, "tests/test_quadrature.py::TestRuleConstruction::test_gl_moments_factorial")),
    Mutant("table-glr-start-off-by-one", "src/lagdg/quadrature.py", "start = _GL_SIZE + M * (M - 1) // 2",
           "start = _GL_SIZE + M * (M - 1) // 2 + 1",
           (_TABLE, "tests/test_quadrature.py::TestRuleConstruction::test_glr_exact_to_degree_2m")),
    # the basis tables and the cardinal values at the origin
    Mutant("cardinal-cumprod-axis-0", "src/lagdg/quadrature.py", "np.cumprod(ratio, axis=1)",
           "np.cumprod(ratio, axis=0)", (_CARDINAL, "tests/test_mp_oracle.py::test_gl_outflow_matches_80_digit_assembly")),
    Mutant("cardinal-unit-diagonal-dropped", "src/lagdg/quadrature.py", "np.fill_diagonal(ratio, 1.0)", "pass",
           (_CARDINAL, "tests/test_advection.py::TestBetaScaling::test_operator_scales_with_beta[nodal-functions-gl-inflow]")),
    Mutant("cardinal-envelope-sign", "src/lagdg/quadrature.py", "np.exp(-0.5 * rule.beta * (0.0 - z))",
           "np.exp(0.5 * rule.beta * (0.0 - z))",
           (f"{_CARDINAL}::test_against_barycentric_oracle[gl-functions]",
            "tests/test_spectrum.py::TestClassify::test_gl_outflow_blowup")),
    Mutant("laguerre-seeds-swapped", "src/lagdg/basis.py",
           "_laguerre_recurrence(n, np.asarray(x, dtype=float), 1.0)",
           "_laguerre_recurrence(n, np.asarray(x, dtype=float), np.exp(-0.5 * np.asarray(x, dtype=float)))",
           ("tests/test_basis.py::TestLaguerrePoly::test_against_series_oracle",
            "tests/test_basis.py::TestLaguerreFun::test_series_oracle_composition",
            "tests/test_quadrature.py::TestRuleConstruction::test_gl_moments_factorial"),
           also=(("_laguerre_recurrence(n, x, np.exp(-0.5 * x))", "_laguerre_recurrence(n, x, 1.0)"),)),
    Mutant("legendre-recurrence-2k-1", "src/lagdg/basis.py", "((2 * k + 1) * x * out[k]", "((2 * k - 1) * x * out[k]",
           ("tests/test_basis.py::TestLegendreTable::test_against_numpy_legvander",
            "tests/test_dg.py::TestProjection::test_constant")),
    # the DG ghost rows, the in-place RK3 update and the wall flip
    Mutant("ghost-left-in-slot-1", "src/lagdg/dg.py", "w[0, ::self.p + 1] = ", "w[0, 1::self.p + 1] = ",
           (f"{_GHOST_ROWS}[1-2-5-masked-left]", "tests/test_dg.py::TestRhs::test_p0_reduces_to_upwind_finite_volume")),
    Mutant("ghost-right-from-left-trace", "src/lagdg/dg.py", "blocks[-1] @ self.trace_right if right_exterior",
           "blocks[-1] @ self.trace_left if right_exterior",
           (f"{_GHOST_ROWS}[1-2-5-transmissive]",)),
    Mutant("rk3-update-k1-for-sum", "src/lagdg/coupled.py", "    out += s\n", "    out += k1\n",
           ("tests/test_coupled.py::TestRK3::test_matches_the_stage_formula_bit_for_bit",
            "tests/test_coupled.py::TestRK3::test_third_order_convergence")),
    Mutant("wall-flip-no-sign", "src/lagdg/scenarios.py", "np.array([tr[0], -tr[1]])", "np.array([tr[0], tr[1]])",
           ("tests/test_scenarios.py::TestDGOnlyModel::test_reflective_wall_reverses_velocity",
            "tests/test_scenarios.py::TestCoupledScenariosSmall::test_absorption_small_row", _ENERGY)),
    Mutant("convergence-no-inflow-mask", "src/lagdg/scenarios.py",
           "np.array([exact(0.0, t)]), np.array([True]))", "np.array([exact(0.0, t)]), None)",
           ("tests/test_dg.py::TestRhs::test_convergence_order_two",
            "tests/test_scenarios.py::TestSmallScenarios::test_convergence_orders")),
    # the SWE system and the DG volume term (ROADMAP item 1's exact-solution oracle)
    Mutant("gravity-1.01", "src/lagdg/coupled.py", "H, U, g = cfg.H, cfg.U, cfg.grav\n    c = cfg.wave_speed",
           "H, U, g = cfg.H, cfg.U, 1.01 * cfg.grav\n    c = float(np.sqrt(g * H))",
           (_EXACT, "tests/test_coupled.py::TestSWESystem::test_characteristic_speeds")),
    Mutant("stiffness-1.01", "src/lagdg/dg.py", "np.kron(sys.a, stiffness_coupling(p))",
           "np.kron(sys.a, 1.01 * stiffness_coupling(p))", (_EXACT, _ENERGY)),
    # the upwind fluxes and the left closure, seen by the DG energy identity
    Mutant("dg-upper-sign", "src/lagdg/dg.py", "self.upper = -np.kron(am", "self.upper = np.kron(am",
           (_ENERGY, "tests/test_dg.py::TestRhs::test_constant_state_is_steady")),
    Mutant("dg-outflow-edge-half", "src/lagdg/dg.py", "- np.kron(ap, np.outer(er, er))",
           "- 0.5 * np.kron(ap, np.outer(er, er))",
           (_ENERGY, "tests/test_dg.py::TestRhs::test_p0_reduces_to_upwind_finite_volume")),
    Mutant("closure-outgoing-sign", "src/lagdg/dg.py", "= -s_inv @ V[np.ix_(mask, ~incoming)]",
           "= s_inv @ V[np.ix_(mask, ~incoming)]",
           (_ENERGY, "tests/test_dg.py::TestTraceAndGhost::test_ghost_imposes_velocity")),
    # subnormals are zeroed on a cadence in run_simulation
    Mutant("flush-never-fires", "src/lagdg/coupled.py", "if step % FLUSH_EVERY == 0:",
           "if step % FLUSH_EVERY == -1:",
           ("tests/test_coupled.py::TestRunSimulation::test_subnormals_are_flushed_in_a_quiet_region",)),
    # the scalar operators, their spectra and the reported numbers
    Mutant("gl-outflow-hh-half", _ADV, "A += u * np.outer(h / w, h)", "A += 0.5 * u * np.outer(h / w, h)",
           ("tests/test_acceptance.py::test_criterion_1_stability_table",
            "tests/test_mp_oracle.py::test_gl_outflow_matches_80_digit_assembly")),
    Mutant("glr-nodal-outflow-corner-half", _ADV, "A[0, 0] += u / w[0]", "A[0, 0] += 0.5 * u / w[0]",
           ("tests/test_advection.py::TestWeakNodal::test_glr_poly_outflow_is_nilpotent",)),
    Mutant("glr-inflow-leading-block", _ADV, "A = A[1:, 1:]", "A = A[:-1, :-1]",
           ("tests/test_advection.py::TestWeakNodal::test_glr_inflow_similarity_with_differentiation_block",
            "tests/test_advection.py::TestWeakNodal::test_glr_function_inflow_spectrum_matches_collocation")),
    Mutant("modal-poly-inflow-g-half", _ADV, "g = beta * op.a_plus[0, 0] * variant.q_left",
           "g = 0.5 * beta * op.a_plus[0, 0] * variant.q_left",
           ("tests/test_advection.py::TestApplyAndValidation::test_modal_poly_inflow_keeps_the_datum_steady",
            "tests/test_advection.py::TestModalVariants::test_function_matrix_and_forcing_against_mode_coupling")),
    Mutant("modal-poly-shift-dropped", _ADV, "A[np.diag_indices(M + 1)] -= 0.5 * beta * u", "pass",
           ("tests/test_advection.py::TestModalVariants::test_poly_pair_is_the_function_pair_shifted",
            "tests/test_advection.py::TestApplyAndValidation::test_modal_poly_inflow_keeps_the_datum_steady",
            "tests/test_acceptance.py::test_criterion_2_exact_modal_spectra"),
           also=(("exact -= 0.5 * beta * u", "pass"),)),
    Mutant("classify-tol-1e-3", "src/lagdg/spectrum.py", "DEFAULT_STABILITY_TOL = 1e-8",
           "DEFAULT_STABILITY_TOL = 1e-3",
           ("tests/test_acceptance.py::test_criterion_1_stability_table",
            "tests/test_spectrum.py::TestClassify::test_collocation_poly_outflow_unstable")),
    Mutant("energy-no-grav", _DIAG, "grav * (h - h_ref) ** 2", "(h - h_ref) ** 2",
           ("tests/test_diagnostics.py::TestEnergyError::test_single_sample",
            "tests/test_diagnostics.py::TestEnergyError::test_direct_summation_oracle")),
    Mutant("rel-e2-by-n1", _DIAG, "e1 / n1, e2 / n2, einf / ninf", "e1 / n1, e2 / n1, einf / ninf",
           ("tests/test_diagnostics.py::TestErrorNorms::test_relative_homogeneity",)),
    Mutant("rr-no-sqrt", _DIAG, "np.sqrt(e_en / e_en_wall)", "e_en / e_en_wall",
           ("tests/test_diagnostics.py::TestReflectionRatio::test_ratio_of_energies_is_square_rooted",)),
    Mutant("cli-numerical-exit-2", _CLI, "EXIT_NUMERICAL = 3", "EXIT_NUMERICAL = 2",
           ("tests/test_cli.py::TestCliCommands::test_non_finite_operator_is_a_numerical_failure",
            "tests/test_cli.py::TestCliCommands::test_numerical_failure_exit_code")),
    # every input passes resolve_config, which checks and types each value like its default
    Mutant("inspection-flags-skip-resolve", _SCEN, "resolved = resolve_config(scenario.defaults, cfg, name)",
           'resolved = ({**scenario.defaults, **cfg} if name in ("spectrum", "rule", "operator")\n'
           "                else resolve_config(scenario.defaults, cfg, name))",
           (_FLAGS, _MISTYPED)),
    Mutant("whole-rule-on-float-defaults", _SCEN, "if not isinstance(default, int):",
           "if not isinstance(default, float):", (_MISTYPED, _EVERY_KEY)),
    Mutant("bool-defaults-as-ints", _SCEN, "isinstance(value, (int, float)) and not isinstance(value, bool)",
           "isinstance(value, (int, float))", (_MISTYPED, _EVERY_KEY)),
    Mutant("rows-typed-like-first-element", _SCEN, "[[_typed(x, d, where) for x, d in zip(r, like)] for r in v]",
           "[[_typed(x, like[0], where) for x in r] for r in v]",
           (_EVERY_KEY, "tests/test_cli.py::test_a_value_takes_its_defaults_type",
            "tests/test_scenarios.py::TestCoupledScenariosSmall::test_absorption_small_row")),
    Mutant("double-range-unchecked", _SCEN, "if not abs(v) <= sys.float_info.max:",
           "if isinstance(v, float) and not abs(v) <= sys.float_info.max:",
           ("tests/test_cli.py::TestCliCommands::test_non_finite_numbers_are_config_errors[huge-int]",
            "tests/test_cli.py::TestCliCommands::test_non_finite_numbers_are_config_errors[huge-float]",
            "tests/test_cli.py::TestCliCommands::test_non_finite_numbers_are_config_errors[huge-row]")),
    Mutant("wavenumber-unchecked", _SCEN, 'if not cfg["wavenumber"] > 0:', "if False:",
           (f"{_ZERO_LENGTH}[wavetrain-wavenumber]",)),
    # the command-line reader: --NAME VALUE pairs, a --NAME always a name, the last value winning
    Mutant("option-dashes-kept", _CLI, 'name.replace("-", "_")', "name",
           (f"{_INSPECT}::test_every_key_of_the_defaults_table_is_a_flag[operator]",
            "tests/test_cli.py::TestCliCommands::test_operator_writes_matrix_and_forcing")),
    Mutant("dash-led-value-read-as-name", _CLI, 'args[i + 1].startswith("--")', 'args[i + 1].startswith("-")',
           (f"{_INSPECT}::test_argument_errors_are_config_errors[dash-value]",
            f"{_INSPECT}::test_a_dash_led_value_reads_alike_spaced_or_joined")),
    Mutant("last-value-unchecked", _CLI, "if i + 1 == len(args) or args", "if args",
           (f"{_INSPECT}::test_argument_errors_are_config_errors[name-without-value]",)),
    Mutant("first-output-wins", _CLI, "given = dict(options)", "given = dict(reversed(options))",
           (f"{_INSPECT}::test_the_last_value_of_a_name_wins",)),
    Mutant("run-takes-any-name", _CLI, 'names = ("config", "override", "output") if command == "run" else None',
           "names = None",
           (f"{_INSPECT}::test_run_takes_config_override_and_output_only",
            f"{_INSPECT}::test_argument_errors_are_config_errors[run-ambiguous]")),
    # known survivor: no shipped table can see the isotropic layer
    Mutant("dgamma-ignored", "src/lagdg/scenarios.py", 'SigmoidDamping(cfg["dgamma"],', "SigmoidDamping(0.0,",
           ("tests/test_scenarios.py::TestCoupledScenariosSmall",),
           survivor="an isotropic layer sends nothing back, so no table can see it (ROADMAP item 1)"),
)


def anchor_problems(root: Path, mutants=MUTANTS) -> list[str]:
    """One line per mutant edit whose old text does not occur exactly once
    in its file under root, or whose new text is the old one."""
    problems = []
    for m in mutants:
        path = root / m.path
        text = path.read_text() if path.is_file() else ""
        for old, new in m.edits:
            if text.count(old) != 1:
                problems.append(f"{m.name}: old text {old!r} occurs {text.count(old)} times in {m.path}")
            if new == old:
                problems.append(f"{m.name}: new text equals the old text {old!r}")
    return problems


def _archive() -> bytes:
    return subprocess.run(["git", "archive", "HEAD"], cwd=ROOT, check=True, capture_output=True).stdout


def _extract(archive: bytes, dest: Path) -> None:
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        if hasattr(tarfile, "data_filter"):   # Python 3.11.4 and later
            tar.extractall(dest, filter="data")
        else:
            tar.extractall(dest)


_FAILED = re.compile(r"^(?:FAILED|ERROR) (\S+)", re.M)


def run_mutant(m: Mutant, archive: bytes) -> tuple[str, list[str]]:
    """(status, listed ids with no failing case) of one mutant."""
    with tempfile.TemporaryDirectory(prefix="lagdg-mutant-") as tmp:
        copy = Path(tmp)
        _extract(archive, copy)
        path = copy / m.path
        text = path.read_text()
        for old, new in m.edits:
            text = text.replace(old, new, 1)
        path.write_text(text)
        env = {**os.environ, "PYTHONPATH": str(copy / "src"), "OPENBLAS_NUM_THREADS": "1",
               "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1", "PYTHONDONTWRITEBYTECODE": "1"}
        proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider", *m.tests],
                              cwd=copy, env=env, capture_output=True, text=True)
    if proc.returncode not in (0, 1):
        return f"not run (pytest exit {proc.returncode})", list(m.tests)
    failed = _FAILED.findall(proc.stdout)
    missed = [t for t in m.tests if not any(f == t or f.startswith((t + "[", t + "::")) for f in failed)]
    if not missed:
        return "caught", []
    return ("survived" if len(missed) == len(m.tests) else "partly caught"), missed


def main() -> int:
    archive = _archive()
    with tempfile.TemporaryDirectory(prefix="lagdg-anchors-") as tmp:
        _extract(archive, Path(tmp))
        problems = anchor_problems(Path(tmp))
    for line in problems:
        print(f"anchor: {line}")
    bad = bool(problems)
    broken = {line.split(":", 1)[0] for line in problems}
    for m in MUTANTS:
        if m.name in broken:
            continue
        status, missed = run_mutant(m, archive)
        if status.startswith("not run"):
            bad, note = True, ""
        elif m.survivor:
            note = f"known survivor: {m.survivor}" if status == "survived" else "listed as a known survivor"
        else:
            bad |= status != "caught"
            note = f"no failure in {missed}" if missed else ""
        print(f"{m.name}: {status}" + (f"  ({note})" if note else ""), flush=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
