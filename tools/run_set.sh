#!/bin/sh
# Run the shipped configs whose outputs are compared byte for byte between
# two checkouts of lagdg.  Run it from each checkout, then compare:
#
#   tools/run_set.sh /tmp/a          # in the first checkout
#   tools/run_set.sh /tmp/b          # in the second
#   diff -r /tmp/a /tmp/b
#
# For a change that is not byte-identical, tools/run_set_diff.py A B prints
# each numeric column's largest change against the column's scale and
# exits 1 when file sets or non-numeric cells differ, or a column moves by
# more than 1e-10 of its scale.
#
# Every shipped config is run, and each inspection command once as
# flags.  coupling_validation runs 200 steps each way and both wavetrain
# configs run to T = 100 s, so the set takes well under a minute; all
# three write snapshots.
# The checkout's own src/ is used, with BLAS threads pinned to 1.
# For speed, tools/bench_pairs.py PARENT CHANGE --workload W [--pairs N]
# [--first-seed F] runs the benchmark in both checkouts in alternating pairs
# on seeds F..F+N-1 and prints each end-to-end metric's medians, quartiles
# and wins; with --tier1 in place of --workload it times Tier-1 the same way.
# tools/mutants.py applies each checked-in mutant to a
# git archive copy and runs the tests that must catch it.
set -eu
if [ $# -ne 1 ]; then
    echo "usage: $0 OUTDIR" >&2
    exit 2
fi
root=$(cd "$(dirname "$0")/.." && pwd)
mkdir -p "$1"
out=$(cd "$1" && pwd)
export PYTHONPATH="$root/src"
export OMP_NUM_THREADS=1 OPENBLAS_NUM_THREADS=1 MKL_NUM_THREADS=1

run() {
    name=$1
    shift
    python3 -m lagdg.cli run --config "$root/configs/$name.cfg" --output "$out/$name" "$@" >/dev/null
}

# an inspection command given as flags, written to $out/NAME
inspect() {
    name=$1
    shift
    python3 -m lagdg.cli "$@" --output "$out/$name" >/dev/null
}

run absorption_main
run absorption_beta_sweep
run convergence_dg
run coupling_validation --override nt_ingoing=200 --override nt_outgoing=200 \
    --override T_outgoing=23.80952380952381 --override write_snapshots=true
run wavetrain_15nodes --override T=100.0 --override write_snapshots=true
run wavetrain_30nodes --override T=100.0 --override write_snapshots=true
for cfg in "$root"/configs/spectrum_*.cfg; do
    run "$(basename "$cfg" .cfg)"
done
run operator_example
run rule_example
inspect spectrum_flags spectrum --form strong --basis functions --nodes glr --direction outflow \
    --beta 0.5 --M 25 --u -2
inspect rule_flags rule --nodes gl --basis polynomials --beta 2 --M 12
inspect operator_flags operator --form modal --basis functions --direction outflow --beta 1.0 --M 10 \
    --u -1 --q-left 1.0
