#!/bin/sh
# tools/bench-ab.sh PARENT_REF [PAIRS] [WORKLOAD...]: the one way this repo
# backs a performance claim, or a statement that nothing regressed.
#
# Extracts PARENT_REF's committed files into a scratch directory,
# target/bench-ab/parent (`git archive | tar -x`: a plain copy with nothing
# registered in .git, so it runs where `git worktree` may not be used),
# builds benchmark/ on both sides, and runs every BENCHMARK.json workload
# PAIRS times (default 10) on the parent and on the working tree, the two
# runs of a pair back to back and the side that goes first alternating from
# pair to pair. Then prints `spread` for each side and `compare parent
# change`; exits non-zero when any (metric, workload) pair reads `regress` or
# any run fails an operation.
#
# Both sides keep their stores in one directory, benchmark/out of the working
# tree (SWARM_BENCH_STORE, unless already set): two store directories on two
# paths measured as a one-sided commit-latency shift. Numbers compare on one
# box only (benchmark/README.md), so nothing here is worth committing:
# parent.jsonl, change.jsonl and compare.txt stay in target/bench-ab/.
#
# Workload names after PAIRS restrict the loop to those workloads: that is
# for iterating on a change (ten pairs of one workload are ~9 min). Only the
# full table, no names given, backs a claim or a no-regression statement.
#
#   tools/bench-ab.sh HEAD~1          # this commit against its parent, ~35 min
#   tools/bench-ab.sh HEAD            # on a clean tree, A/A: what this box cannot resolve
#   tools/bench-ab.sh HEAD 1          # dry run of the script itself, ~4 min
#   tools/bench-ab.sh HEAD~1 10 oltp  # while iterating: one workload, ~9 min, backs nothing
set -eu

die() { echo "bench-ab: $*" >&2; exit 2; }
[ $# -ge 1 ] || die "usage: tools/bench-ab.sh PARENT_REF [PAIRS] [WORKLOAD...]" \
    "(only a run with no workload named backs a claim)"
cd "$(git rev-parse --show-toplevel)"
sha=$(git rev-parse --verify --quiet "$1^{commit}") || die "cannot resolve '$1' to a commit"
pairs=${2:-10}
[ "$pairs" -ge 1 ] 2>/dev/null || die "PAIRS must be a positive number, got '$pairs'"
shift "$(($# < 2 ? $# : 2))" # what is left names workloads
workloads=$(awk '/"workloads"/ {w = 1} /"end_to_end"/ {w = 0}
                 w && /"name"/ {gsub(/[",]/, ""); print $2}' BENCHMARK.json)
for w in "$@"; do
    case " $(echo $workloads) " in *" $w "*) ;; *) die "no workload '$w' in BENCHMARK.json" ;; esac
done
if [ $# -gt 0 ]; then
    workloads=$*
    echo "== only: $workloads (a partial table backs no claim)"
fi
# Both sides must be measured by the same harness. Cargo.lock is exempt:
# cargo itself rewrites it when a crate under ../crates gains a dependency.
dirty=$(git status --porcelain -- BENCHMARK.json benchmark ':!benchmark/Cargo.lock')
[ -z "$dirty" ] || die "benchmark/ or BENCHMARK.json has uncommitted changes"

out=target/bench-ab
tree=$out/parent
cleanup() { rm -rf "$tree"; }
trap cleanup EXIT
trap 'exit 130' INT TERM
cleanup
mkdir -p "$out"
rm -f "$out/parent.jsonl" "$out/change.jsonl" "$out/compare.txt"
mkdir -p "$tree"
git archive "$sha" | tar -x -C "$tree"
export SWARM_BENCH_STORE="${SWARM_BENCH_STORE:-$PWD/benchmark/out}"

cargo build --release --offline --quiet --manifest-path "$tree/benchmark/Cargo.toml"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
parent=$tree/benchmark/target/release/swarm-benchmark
change=benchmark/target/release/swarm-benchmark

run() { # side binary workload seed
    echo "== pair $i/$pairs: $1 $3 seed $4"
    "$2" --workload "$3" --seed "$4" --seconds 15 --trace 0 --out "$out/$1.jsonl" \
        >"$out/run.log" 2>&1 || { cat "$out/run.log"; die "$1 $3 seed $4 failed"; }
}
i=1
while [ "$i" -le "$pairs" ]; do
    for w in $workloads; do
        if [ $((i % 2)) -eq 1 ]; then
            run parent "$parent" "$w" $((100 + i)); run change "$change" "$w" $((100 + i))
        else
            run change "$change" "$w" $((100 + i)); run parent "$parent" "$w" $((100 + i))
        fi
    done
    i=$((i + 1))
done

# `spread` exits non-zero on an UNSTEADY row; that is information for the
# reader (compare reads such a row as `unresolved`), not a reason to stop.
echo "== spread: parent ($sha)"
"$change" spread "$out/parent.jsonl" || true
echo "== spread: change (working tree)"
"$change" spread "$out/change.jsonl" || true
echo "== compare parent change"
rc=0
"$change" compare "$out/parent.jsonl" "$out/change.jsonl" >"$out/compare.txt" || rc=$?
cat "$out/compare.txt"
exit "$rc"
