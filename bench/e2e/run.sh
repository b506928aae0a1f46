#!/usr/bin/env bash
# Builds bench/e2e (Release, into build-e2e/ at the repository root) and
# runs the end-to-end benchmark, one process per workload.
#
#   bench/e2e/run.sh [--seed=S] [--workloads=a,b] [--traced] [--smoke]
#                    [--seconds=T] [--out=DIR]
#   bench/e2e/run.sh --workload W --seed S --seconds T --trace 0|1
#
# Flags take either --key=value or --key value. Defaults: seed 1, all four
# workloads, untraced, 20 s timed phases, out dir build-e2e/out. Each
# workload writes DIR/result_<w>.json (and DIR/trace_<w>.json when
# traced); DIR/results.json collects them. The last line printed is the
# last workload's one-line JSON result. Exits non-zero when the build
# fails or any workload's answers do not check out.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
cd "$root"

seed=1
seconds=20
trace=0
smoke=
workloads=batch_scaling,serve_read,serve_mixed,serve_unique
out=build-e2e/out

while [[ $# -gt 0 ]]; do
  arg="$1"
  shift
  case "$arg" in
    --traced) trace=1; continue ;;
    --smoke) smoke=--smoke; continue ;;
    --*=*) key="${arg%%=*}"; value="${arg#*=}" ;;
    --*)
      [[ $# -gt 0 ]] || { echo "run.sh: $arg needs a value" >&2; exit 2; }
      key="$arg"; value="$1"; shift ;;
    *) echo "run.sh: unexpected argument $arg" >&2; exit 2 ;;
  esac
  case "$key" in
    --seed) seed="$value" ;;
    --seconds) seconds="$value" ;;
    --trace) trace="$value" ;;
    --workload|--workloads) workloads="$value" ;;
    --out) out="$value" ;;
    *) echo "run.sh: unknown flag $key" >&2; exit 2 ;;
  esac
done

# Build output goes to stderr so the result line stays last on stdout.
generator=()
if command -v ninja > /dev/null; then generator=(-G Ninja); fi
cmake -S bench/e2e -B build-e2e "${generator[@]}" -DCMAKE_BUILD_TYPE=Release >&2
cmake --build build-e2e -j 4 >&2

# The ceiling keeps git from searching above the checkout.
commit="$(GIT_CEILING_DIRECTORIES="$(dirname "$root")" \
  git rev-parse --short HEAD 2> /dev/null || echo unknown)"
mkdir -p "$out"
# A hung run is killed rather than left behind. A traced run times two
# phases of (1.1 x seconds) each; the rest covers set-up and checks.
limit="$(awk -v s="$seconds" 'BEGIN { printf "%d", 3 * s + 60 }')"
status=0
results=()
IFS=, read -r -a list <<< "$workloads"
for w in "${list[@]}"; do
  rm -f "$out/result_$w.json"
  timeout --kill-after=10 "$limit" build-e2e/skybench_e2e --workload="$w" \
    --seed="$seed" --seconds="$seconds" --trace="$trace" $smoke \
    --out="$out" --commit="$commit" || status=1
  if [[ -f "$out/result_$w.json" ]]; then
    results+=("\"$w\": $(cat "$out/result_$w.json")")
  fi
done

{
  printf '{"seed": %s, "workloads": {' "$seed"
  (IFS=,; printf '%s' "${results[*]}")
  printf '}}\n'
} > "$out/results.json"
exit "$status"
