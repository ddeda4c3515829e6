#!/usr/bin/env bash
# Same-host A/B of the benchmark: a base commit against the working tree.
#
#   perfbench/ab.sh <base-commit> [--pairs N] [--seconds S] [--scratch DIR]
#                   [workload ...]
#
# Exports the base commit into a scratch directory, gives it this tree's
# perfbench/ and BENCHMARK.json (both sides run identical benchmark code and
# settings), builds each side in its own build directory under DIR, then
# runs N >= 10 base/head pairs per workload with a fresh seed per pair,
# alternating which side runs first. The per-pair
# result lines are kept in DIR/results.jsonl, and ab_report.py prints each
# end-to-end metric's median, quartiles, head/base ratio and the head's win
# fraction per workload. Defaults: 10 pairs, BENCHMARK.json's run_seconds,
# every workload, a fresh mktemp directory.
set -euo pipefail

usage() {
  echo "usage: $0 <base-commit> [--pairs N] [--seconds S] [--scratch DIR] [workload ...]" >&2
  exit 2
}

root=$(cd "$(dirname "$0")/.." && pwd)
[[ $# -ge 1 ]] || usage
base=$1
shift
pairs=10
seconds=$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["run_seconds"])' "$root/BENCHMARK.json")
scratch=""
workloads=()
while [[ $# -gt 0 ]]; do
  case $1 in
    --pairs) pairs=$2; shift 2 ;;
    --seconds) seconds=$2; shift 2 ;;
    --scratch) scratch=$2; shift 2 ;;
    -*) usage ;;
    *) workloads+=("$1"); shift ;;
  esac
done
if [[ ${#workloads[@]} -eq 0 ]]; then
  mapfile -t workloads < <(python3 -c 'import json,sys; [print(w["name"]) for w in json.load(open(sys.argv[1]))["workloads"]]' "$root/BENCHMARK.json")
fi
[[ $pairs -ge 10 ]] || { echo "ab.sh: at least 10 pairs are needed" >&2; exit 2; }
scratch=${scratch:-$(mktemp -d -t faircache-ab.XXXXXX)}
mkdir -p "$scratch"
scratch=$(cd "$scratch" && pwd)

base_dir=$scratch/base
rm -rf "$base_dir"
mkdir -p "$base_dir"
git -C "$root" archive "$base" | tar -x -C "$base_dir"
rm -rf "$base_dir/perfbench"
cp -r "$root/perfbench" "$base_dir/perfbench"
cp "$root/BENCHMARK.json" "$base_dir/BENCHMARK.json"

echo "ab.sh: base $(git -C "$root" rev-parse "$base") in $base_dir" >&2
echo "ab.sh: head = working tree of $root" >&2

# Runs run.py on one side. Each side gets its own build directory, so
# neither can pick up the other's CMake cache and binary.
bench() {
  local side=$1
  shift
  local dir=$root
  [[ $side == base ]] && dir=$base_dir
  (cd "$dir" && CARGO_TARGET_DIR="$scratch/$side-build" python3 perfbench/run.py "$@")
}
bench base --build-only
bench head --build-only

results=$scratch/results.jsonl
: > "$results"
for ((pair = 0; pair < pairs; pair++)); do
  seed=$((1000 + pair))
  for workload in "${workloads[@]}"; do
    if ((pair % 2 == 0)); then order=(base head); else order=(head base); fi
    for side in "${order[@]}"; do
      line=$(bench "$side" --workload "$workload" --seed "$seed" \
        --seconds "$seconds" --trace 0 | tail -n 1) || true
      python3 - "$pair" "$side" "$workload" "$line" >> "$results" <<'EOF'
import json, sys
pair, side, workload, line = sys.argv[1:5]
try:
    result = json.loads(line)
except ValueError:
    result = None
print(json.dumps({"pair": int(pair), "side": side, "workload": workload,
                  "result": result}))
EOF
      echo "ab.sh: pair $((pair + 1))/$pairs $workload $side done" >&2
    done
  done
done

python3 "$root/perfbench/ab_report.py" "$root/BENCHMARK.json" "$results"
