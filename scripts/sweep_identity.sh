#!/usr/bin/env bash
# Byte-identity of one journaled sweep across execution modes.
#
# Runs the sweep sequentially, with --jobs 2, and resumed with --jobs 2
# from the journal of a killed run, then diffs the stdout and --output
# JSON of the last two against the sequential run's. Metrics are off:
# the --output document embeds the metrics snapshot, whose timing
# histograms depend on the wall clock; without them the document is
# fully deterministic.
#
# The killed run is a subset of the plan (sdc, sdc-memory,
# lookup-sweep), or, for table1, which has no subset flag, a full
# journaled run torn in the middle of its fifth record.
#
# usage: scripts/sweep_identity.sh table1|sdc|sdc-memory|lookup-sweep [DIR]
set -euo pipefail

usage="usage: $0 table1|sdc|sdc-memory|lookup-sweep [DIR]"
kind=${1:?$usage}
dir=${2:-sweep-identity-$kind}
root=$(cd "$(dirname "$0")/.." && pwd)
export PYTHONPATH="$root/src${PYTHONPATH:+:$PYTHONPATH}"
export REPRO_NO_METRICS=1

cli() { python -m repro.cli "$@"; }

killed=()
case "$kind" in
  table1)
    args=(table1 --entries 40 --packets 6) ;;
  sdc)
    args=(sdc --table sequential --buses 1 2 --trials 2 --seed 3)
    killed=(sdc --table sequential --buses 1 --trials 2 --seed 3) ;;
  sdc-memory)
    args=(sdc --prefixes 80 --lookups 40 --trials 2 --seed 7)
    killed=("${args[@]}" --table sequential --table balanced-tree) ;;
  lookup-sweep)
    args=(lookup-sweep --prefixes 100 1000 --lookups 200)
    killed=(lookup-sweep --kind sequential --kind cam
            --prefixes 100 1000 --lookups 200) ;;
  *)
    echo "$usage" >&2
    exit 2 ;;
esac

mkdir -p "$dir"
cd "$dir"

cli "${args[@]}" --output seq.json > seq.txt
cli "${args[@]}" --jobs 2 --output par.json > par.txt
diff seq.txt par.txt
diff seq.json par.json

if ((${#killed[@]})); then
  cli "${killed[@]}" --journal killed.jsonl > /dev/null
else
  cli "${args[@]}" --journal full.jsonl > /dev/null
  { head -n 4 full.jsonl; sed -n 5p full.jsonl | head -c 40; } \
    > killed.jsonl
fi
cli "${args[@]}" --journal killed.jsonl --resume --jobs 2 \
  --output resumed.json > resumed.txt
diff seq.txt resumed.txt
diff seq.json resumed.json

echo "$kind: sequential, --jobs 2 and resumed runs are byte-identical"
