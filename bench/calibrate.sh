#!/bin/sh
# Records one result set: every workload under each of the given seeds, each
# run a fresh process, appended to the file as one JSON line per run.
#
#   sh bench/calibrate.sh bench/results/calibration-a.json 1 2 3 4 5 6 7 8 9 10
set -eu
out=$1
shift
here=$(dirname "$0")
for seed in "$@"; do
	for workload in mcast_stream mcast_bulk churn_paced kv_mixed; do
		sh "$here/run.sh" --workload "$workload" --seed "$seed" --seconds "${SECONDS_PER_RUN:-20}" --trace 0 --record "$out" >/dev/null
	done
done
