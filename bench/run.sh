#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload:
#
#   bash bench/run.sh --workload racy-16p --seed 1 --seconds 25 --trace 0
#
# Run it from the repository root. Everything the build and the run write
# (Go build cache, binary, trace file) stays under $CARGO_TARGET_DIR,
# default .bench_build. With --trace 1 the run reports the per-layer
# metrics and writes a Chrome trace there. The last line of standard
# output is one JSON object: correct, attempted, failed, metrics.
set -euo pipefail

workload= seed=1 seconds=25 traced=0
while [ $# -gt 0 ]; do
	case $1 in
	--workload) workload=$2 ;;
	--seed) seed=$2 ;;
	--seconds) seconds=$2 ;;
	--trace) traced=$2 ;;
	*) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
	esac
	shift 2
done
[ -n "$workload" ] || { echo "run.sh: --workload is required" >&2; exit 2; }

out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$PWD/$out ;; esac
mkdir -p "$out/tmp" "$out/config"
export GOCACHE=$out/gocache GOMODCACHE=$out/gomod GOPATH=$out/gopath GOTMPDIR=$out/tmp \
	TMPDIR=$out/tmp XDG_CONFIG_HOME=$out/config \
	GOFLAGS=-buildvcs=false GOPROXY=off GOWORK=off GOTOOLCHAIN=local

(cd bench && go build -o "$out/pacifier-bench" .)

args=(-workload "$workload" -seed "$seed" -seconds "$seconds")
if [ "$traced" = 1 ]; then
	args+=(-trace "$out/trace-$workload-$seed.json")
fi
exec "$out/pacifier-bench" "${args[@]}"
