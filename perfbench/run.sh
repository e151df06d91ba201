#!/usr/bin/env bash
# Builds the benchmark from the source in the current directory (the
# root of a checkout of this repository) and runs it with the given
# arguments, e.g.
#
#   bash perfbench/run.sh --workload suite-quasi --seed 1 --seconds 25 --trace 0
#
# `--workload all` runs every workload in turn, each in its own process.
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOFLAGS=-buildvcs=false GOWORK=off GOTOOLCHAIN=local GOPROXY=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)

args=("$@")
for ((i = 0; i < ${#args[@]}; i++)); do
	if [[ ${args[i]} == --workload && ${args[i + 1]:-} == all ]]; then
		status=0
		for w in suite-quasi rpr-sharded serve-mixed; do
			args[i + 1]=$w
			"$out/perfbench" "${args[@]}" || status=1
		done
		exit $status
	fi
done
exec "$out/perfbench" "$@"
