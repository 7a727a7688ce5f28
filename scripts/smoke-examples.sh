#!/usr/bin/env bash
# Smoke-test the runnable examples: build every example (the gob-era
# examples/cluster is gone with its runtime; distributed covers every smoke it
# had), then actually run
# the fast ones (quickstart: scheduling only; library: the public matmul
# facade driving all three runtimes bitwise-identically plus a mid-transfer
# cancellation; distributed: a real TCP master-worker round trip on
# loopback, both low-level loops and the facade; serve: an mmserve daemon
# over a persistent 4-worker fleet running two concurrent facade submissions
# plus a post-crash job; elastic: a worker crashing mid-job and another
# joining mid-job under the elastic policy — every C verified bitwise
# against the in-process engine) and fail on any non-zero exit.
#
# Every example runs under timeout(1): a deadlocked example fails the job in
# minutes with exit 124 instead of wedging CI until the 6-hour job timeout.
set -euo pipefail
cd "$(dirname "$0")/.."

# Per-example wall budget, seconds. The examples finish in seconds; the
# budget only caps a hang, so it is generous enough for a slow CI runner.
BUDGET="${SMOKE_TIMEOUT:-180}"

run_example() {
	local name="$1" status=0 out
	shift
	echo "== go run ./examples/$name (budget ${BUDGET}s)"
	out="$(mktemp)"
	# -k gives a wedged process 10s to die on TERM before the KILL.
	timeout -k 10 "$BUDGET" go run "./examples/$name" 2>&1 | tee "$out" || status=$?
	if [ "$status" -eq 124 ]; then
		echo "FAIL: examples/$name hung past ${BUDGET}s (likely deadlock)" >&2
		exit "$status"
	elif [ "$status" -ne 0 ]; then
		echo "FAIL: examples/$name exited with status $status" >&2
		exit "$status"
	fi
	# Any extra args are lines the example's output must contain (the serve
	# example self-scrapes its /metrics and /healthz debug endpoints and
	# prints this marker only when both answered 200 with every family).
	local marker
	for marker in "$@"; do
		if ! grep -qF "$marker" "$out"; then
			echo "FAIL: examples/$name output is missing: $marker" >&2
			rm -f "$out"
			exit 1
		fi
	done
	rm -f "$out"
}

echo "== go build ./examples/..."
go build ./examples/...

run_example quickstart
run_example library
run_example distributed
run_example serve "observability scrape OK: /healthz 200, /metrics families present ✓"
run_example elastic

echo "examples smoke OK"
