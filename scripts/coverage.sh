#!/bin/sh
# Coverage ratchet over both halves of the tree. Each half has a claim
# entry set — the end-to-end paths the README promises — run with
# coverage over its packages:
#
#   simulator (sim, core, ethernet, netstack, pvm, fx, faults): the
#   golden and exclusion tests in cmd/fxrepro, the root figure tests and
#   paper ablations, the benchmark workloads at smoke scale, and the core
#   tests that run every fault kind and feature flag;
#
#   service (server, farm, catalog, journal, durable, client):
#   scripts/serve_smoke.sh and scripts/chaos.sh against fxnetd and
#   fxload built with -cover, `fxmodel fit` cold and warm, the
#   benchmark's serve_mix at smoke scale, the fxrepro goldens, the
#   cmd/fxload, cmd/fxqos and cmd/fxfarm tests, the server's recovery,
#   robustness and degraded-mode tests, and the client's flaky-peer
#   tests.
#
# A block counts as covered if any run hits it. The uncovered blocks are
# printed, and the script fails if any package's uncovered statement
# count rises above its budget below: code that only its own unit tests
# reach does not come back.
#
# Usage: scripts/coverage.sh [-budget]
#   -budget  print the per-package counts in budget form and exit 0.
set -eu

cd "$(dirname "$0")/.."

sim=./internal/sim,./internal/core,./internal/ethernet,./internal/netstack,./internal/pvm,./internal/fx,./internal/faults
svc=./internal/server,./internal/farm,./internal/catalog,./internal/journal,./internal/durable,./internal/client
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT

# run executes one step, showing its output only if it fails. (go warns
# when a -coverpkg package is outside a test binary's imports; that is
# expected here.)
run() {
	"$@" >"$dir/step.log" 2>&1 || { cat "$dir/step.log"; exit 1; }
}

run go test -count=1 -coverpkg=$sim,$svc -coverprofile="$dir/repro.out" ./cmd/fxrepro
run go test -count=1 -coverpkg=$sim -coverprofile="$dir/root.out" . -run . -bench Ablation -benchtime 1x
run go test -count=1 -coverpkg=$sim,$svc -coverprofile="$dir/bench.out" ./bench -run TestSmoke
run go test -count=1 -coverpkg=$sim -coverprofile="$dir/core.out" ./internal/core \
	-run 'Fault|Crash|Degrade|Stall|Switched|Guarantee|CrossTraffic|Nagle|FrameLoss'

run go test -count=1 -coverpkg=$svc -coverprofile="$dir/cmd.out" ./cmd/fxload ./cmd/fxqos ./cmd/fxfarm
run go test -count=1 -coverpkg=$svc -coverprofile="$dir/server.out" ./internal/server \
	-run 'LeavesNoTrace|Recover|Restore|Sigterm|Disconnect|ConcurrentKeyed|FullDisk|FullCache|Corrupt|Fsync|Traversal|SurvivesOnDisk|Breaker|Shed|Readyz|Drain|Throttle'
run go test -count=1 -coverpkg=$svc -coverprofile="$dir/client.out" ./internal/client \
	-run 'Disconnect|LostResponse|SlowPeer|RetryAfterClamp|FlakySequence'
# The binaries the smoke scripts and the fit runs build write their
# counters into GOCOVERDIR at exit (a SIGKILLed daemon writes none; the
# chaos run's last boot drains and exits). Instrumenting the commands
# too is what makes a binary emit counters at all.
mkdir "$dir/cov"
for script in serve_smoke chaos; do
	run env GOFLAGS="-cover -coverpkg=./cmd/...,$svc" GOCOVERDIR="$dir/cov" ./scripts/$script.sh
done
# fxmodel fit twice: cold (simulate and fit), then warm (catalog lookup).
run go build -cover -coverpkg=./cmd/fxmodel,$svc -o "$dir/fxmodel" ./cmd/fxmodel
for fit in cold warm; do
	run env GOCOVERDIR="$dir/cov" "$dir/fxmodel" fit -catalog "$dir/models" -cache "$dir/cache" -programs sor -p 2
done
run go tool covdata textfmt -i "$dir/cov" -o "$dir/procs.out" -pkg "$(echo $svc | sed 's|\./|fxnet/|g')"

# Per-package budget: uncovered statements under the entry sets above.
# Lower a number when a change deletes or covers code; never raise one.
# What stays uncovered is an input refusal, a returned error, an I/O or
# fsync failure, a corruption or recovery path, or synchronisation, and,
# beyond those:
#   ethernet  MAC broadcast, which no run sends (DESIGN.md §3);
#   catalog   the listing's tie-break on key, a switched fit's codec bit,
#             a zero-traffic fit's relative error;
#   client    the nil-HTTP and zero-interval defaults, the backoff clamp;
#   farm      a cost-model override in the key (every RunConfig field is
#             hashed, and only the figure tests set Cost);
#   journal   Op.String for an op a newer build wrote;
#   server    the breaker's open/half-open metric labels, the model
#             listing's filters, NDJSON flushes past 8192 records, and
#             /healthz's "starting" during replay.
cat >"$dir/budget" <<'EOF'
core 77
ethernet 33
faults 28
fx 38
netstack 32
pvm 29
sim 37
catalog 46
client 19
durable 18
farm 41
journal 14
server 98
EOF

mode=check
if [ "${1:-}" = -budget ]; then mode=budget; fi

# Profile lines are "file:start.col,end.col stmts count"; merge the
# runs block by block, keeping a block covered if any run hit it.
cat "$dir"/*.out | awk -v mode=$mode -v budget="$dir/budget" '
/^mode:/ { next }
{
	blk = $1; stmts[blk] = $2
	if ($3 > 0) hit[blk] = 1
}
END {
	while ((getline line < budget) > 0) { split(line, f, " "); order[++npkg] = f[1]; limit[f[1]] = f[2] }
	for (b in stmts) {
		split(b, p, ":"); n = split(p[1], d, "/"); pkg = d[n-1]
		total[pkg] += stmts[b]
		if (!(b in hit)) {
			miss[pkg] += stmts[b]
			if (mode == "check") print "uncovered: " b " (" stmts[b] " stmts)" | "sort -t: -k1,1 -k2n"
		}
	}
	close("sort -t: -k1,1 -k2n")
	for (pkg in total) if (!(pkg in limit)) order[++npkg] = pkg
	fail = 0; all = 0; alltot = 0
	for (i = 1; i <= npkg; i++) {
		pkg = order[i]; all += miss[pkg]; alltot += total[pkg]
		if (mode == "budget") { printf "%s %d\n", pkg, miss[pkg]; continue }
		printf "coverage: %-9s %4d/%4d uncovered (budget %s)\n", pkg, miss[pkg], total[pkg], (pkg in limit) ? limit[pkg] : "none"
		if (!(pkg in limit) || miss[pkg] > limit[pkg]) { print "coverage: " pkg " is over its budget"; fail = 1 }
	}
	if (mode == "check") printf "coverage: total     %4d/%4d uncovered\n", all, alltot
	exit fail && mode == "check"
}'
