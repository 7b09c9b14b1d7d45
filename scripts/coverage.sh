#!/bin/sh
# Coverage ratchet over every internal package and every command. Each
# group has a claim entry set — the end-to-end paths the README promises
# — run with coverage over its packages:
#
#   simulator (sim, core, ethernet, netstack, pvm, fx, faults): the
#   golden and exclusion tests in cmd/fxrepro with its paper-scale figure
#   and ablation checks (BenchmarkPaperFigures: every fxrepro block, the
#   ablations' faulted runs held to the exclusion oracle) run once, the
#   root tests, the benchmark workloads at smoke scale, and the core
#   tests that run every fault kind and feature flag;
#
#   service (server, farm, catalog, journal, durable, client):
#   scripts/serve_smoke.sh and scripts/chaos.sh against fxnetd and
#   fxload built with -cover, `fxmodel fit` cold, warm and over a warm
#   run cache, the benchmark's serve_mix at smoke scale, the fxrepro
#   goldens, the cmd/fxload, cmd/fxqos, cmd/fxfarm and cmd/fxanalyze
#   tests, the server's recovery, robustness and degraded-mode tests,
#   and the client's flaky-peer tests;
#
#   analysis (trace, analysis, dsp, stats, model, kernels, airshed,
#   linalg, fxc, qos, media, profiling, version): every run above, plus
#   the README's analysis commands against binaries built with -cover —
#   fxrun in bin, text and report formats, a -faults run, an airshed
#   -hours run and a 2dfft run at a non-power-of-two -n, fxanalyze's
#   five trace modes on a binary and on a text trace, its model of the
#   binary one and its stats of the fault run (marks decoded), a crashed
#   and a bridged fxrun, fxqos from the registry and from the fitted
#   catalog, fxcompile on the dialect's listing, -version and the
#   profiling flags (the root tests above run the five examples);
#
#   front end (the nine commands under cmd/): the fxrepro and cmd/ tests
#   and every binary run above, plus the README lines no other group
#   needs — the fxrepro binary at -tiny with -csvdir, `fxmodel ls` as a
#   table and as JSON, fxload with -zipf and -json (in serve_smoke.sh),
#   the fxfarm bit-rate sweep — and fxcompile reading stdin.
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
front=./cmd/...
ana=./internal/trace,./internal/analysis,./internal/dsp,./internal/stats,./internal/model,./internal/kernels,./internal/airshed,./internal/linalg,./internal/fxc,./internal/qos,./internal/media,./internal/profiling,./internal/version
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT

# run executes one step, showing its output only if it fails. (go warns
# when a -coverpkg package is outside a test binary's imports; that is
# expected here.)
run() {
	"$@" >"$dir/step.log" 2>&1 || { cat "$dir/step.log"; exit 1; }
}

# -cpu 2: sim.Engine runs its partitions on helpers only when
# GOMAXPROCS > 1, so a one-core host would otherwise leave the parallel
# executor (60 statements of sim) unrun.
run go test -count=1 -cpu 2 -coverpkg=$sim,$svc,$ana,$front -coverprofile="$dir/repro.out" ./cmd/fxrepro \
	-run . -bench PaperFigures -benchtime 1x
run go test -count=1 -cpu 2 -coverpkg=$sim,$ana -coverprofile="$dir/root.out" . -run .
run go test -count=1 -coverpkg=$sim,$svc,$ana -coverprofile="$dir/bench.out" ./bench -run TestSmoke
run go test -count=1 -coverpkg=$sim,$ana -coverprofile="$dir/core.out" ./internal/core \
	-run 'Fault|Crash|Degrade|Stall|Switched|Guarantee|CrossTraffic|Nagle|FrameLoss'

run go test -count=1 -coverpkg=$svc,$ana,$front -coverprofile="$dir/cmd.out" ./cmd/fxload ./cmd/fxqos ./cmd/fxfarm ./cmd/fxanalyze
run go test -count=1 -coverpkg=$svc,$ana -coverprofile="$dir/server.out" ./internal/server \
	-run 'LeavesNoTrace|Recover|Restore|Sigterm|Disconnect|ConcurrentKeyed|FullDisk|FullCache|Corrupt|Fsync|Traversal|SurvivesOnDisk|Breaker|Shed|Readyz|Drain|Throttle'
run go test -count=1 -coverpkg=$svc,$ana -coverprofile="$dir/client.out" ./internal/client \
	-run 'Disconnect|LostResponse|SlowPeer|RetryAfterClamp|FlakySequence'
# The binaries the smoke scripts and the fit runs build write their
# counters into GOCOVERDIR at exit (a SIGKILLed daemon writes none; the
# chaos run's last boot drains and exits). Instrumenting the commands
# too is what makes a binary emit counters at all.
mkdir "$dir/cov"
for script in serve_smoke chaos; do
	run env GOFLAGS="-cover -coverpkg=$front,$svc,$ana" GOCOVERDIR="$dir/cov" ./scripts/$script.sh
done
mkdir "$dir/bin"
run go build -cover -coverpkg=$front,$svc,$ana -o "$dir/bin/" \
	./cmd/fxrun ./cmd/fxanalyze ./cmd/fxmodel ./cmd/fxqos ./cmd/fxcompile ./cmd/fxrepro ./cmd/fxfarm
export GOCOVERDIR="$dir/cov"
cmd() { run "$dir/bin/$@"; }
# fxmodel fit three times: cold (simulate and fit), warm (catalog
# lookup), and into a second catalog over the warm run cache (fit only).
for models in models models models2; do
	cmd fxmodel fit -catalog "$dir/$models" -cache "$dir/cache" -programs sor,seq -p 2
done
# The README's analysis commands. -n 96 is not a power of two, so the
# row FFTs take Bluestein's path.
cmd fxrun -program 2dfft -o "$dir/fft.trace"
cmd fxrun -program 2dfft -format text -o "$dir/fft.txt"
cmd fxrun -program 2dfft -format report -o "$dir/fft.json"
cmd fxrun -program sor -faults "5s:linkdown host2,7s:linkup host2" -o "$dir/flap.trace"
cmd fxrun -program airshed -hours 3 -format report -o "$dir/air.json"
cmd fxrun -program 2dfft -n 96 -o "$dir/odd.trace"
# A crash the survivors abort on, and a bridged topology under each
# engine schedule.
cmd fxrun -program 2dfft -faults "20s:crash host2" -o "$dir/crash.trace"
for m in serial parallel; do
	cmd fxrun -program sor -topology lan0:0-1,lan1:2-3 -pdes $m -o "$dir/two.$m.trace"
done
for in in fft.trace fft.txt; do
	for mode in stats bandwidth spectrum report connections; do
		cmd fxanalyze -in "$dir/$in" -mode $mode
	done
done
cmd fxanalyze -in "$dir/flap.trace" -mode stats
cmd fxanalyze -in "$dir/fft.trace" -mode model -peaks 16
cmd fxmodel ls -catalog "$dir/models" -program sor
cmd fxmodel ls -catalog "$dir/models" -program sor -json
cmd fxrepro -tiny -csvdir "$dir/csv"
cmd fxfarm -programs 2dfft -bitrates 10e6,40e6,100e6 -json "$dir/sweep.json"
cmd fxqos -capacity 1.25e6
cmd fxqos -catalog "$dir/models"
# Every statement kind of the dialect (internal/fxc/parse.go's listing,
# with a full-size serial input that broadcasts), a transpose, a local copy.
cat >"$dir/program.fx" <<'EOF'
array  a(512,512) real*8 block(rows)
array  b(512,512) real*8 block(rows)
array  c(512,512) real*8 block(cols)
array  in(512,512) real*8 serial
assign c(i,j) = a(i,j)
assign a(i,j) = a(i-1,j)
assign a(i,j) = in(i,j)
assign b(i,j) = a(j,i)
assign b(i,j) = a(i,j)
reduce a 2048
EOF
cmd fxcompile -p 4 "$dir/program.fx"
cmd fxcompile -p 8 <"$dir/program.fx"
# Every binary's -version, and the profiling flags DESIGN.md §8 uses.
for b in "$dir"/bin/*; do cmd "${b##*/}" -version; done
cmd fxanalyze -in "$dir/fft.trace" -mode stats \
	-cpuprofile "$dir/cpu.pprof" -memprofile "$dir/mem.pprof" -trace "$dir/exec.trace"
unset GOCOVERDIR
run go tool covdata textfmt -i "$dir/cov" -o "$dir/procs.out" -pkg "$(echo $front,$svc,$ana | sed 's|\./|fxnet/|g')"

# Per-package budget: uncovered statements under the entry sets above
# (a command counts as its directory's name).
# Lower a number when a change deletes or covers code; never raise one.
# What stays uncovered is an input refusal, a returned error, an I/O or
# fsync failure, a corruption or recovery path, or synchronisation, and,
# beyond those:
#   ethernet  MAC broadcast, which no run sends (DESIGN.md §3);
#   catalog   the listing's tie-break on key, a switched fit's codec bit,
#             a zero-traffic fit's relative error;
#   client    the nil-HTTP and zero-interval defaults, the backoff clamp;
#   journal   Op.String for an op a newer build wrote;
#   server    the breaker's open/half-open metric labels, the model
#             listing's filters, NDJSON flushes past 8192 records, and
#             /healthz's "starting" during replay;
#   dsp       the twiddle table's lost compare-and-swap;
#   fxc       the partition class (a user's program reaches it; no
#             kernel's statement is one);
#   kernels   T2DFFT's one-row fragment clamp (N > 512 per receiver);
#   stats     Quantile's end clamps, the Hurst estimator's degenerate
#             scales;
#   version   the VCS revision and dirty marker, stamped only in a git
#             checkout: 2-3 uncovered there, 8 outside one, the budget;
#   cmd/      an error exit or a refusal and nothing else: a flag, list or
#             file refused, an I/O, profile, run or catalog error,
#             fxqos's REJECTED admission row, fxload's error and 429
#             counts and a failed or partial /metrics scrape, a signal
#             during fxnetd's journal replay, and -replay's torn-tail
#             report (a crash-cut journal).
cat >"$dir/budget" <<'EOF'
core 76
ethernet 33
faults 26
fx 28
netstack 32
pvm 29
sim 36
catalog 45
client 19
durable 18
farm 31
journal 14
server 98
airshed 4
analysis 6
dsp 2
fxc 46
kernels 8
linalg 12
media 0
model 4
profiling 10
qos 12
stats 19
trace 57
version 8
fxanalyze 11
fxcompile 3
fxfarm 20
fxload 16
fxmodel 8
fxnetd 16
fxqos 7
fxrepro 10
fxrun 11
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
