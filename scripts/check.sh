#!/bin/sh
# Tier-1 verification: build, vet, full test suite, and the race detector
# over every package — the experiment farm runs simulations concurrently,
# so the whole tree must be race-clean, not just the DES core.
set -eux

cd "$(dirname "$0")/.."

# One durable store: a hand-rolled temp+rename outside internal/durable,
# or another directory-fsync helper, is a fourth store coming back.
if grep -rn 'os\.Rename(\|os\.CreateTemp(' --include='*.go' internal cmd | grep -v '_test\.go:' | grep -v '^internal/durable/'; then exit 1; fi
if grep -rn 'func syncDir' --include='*.go' internal cmd bench ./*.go; then exit 1; fi

# One dispatch and one allocation per message: the TCP header rides in
# the frame by value (no boxed Frame.Opaque), and a PVM reader is an
# event-context parser, not a process (no second dispatch per message).
if grep -n 'Opaque' internal/ethernet/*.go internal/netstack/*.go | grep -v '_test\.go:'; then exit 1; fi
if grep -n '\.Go(.*reader\|func.*readLoop' internal/pvm/*.go | grep -v '_test\.go:'; then exit 1; fi

# One benchmark: performance numbers come from `go run ./bench` →
# BENCHMARK.json, and every invariant is a Go test or a smoke script run
# from here. The one tracked result is ./BENCH_head.json, the output of
# `go run ./bench -repeat 5 -out BENCH_head.json` at the head that
# committed it; any other BENCH_*.json at the root or beside this
# script, or a bench*.sh, is a second emitter coming back.
if find . scripts -maxdepth 1 \( -name 'BENCH_*.json' -o -name 'bench*.sh' \) | grep -vx './BENCH_head.json' | grep .; then exit 1; fi

# One packet representation: a trace is its columnar chunks (DESIGN.md
# §10 "Columnar layout"). A []Packet field on trace.Trace is a second
# copy of every capture coming back.
if awk '/^type Trace struct/,/^}/' $(find internal/trace -name '*.go' ! -name '*_test.go') | grep '\[\]\*\?Packet'; then exit 1; fi

# One characterizer: every Report comes out of StreamCharacterizer.Report()
# (fed live, by Observe, or by CharacterizeTrace's replay). The batch
# statistics live on only as the oracle in internal/analysis/*_test.go;
# a non-test definition, a CLI flag that picks a pipeline, or a caller of
# the pool entry points (bench/ keeps the CharacterizeTracePool alias
# alive until its own PR) is the second path coming back.
if grep -n 'func ConnectionCorrelation\|func PhaseCoincidence\|func ModeCount' internal/analysis/*.go | grep -v '_test\.go:'; then exit 1; fi
if grep -rn 'flag\.[A-Za-z0-9]*("analysis"' --include='*.go' cmd; then exit 1; fi
if grep -rn 'CharacterizeTracePool\|CharacterizePool' --include='*.go' . | grep -v '^\./bench/' | grep -v '^\./internal/analysis/report\.go:'; then exit 1; fi

# One command surface: fxfarm is the only batch runner, the §7.3 laws and
# their calibrated rates are written once (internal/kernels; 12.5e6 is a
# capacity, not a rate) — not in cmd/ or internal/, nor in any root Go
# file, tests and examples included — and one float type renders NaN/Inf
# as JSON null.
if [ -e cmd/fxsweep ]; then exit 1; fi
rates='38500\|8\.4e6\|2\.5e6\|364000'
if grep -rnw "$rates" --include='*.go' cmd internal | grep -v '_test\.go:' | grep -v '^internal/kernels/'; then exit 1; fi
if grep -nw "$rates" ./*.go; then exit 1; fi
if grep -rn 'func ([a-z]* \*\?\w*[Ff]loat\w*) MarshalJSON' --include='*.go' . | grep -v '^\./internal/catalog/json\.go:'; then exit 1; fi

# One metric table: /metrics text is formatted only by the family table
# in internal/server/metrics.go. The five server options nobody set
# (-cluster-route, -cluster-capacity, the journal's no-sync, the
# breaker's two tunables) stay gone, flags included.
if grep -rn '# HELP fxnetd_\|# TYPE fxnetd_' --include='*.go' . | grep -v '_test\.go:' | grep -v '^\./internal/server/metrics\.go:'; then exit 1; fi
if grep -rnE 'ClusterRoute|RouteOff|ClusterCapacityBps|JournalNoSync|BreakerThreshold|NoSync +bool' --include='*.go' . | grep -v '_test\.go:'; then exit 1; fi

# One node: the sharded cluster is deleted (DESIGN.md §8, tracking rows
# 16–17). A cluster package, a -cluster-* flag, a ring, ledger or
# peer-cache route, or the farm's peer-fetch tier is it coming back.
if [ -e internal/cluster ]; then exit 1; fi
if grep -rn '"cluster-' --include='*.go' cmd; then exit 1; fi
if grep -rnE '/v1/(cluster|cache)/' --include='*.go' . | grep -v '_test\.go:'; then exit 1; fi
if grep -rnE 'PeerFetch|InstallRaw' --include='*.go' . | grep -v '_test\.go:'; then exit 1; fi

# One twiddle table: every radix-2 transform reads the table of the
# largest size seen (DESIGN.md §8 "Packed real FFT"). A sync.Map or a
# stored bit-reversal permutation in internal/dsp is a plan per size,
# state growing with every size a run transforms, coming back.
if grep -n 'sync\.Map\|perm  *\[\]int32' internal/dsp/*.go | grep -v '_test\.go:'; then exit 1; fi

# One pair kernel: stats.MeanPairwisePearson is the only exported
# pairwise entry point (DESIGN.md §10 "Pair statistics"); a second one
# is a kernel nobody holds to the naive fold. It is the fold below the
# identity rule and one O(K·n) pass above it, on the calling goroutine:
# an assembly file, a go statement or a sync or runtime import in
# internal/stats is the tile, its workers or their scratch coming back.
if grep -n '^func [A-Z][A-Za-z0-9]*Pairwise' internal/stats/*.go | grep -v '_test\.go:' | grep -v 'func MeanPairwisePearson('; then exit 1; fi
if ls internal/stats/*.s 2>/dev/null; then exit 1; fi
if grep -nE '^[[:space:]]*go[[:space:]]|[[:space:]]go func' internal/stats/*.go | grep -v '_test\.go:'; then exit 1; fi
if grep -nE '^[[:space:]]*(import[[:space:]]+)?"(sync|sync/atomic|runtime)"' internal/stats/*.go | grep -v '_test\.go:'; then exit 1; fi

# One report encoder: farm.MarshalReport appends the report JSON and is
# held byte for byte to json.Marshal over the reportJSON mirror (DESIGN.md
# §7 "Cache entry"), which lives on only as the oracle in
# internal/farm's tests; decoding still reads the mirror. A reportJSON
# literal or a json.Marshal of one in non-test farm code is the
# reflective encoder coming back.
if grep -n 'json\.Marshal(&\?reportJSON\|reportJSON{' internal/farm/*.go | grep -v '_test\.go:'; then exit 1; fi

# One way in: the fxnet façade is the surface the examples and the README
# write. A command that imports it, or an example that reaches the same
# code through both the façade and internal/, is a second route back.
if grep -rn '"fxnet"' cmd; then exit 1; fi
if grep -n '"fxnet/internal/' example_test.go; then exit 1; fi

# A minimal stack: the RunConfig fields, collectives, gate deadline and
# TCP teardown that no figure, fault kind or flag reached are deleted
# (DESIGN.md §3 "A minimal stack"). One coming back in non-test Go fails
# here; new code nothing claim-carrying runs fails the coverage ratchet
# below.
if grep -rnE 'ForceFragments|TreeBcast|WaitTimeout|func \(c \*Conn\) Close' --include='*.go' internal cmd bench ./*.go | grep -v '_test\.go:'; then exit 1; fi
if grep -rn 'HeartbeatMisses' --include='*.go' internal/core | grep -v '_test\.go:'; then exit 1; fi

# A minimal service: the client calls, farm entry points, catalog
# helpers and custom QoS characterization that no README endpoint, flag
# or chaos path reached are deleted, as are three of the stack's
# deferred cuts — sim's Chan.TryGet/Len and Kernel.Stop, and PVM's
# receive wildcards (DESIGN.md §3 "A minimal stack"). One coming back
# in non-test Go fails here; new service code nothing claim-carrying
# runs fails the coverage ratchet below.
if grep -rnE 'CustomProgram|StoreStream|RunStreamCtx|func FromJSON|func \(f \*Farm\) (Submit|RunCtx|RunStream)\(|func \(c \*Client\) (Trace|Models?)\(|func \(ft \*Fitter\) Catalog\(' --include='*.go' internal cmd bench ./*.go | grep -v '_test\.go:'; then exit 1; fi
if grep -rnE 'TryGet|AnySource|AnyTag|func \(k \*Kernel\) Stop\(' --include='*.go' internal cmd bench ./*.go | grep -v '_test\.go:'; then exit 1; fi

# A minimal analysis half: the spectral estimators, vector helpers,
# statistics, capture controls and burst/fault summaries that no figure,
# flag or example reached are deleted (DESIGN.md §3 "A minimal stack") —
# Welch and the pool's Map, IFFT, FFTReal, BandPower, the tapering
# windows, linalg's Dot/Norm2/AXPY, StdDev, NewHistogram, the
# collector's Pause/Resume, MarksBetween, Bursts and FaultWindow, and
# later Trace.Between, the accumulator's Fold/N, the QoS ledger's
# release by name and SlidingBandwidth (figure 6 renders from the
# report's 10 ms bins).
# One coming back in non-test Go fails here; new analysis code nothing
# claim-carrying runs fails the coverage ratchet below.
if grep -rnE 'Welch|IFFT|FFTReal\b|BandPower|\bHann\b|Hamming|Window +Window|getWS|putWS|func \(p \*Pool\) Map\(' --include='*.go' internal cmd bench ./*.go | grep -v '_test\.go:'; then exit 1; fi
if grep -rnE 'func (Dot|Norm2|AXPY)\(|linalg\.(Dot|Norm2|AXPY)|StdDev|NewHistogram|func \(c \*Collector\) (Pause|Resume)\(|MarksBetween|func Bursts\(|analysis\.Bursts|BurstStats|FaultWindow|SlidingBandwidth' --include='*.go' internal cmd bench ./*.go | grep -v '_test\.go:'; then exit 1; fi
if grep -rnE 'func \(t \*Trace\) Between\(|func \(a \*Accumulator\) (Fold|N)\(|func \(n \*Network\) Release\(' --include='*.go' internal | grep -v '_test\.go:'; then exit 1; fi

# A minimal front end: fxanalyze is the one reader of trace files — one
# fold per run, and -mode model fits the folded report with the catalog's
# fit — and fxmodel is the catalog's command (fit, ls). fxmodel's trace
# mode (-in, -synth) and its get subcommand, a -window-ms accumulator
# beside the fold, or fxanalyze's -mode conn filter in cmd/ is the second
# path coming back; new front-end code nothing claim-carrying runs fails
# the coverage ratchet below.
if grep -rnE 'case "(conn|get)"|\("(synth|window-ms)"|NewAccumulator|func (traceCmd|getCmd)\(' --include='*.go' cmd | grep -v '_test\.go:'; then exit 1; fi
if grep -nE '\("in"' cmd/fxmodel/*.go; then exit 1; fi

# One law per kernel: the registry's QoS closure is the only hand-written
# record of what a kernel sends (c is QoS(p).Pattern, held to the
# compiler and the wire by TestKernelTrafficMatchesCompiler); only the run
# path and the benchmark's probes build a PVM machine; the §7.3 effective
# capacity is written once, in internal/qos (bench/ keeps its own literal
# until its own PR).
if grep -nE 'Pattern +fx\.Pattern' internal/kernels/*.go | grep -v '_test\.go:'; then exit 1; fi
if grep -rn 'pvm\.NewMachine(' --include='*.go' . | grep -v '_test\.go:' | grep -v '^\./internal/core/\|^\./internal/pvm/\|^\./bench/'; then exit 1; fi
if grep -rn '1\.1e6' --include='*.go' . | grep -v '_test\.go:' | grep -v '^\./internal/qos/\|^\./bench/'; then exit 1; fi

# Rank numerics leave the event loop in one place: fx.Worker.ComputeWith
# runs a rank's work beside its own virtual charge and joins it, on return
# and on unwind (DESIGN.md §8 "Kernel numerics"). A go statement in a
# kernel or in AIRSHED is rank work the simulator does not join.
if grep -rnE '^[[:space:]]*go[[:space:]]' --include='*.go' internal/airshed internal/kernels | grep -v '_test\.go:'; then exit 1; fi

go build ./...
go vet ./...
go test ./...

# The fuzzers of the report encoder (against its reflective oracle) and
# of the POST /v1/runs body run their seed corpora in go test above;
# here each also explores for a few seconds.
go test -run '^$' -fuzz '^FuzzMarshalReport$' -fuzztime 5s ./internal/farm
go test -run '^$' -fuzz '^FuzzRunRequest$' -fuzztime 5s ./internal/server

# Coverage ratchet: uncovered statements in every internal package — the
# seven simulator, six service and thirteen analysis packages — and in
# the nine commands under the claim-carrying runs may fall but never rise.
./scripts/coverage.sh

# fxfarm's "-json -" is the batch alone on stdout: valid JSON, loss
# dimension included.
go run ./cmd/fxfarm -programs seq -n 8 -iters 1 -loss 0,0.01 -q -json - 2>/dev/null | python3 -m json.tool >/dev/null

# fxrun refuses an unknown -format before it simulates and before it
# creates -o.
fmtdir=$(mktemp -d)
if go run ./cmd/fxrun -program seq -format jsno -o "$fmtdir/x" 2>/dev/null || [ -e "$fmtdir/x" ]; then exit 1; fi
rmdir "$fmtdir"

# Every radix-2 transform shares dsp's one twiddle table, grown by
# compare-and-swap under concurrent farm workers; run dsp and the
# characterizer above it under the race detector first so a
# synchronization regression fails fast. The
# conservative parallel engine shares each round between Run's goroutine
# and up to GOMAXPROCS−1 helpers, so the DES kernel and the Ethernet
# layer get the same fail-fast treatment, the kernel at -cpu 1,2,4 so the
# 0-, 1- and 3-helper executors each run under the detector (its tests
# that need helpers set GOMAXPROCS themselves; the others follow -cpu).
# Then sweep the tree: core has one run path, and
# the engine is its only multi-partition branch (a one-segment topology
# is the bare kernel loop), so the internal/core serial ≡ parallel tests
# in the sweep — with and without frame loss — are what race-checks that
# branch end to end. AIRSHED's transport and chemistry run on a goroutine
# per rank beside the rank's charge (fx.Worker.ComputeWith), so fx and
# airshed are race-checked up front too, and so is the report encoder,
# which formats a long report's chunks on up to GOMAXPROCS goroutines.
go test -race ./internal/dsp/... ./internal/analysis/...
go test -race -run 'MarshalReport|FormatterStops' ./internal/farm
go test -race -cpu 1,2,4 ./internal/sim/...
go test -race ./internal/ethernet/... ./internal/airshed/... ./internal/fx/...
go test -race ./...

# Service smoke: every README endpoint once, dedup over HTTP, a
# cancelled queued run, an fxload drive, and a clean drain on SIGTERM.
./scripts/serve_smoke.sh

# Crash-safety smoke: SIGKILL fxnetd mid-queue, restart over the same
# journal, and require every acknowledged job to complete with a
# byte-identical trace — the promises the journal exists to keep.
./scripts/chaos.sh
