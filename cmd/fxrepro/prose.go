package main

// The document's prose: one string per section, giving reasons. Every
// number a reader compares is printed from a result or from the paper
// table, never written here.

const intro = `# EXPERIMENTS — paper vs. measured

This file is the output of cmd/fxrepro at its default flags (paper
scale, seed 42): every table and figure of the paper beside the
published values, and every ablation beside the claim it tests. The
testbed is simulated: four workstations and one monitor on a shared
10 Mb/s Ethernet. Regenerate and check the file; never edit it:

    go run ./cmd/fxrepro > EXPERIMENTS.md
    go test -run '^$' -bench PaperFigures -benchtime 1x ./cmd/fxrepro

BenchmarkPaperFigures renders the same runs, fails when this file
differs from the rendering, and holds the shape named in each figure
heading's parentheses and the direction each ablation claims. The
published values are one table, paper in cmd/fxrepro/repro.go. Absolute
agreement with a 1998 physical testbed is not expected; the contract is
shape: who wins, by roughly what factor, where the periodicities fall.
Misses are called out per figure.
`

const whyCalibration = `The compute cost model converts each kernel's real operation counts
into virtual seconds. Its rates were calibrated once against the paper's
burst periods and then frozen: SOR's step against its maximum gap, the
FFTs against the 2DFFT fundamental and the T2DFFT bandwidth, SEQ and HIST
against their spectral spikes, and AIRSHED's phases against its hour,
chemistry and transport scales. They are read from internal/kernels and
internal/airshed. Other fixed choices: a 16 KB TCP send window, MSS 1460,
delayed ACKs; PVM daemon keepalives; OS descheduling stalls and compute
jitter drawn per host from seeded generators.
`

const whyPatterns = `The registry matches the paper's kernel table. The pairs follow from
each pattern; TestKernelTrafficMatchesCompiler holds them to the
compiler's schedule and to the wire, and the pattern-scaling ablation
below counts them on the wire at three processor counts.
`

const whySizes = `Sizes run from the 58-byte ACK to the maximal 1518-byte frame, as in
the paper, except SEQ's small messages. SOR, 2DFFT and HIST are trimodal
(ACKs, maximal segments, message remainders); SEQ is unimodal. Fragment
packing smears T2DFFT's sizes (see its ablation). SOR and HIST averages
run high because our traces carry proportionally fewer daemon and
control packets than the 1998 testbed. AIRSHED's connection tracks its
aggregate: one connection is representative.
`

const whyGaps = `Every kernel's maximum gap is far above its average — bursty traffic —
and SOR's average spacing is far above the others', as in the paper.
AIRSHED's gaps are above the kernels'; its maximum is bounded by the
daemon keepalive.
`

const whyBandwidth = `The ordering 2DFFT > T2DFFT > SEQ > SOR < HIST reproduces. HIST runs hot:
keeping the paper's iteration rate and a histogram message larger than
one segment (for trimodality) forces more bytes per second than the paper
reports; the spectral and modality signatures came first. AIRSHED runs
uniformly hot, its aggregate/connection ratio set by the twelve
all-to-all connections: its transpose message is the full l·s·p/P²
block of float32 values, while back-solving the paper's numbers implies a
far smaller one. We keep the honest data size and accept the factor.
`

const whyBursts = `Every program shows the paper's burst/idle structure: peaks near wire
speed with idle bins between, SOR barely registering and 2DFFT nearly
saturating. The bins are each report's 10 ms bins, which the paper calls a
close approximation of its per-packet sliding window. AIRSHED's 500 s
span shows per-hour burst groups separated by quiet preprocessing, and
its 60 s span resolves the steps within an hour.
`

const whySpectra = `2DFFT shows the paper's fundamental with declining harmonics, SEQ its
spike, and T2DFFT the least clear spectra, as in the paper. SOR misses:
the paper's SOR table and its connection fundamental are mutually
inconsistent for any constant-rate model, and we calibrated to the table,
which puts the fundamental at the inverse of the maximum gap. HIST's
burst envelope puts the argmax on a harmonic of its comb. AIRSHED's three
scales are present and ordered; its fast peak is the spacing of adjacent
transpose pairs (two transport phases and one transpose), which the
paper's smaller transposes would collapse toward the transport phase.
`

const whyModels = `The reconstruction error falls as spikes are added (spikes kept apart
so one spike's leakage is not counted twice), the paper's convergence
claim. examples/spectral-model closes the loop: a model regenerates a
synthetic trace whose mean rate and dominant frequency match the run.
`

const whyNegotiation = `The kernels' [l(), b(), c] characterizations on a 1.25 MB/s network
negotiate finite optimal processor counts and burst intervals. cmd/fxqos
and examples/qos-negotiation show the burst-size/processor-count tension
and the capacity effect.
`

const whyPeriodicity = `§1: the period depends on the available bandwidth. The same 2DFFT on
a faster segment has a shorter burst interval, so its fundamental moves
up: the period belongs to program and network together.
`

const whyCorrelated = `§1: correlated traffic along many connections. The synchronized
all-to-all keeps nearly every connection active in every phase (the
2DFFT figure run's report).
`

const whyConstantBursts = `§1: constant burst sizes. The 2DFFT's per-phase byte totals barely vary.
`

const whyMedia = `The conclusion: compiler-parallelized traffic is unlike media
traffic. Parallel bursts are constant and periodic; VBR video has a fixed
frame rate but variable bursts; classic self-similar LAN traffic
(heavy-tailed on/off) has a Hurst exponent the periodic trace lacks.
`

const whyFragments = `Does PVM fragmenting alone explain T2DFFT's smeared sizes? The same
T2DFFT workload sent with the copy-loop discipline fills most data
packets to the maximal frame; the fragment list (the real T2DFFT) fills
far fewer.
`

const whySwitched = `How much of the measured shape is the shared medium? On a switch the
all-to-all's transfers proceed in parallel instead of serializing on one
wire, so the communication phase shortens and the fundamental rises.
`

const whyWindow = `Is the 10 ms averaging interval a free choice? SEQ's dominant spike
stays put across 5, 10 and 20 ms bins.
`

const whyScaling = `§7.1: neighbor patterns use Θ(P) connections and all-to-all Θ(P²).
Counted on the wire: data-bearing ordered pairs, 2(P−1) and P(P−1).
`

const whyDesched = `§6.1 saw a descheduled processor stall the synchronous all-to-all and
merge bursts. Heavy stall injection lengthens the 2DFFT's longest gap.
`

const whyLoss = `TCP retransmission recovers the computation under FCS corruption, but
timeouts smear the burst periods: the spectrum's strongest spike loses
its share and the bandwidth falls, which is why crisp periodicity needs a
healthy LAN.
`

const whyNagle = `PVM sets TCP_NODELAY. Nagle coalescing would merge SEQ's per-element
messages into maximal segments, erasing the small-packet signature: the
measured shape depends on the transport configuration, not just the
program.
`

const whyFlap = `The §6.1 before/after method applied to a scripted fault: a link
outage at 12 s. TCP carries the computation across the hole, the
outage-plus-recovery window loses the burst fundamental, and it returns
once the link heals.
`

const whyValidation = `The validation §7.3 leaves as future work: the [l(), b(), c] law
predicts the 2DFFT's burst interval tbi(P) = l(P) + comm(P), and the
simulated testbed measures it at each P.
`

const whyQoS = `The introduction's motivation, end to end: best-effort video aimed
at one of the program's hosts stretches the 2DFFT's burst interval on a
switched network, and a strict-priority guarantee on the program's
connections restores it.
`

const notes = `
## Known parameter notes

- **SEQ** uses N = 40 × 5 iterations (the paper leaves N unspecified):
  N²·(P−1) per-element messages at the paper's row cadence and bandwidth
  pin it.
- **HIST** uses 256 int64 bins so the reduced vector spans a maximal
  segment (trimodality), at a cost in average bandwidth.
- **SOR** exchanges REAL*4 rows, calibrated to the paper's interarrival
  table rather than its inconsistent spectral note.
- **AIRSHED** concentrations are REAL*4; transpose messages are the full
  l·s·p/P² block.
`
