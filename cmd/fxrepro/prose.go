package main

// The document's prose: one string per section, giving method and
// reasons, and the reasons for the graded rows that miss. Whether a
// claim holds or a value agrees is printed from the runs, never
// written here.

const intro = `# EXPERIMENTS — paper vs. measured

This file is the output of cmd/fxrepro at its default flags (paper
scale, seed 42). The testbed is simulated: four workstations and one
monitor on a shared 10 Mb/s Ethernet. Regenerate and check the file;
never edit it:

    go run ./cmd/fxrepro > EXPERIMENTS.md
    go test -run '^$' -bench PaperFigures -benchtime 1x ./cmd/fxrepro

Each block lists the claims it tests, ✓ or ✗. The published values are
graded once, under "Paper values", where every ~ or ✗ row gives its
reason. BenchmarkPaperFigures fails on a ✗ claim, on a ~ or ✗ row
without a reason or a reason without one, and when this file is not the
rendering. Agreement with a 1998 physical testbed is judged by shape:
who wins, by roughly what factor, where the periodicities fall.`

const whyCalibration = `The compute cost model converts each kernel's real operation counts
into virtual seconds. Its rates were calibrated once against the paper's
burst periods and then frozen: SOR's step against its maximum gap, the
FFTs against the 2DFFT fundamental and the T2DFFT bandwidth, SEQ and HIST
against their spectral spikes, and AIRSHED's phases against its hour,
chemistry and transport scales. They are read from internal/kernels and
internal/airshed. Other fixed choices: a 16 KB TCP send window, MSS 1460,
delayed ACKs; PVM daemon keepalives; OS descheduling stalls and compute
jitter drawn per host from seeded generators. SEQ uses N = 40 × 5
iterations (the paper leaves N unspecified): N²·(P−1) per-element
messages at the paper's row cadence and bandwidth pin it.`

const whyPatterns = `TestKernelTrafficMatchesCompiler holds each registry pattern's pairs to
the compiler's schedule and to the wire.`

const whySizes = `The modes are the size histogram's peaks: ACKs, maximal segments and
message remainders.`

const whyGaps = `Gaps between consecutive packets.`

const whyBandwidth = `§6.2 quotes AIRSHED's pair, whose ratio is set by its twelve all-to-all
connections.`

const whyBursts = `The paper calls 10 ms bins a close approximation of its per-packet
sliding window. Figure 10's 500 s span covers per-hour burst groups,
its 60 s span the steps within an hour.`

const whySpectra = `Strongest spikes first, at least two bins apart. Figure 11's AIRSHED
time scales are the hour, the chemistry phase and the transport phase.`

const whyGrades = `Each published value beside the figure runs': KB/s, bytes, ms and Hz
(fund-hz is the aggregate's strongest spike, peak-kbps the figure 10
500 s peak). A reason gives the cause of a ~ or ✗ row.`

const whyModels = `Each model keeps the k strongest spikes, kept apart so that one spike's
leakage is not counted twice; ExampleFitModel regenerates a trace from
one.`

const whyNegotiation = `Each kernel's [l(), b(), c] law (TestAnalyticTableIsTheRegistry) on a
1.25 MB/s network; a refused negotiation fails the rendering.`

const whyPeriodicity = `§1: the period depends on the available bandwidth, so it belongs to
program and network together.`

const whyCorrelated = `§1: correlated traffic along many connections.`

const whyConstantBursts = `§1: constant burst sizes.`

const whyMedia = `The conclusion: compiler-parallelized traffic is unlike media traffic.
VBR video has a fixed frame rate but variable bursts; classic
self-similar LAN traffic (heavy-tailed on/off) has a Hurst exponent
above one half.`

const whyFragments = `Does PVM fragmenting alone explain T2DFFT's smeared sizes? The copy loop
packs each message into one buffer; the fragment list is the real T2DFFT.`

const whySwitched = `How much of the measured shape is the shared medium? On a switch the
all-to-all's transfers proceed in parallel instead of serializing on one
wire, so the communication phase shortens.`

const whyWindow = `Is the 10 ms averaging interval a free choice?`

const whyScaling = `§7.1: neighbor patterns use Θ(P) connections and all-to-all Θ(P²).
Counted on the wire: data-bearing ordered pairs.`

const whyDesched = `§6.1 saw a descheduled processor stall the synchronous all-to-all and
merge bursts.`

const whyLoss = `TCP retransmission recovers the computation under FCS corruption, but
its timeouts smear the burst periods, which is why crisp periodicity
needs a healthy LAN.`

const whyNagle = `PVM sets TCP_NODELAY. Nagle coalescing would merge SEQ's per-element
messages and erase the small-packet signature.`

const whyFlap = `The §6.1 before/after method applied to a scripted fault: a link
outage at 12 s, across which TCP carries the computation.`

const whyValidation = `The validation §7.3 leaves as future work: the [l(), b(), c] law
predicts the 2DFFT's burst interval tbi(P) = l(P) + comm(P), and the
simulated testbed measures it at each P.`

const whyQoS = `The introduction's motivation: best-effort video aimed at one of the
program's hosts, then a strict-priority guarantee on its connections.`

// reasons explain the graded rows that miss, keyed program/field as in
// grades. BenchmarkPaperFigures requires one for every ~ or ✗ row and
// refuses one on a ✓ row, so a row that moves moves its reason too.
var reasons = map[string]string{
	"sor/kbps":             "Bytes per packet run high (sor/pkt); at the calibrated step the packet rate is near the paper's.",
	"sor/conn-kbps":        "One of six neighbor pairs, so it follows sor/kbps.",
	"sor/pkt":              "The aggregate repeats the connection's sizes: it has no small packets outside the program's connections, where the testbed's daemon and control traffic would lower the mean (not yet tested).",
	"sor/conn-pkt":         notYet,
	"sor/fund-hz":          "The paper's SOR table and its fundamental are mutually inconsistent for any constant-rate model; we calibrated to the table (sor/max-ia), which puts the fundamental at the inverse of the maximum gap.",
	"2dfft/max-ia":         "The seeded OS stalls are milder than the testbed's; the descheduling ablation's heavy stalls lengthen the longest gap past the paper's.",
	"2dfft/conn-max-ia":    "As 2dfft/max-ia.",
	"t2dfft/conn-pkt":      "PVM's fragment list sends each fragment as its own segment, so many data packets fall short of a maximal frame (packing ablation); the testbed's were fuller.",
	"t2dfft/max-ia":        notYet,
	"hist/kbps":            "The reduced histogram is 256 int64 bins so that it spans a maximal segment (hist/modes); at the paper's iteration rate that is more bytes per second than the paper reports.",
	"hist/pkt":             "As sor/pkt.",
	"hist/max-ia":          "The period is calibrated to the paper's spike and the longest gap is about one period; the paper's spans more than two, as if a stall merged bursts (not yet tested).",
	"hist/fund-hz":         "The burst envelope puts the strongest spike on a harmonic of the comb, whose fundamental is the third spike listed under Figures 7/11.",
	"airshed/kbps":         "The transpose message is the full l·s·p/P² block of float32 values; back-solving the paper's numbers implies a far smaller one. We keep the honest data size.",
	"airshed/conn-kbps":    "As airshed/kbps; the aggregate/connection ratio holds (Figure 5 / §6.2).",
	"airshed/max-ia":       "The PVM daemon keepalive bounds the longest aggregate gap.",
	"airshed/conn-max-ia":  notYet,
	"airshed/avg-ia":       "The inverse of airshed/kbps: more bytes per second in packets near the paper's size (airshed/pkt) are more packets per second.",
	"airshed/conn-avg-ia":  "As airshed/avg-ia, per connection.",
	"airshed/transport-hz": "The fast peak is the spacing of adjacent transpose pairs (two transport phases and one transpose), which the paper's smaller transposes (airshed/kbps) would collapse toward the transport phase.",
}

const notYet = "Not yet explained (ROADMAP item 2(b))."
