// Command bench is the repository's single benchmark. BENCHMARK.json at
// the repository root declares its workloads and metrics; README.md in
// this directory explains them.
//
//	go run ./bench                                  every workload, end-to-end metrics
//	go run ./bench -trace 1 -spans spans.json       plus the traced pass: per-layer metrics
//	go run ./bench -repeat 10 -out a.json           ten seeds per workload, kept as a result file
//	go run ./bench -check a.json b.json             compare two result files against the bounds
//	go run ./bench -workload wire_seq -seed 7 -seconds 20 -trace 0    one pass (what the driver runs)
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"fxnet/internal/version"
)

const (
	scaleFull  = "full"
	scaleSmoke = "smoke"
)

// options are one pass over one workload.
type options struct {
	workload string
	seed     int64
	seconds  time.Duration
	traced   bool
	scale    string
	spans    string // traced pass: write spans here as Chrome trace-event JSON
	tmp      string // scratch directory inside the checkout, removed at exit
}

// flags are the command line. The driver passes -workload, -seed,
// -seconds and -trace; the rest serve people.
type flags struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	scale    string
	spans    string
	out      string
	repeat   int
	check    bool
	pin      bool
}

// manifestFile is read from the working directory: the benchmark runs
// from the repository root.
const manifestFile = "BENCHMARK.json"

func main() {
	var f flags
	flag.StringVar(&f.workload, "workload", "", "run one pass over this workload in this process; empty runs every workload, each in a child process")
	flag.Int64Var(&f.seed, "seed", 42, "workload seed; outputs are pinned for 42 and 7")
	flag.IntVar(&f.seconds, "seconds", 0, "seconds each pass measures for; 0 takes run_seconds from the manifest")
	flag.IntVar(&f.trace, "trace", 0, "0: untraced pass, end-to-end metrics; 1: traced pass, per-layer metrics (with no -workload: both passes)")
	flag.StringVar(&f.scale, "scale", scaleFull, "full, or smoke for a seconds-long run of the same code paths")
	flag.StringVar(&f.spans, "spans", "", "traced pass: write spans to this file as Chrome trace-event JSON")
	flag.StringVar(&f.out, "out", "", "write every run as a result file, the input of -check")
	flag.IntVar(&f.repeat, "repeat", 1, "run each workload this many times, on seeds seed, seed+1, ...")
	flag.BoolVar(&f.check, "check", false, "compare the two result files given as arguments against the manifest's bounds")
	flag.BoolVar(&f.pin, "pin", false, "recompute the pinned outputs for seeds 42 and 7 and print the new expected.json")
	flag.Parse()
	if err := run(f, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(f flags, args []string) error {
	man, err := loadManifest(manifestFile)
	if err != nil {
		return err
	}
	if f.scale != scaleFull && f.scale != scaleSmoke {
		return fmt.Errorf("unknown -scale %q", f.scale)
	}
	if f.trace != 0 && f.trace != 1 {
		return errors.New("-trace takes 0 or 1")
	}
	if f.seconds == 0 {
		f.seconds = man.RunSeconds
	}
	switch {
	case f.check:
		if len(args) != 2 {
			return errors.New("-check takes two result files")
		}
		return runCheck(man, args[0], args[1])
	case f.pin:
		return runPin(man)
	case f.workload == "":
		return runAll(man, f)
	}
	if !man.workload(f.workload) {
		return fmt.Errorf("no workload %q in %s", f.workload, manifestFile)
	}
	line, err := runPass(man, options{
		workload: f.workload, seed: f.seed, seconds: time.Duration(f.seconds) * time.Second,
		traced: f.trace == 1, scale: f.scale, spans: f.spans,
	})
	if err != nil {
		return err
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	if !line.Correct {
		return fmt.Errorf("%s: %d of %d operations failed their output check", f.workload, line.Failed, line.Attempted)
	}
	return nil
}

// runPass runs one pass in this process, prints its rows, and returns
// the result line.
func runPass(man *manifest, o options) (*resultLine, error) {
	// The contract keeps every write inside the checkout, so scratch
	// lives under the working directory, not the system temp dir.
	tmp, err := os.MkdirTemp(".", ".bench_tmp")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	o.tmp = tmp
	printHost(o)
	// Start from a quiesced disk: left to itself, the writeback of one
	// run's deleted scratch files is billed to the next run's fsyncs.
	syscall.Sync()

	var (
		pr    *passResult
		rec   *recorder
		decls = man.EndToEnd
	)
	serve := o.workload == "serve_mix"
	switch {
	case !o.traced && serve:
		pr, err = runServe(o)
	case !o.traced:
		pr, err = runSim(o)
	case serve:
		decls = man.PerLayer
		pr, rec, err = runServeTraced(o)
	default:
		decls = man.PerLayer
		pr, rec, err = runSimTraced(o)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", o.workload, err)
	}
	if o.traced {
		if err := runProbes(o, pr.metrics); err != nil {
			return nil, err
		}
		pr.metrics.set("harness.peak_rss_mb", peakRSSMB())
		pr.metrics.set("harness.fail_ratio", float64(pr.failed)/float64(pr.attempted))
		if o.spans != "" {
			if err := rec.writeChrome(o.spans); err != nil {
				return nil, err
			}
		}
	}
	printRows(o.workload, decls, pr.metrics)
	pr.infof("fail_ratio", float64(pr.failed)/float64(pr.attempted), "ratio", "%d failed of %d attempted", pr.failed, pr.attempted)
	for _, row := range pr.info {
		fmt.Printf("%-16s %s\n", o.workload, row)
	}
	metrics, err := project(decls, pr.metrics)
	if err != nil {
		return nil, err
	}
	return &resultLine{Correct: pr.failed == 0, Attempted: pr.attempted, Failed: pr.failed, Metrics: metrics}, nil
}

// hostFacts go in every result file and at the head of every pass.
type hostFacts struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Build      string `json:"build"`
	TmpFS      string `json:"tmp_fs"`
	Clients    int    `json:"serve_clients"`
}

func host(tmp string) hostFacts {
	return hostFacts{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		Build:      version.String(),
		TmpFS:      filesystemOf(tmp),
		Clients:    loadClients(),
	}
}

func printHost(o options) {
	h := host(o.tmp)
	fmt.Printf("host: nproc=%d GOMAXPROCS=%d %s build=%q tmp_fs=%s serve_clients=%d | %s seed=%d seconds=%g scale=%s traced=%v\n",
		h.NProc, h.GOMAXPROCS, h.Go, h.Build, h.TmpFS, h.Clients,
		o.workload, o.seed, o.seconds.Seconds(), o.scale, o.traced)
}

// filesystemOf names the filesystem holding path, from the mount table:
// the journal's fsync latency is a property of this disk.
func filesystemOf(path string) string {
	abs, err := filepath.Abs(path)
	if err != nil {
		return "unknown"
	}
	b, err := os.ReadFile("/proc/self/mountinfo")
	if err != nil {
		return "unknown"
	}
	best, fs := "", "unknown"
	for _, line := range strings.Split(string(b), "\n") {
		// "36 35 98:0 /root /mnt rw - ext3 /dev/root rw": mount point is
		// field 5, the type follows the "-" separator.
		pre, post, ok := strings.Cut(line, " - ")
		f := strings.Fields(pre)
		if !ok || len(f) < 5 {
			continue
		}
		mnt := f[4]
		if (abs == mnt || strings.HasPrefix(abs, strings.TrimSuffix(mnt, "/")+"/")) && len(mnt) > len(best) {
			best, fs = mnt, strings.Fields(post)[0]
		}
	}
	return fs
}

// peakRSSMB is this process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			fmt.Sscanf(strings.TrimSpace(rest), "%f kB", &kb)
			return kb / 1e3
		}
	}
	return 0
}

// runRecord is one child run in a result file.
type runRecord struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    int    `json:"trace"`
	resultLine
}

type resultFile struct {
	Host    hostFacts   `json:"host"`
	Seconds int         `json:"seconds"`
	Scale   string      `json:"scale"`
	Runs    []runRecord `json:"runs"`
}

// runAll runs every workload, each pass in its own child process so
// heap state and the resident-set high-water mark do not leak from one
// workload into the next.
func runAll(man *manifest, f flags) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	file := resultFile{Host: host("."), Seconds: f.seconds, Scale: f.scale}
	passes := []int{0}
	if f.trace == 1 {
		passes = []int{0, 1}
	}
	var failed []string
	for _, w := range man.Workloads {
		for i := 0; i < f.repeat; i++ {
			for _, pass := range passes {
				s := f.seed + int64(i)
				args := []string{
					"-workload", w.Name, "-seed", fmt.Sprint(s), "-seconds", fmt.Sprint(f.seconds),
					"-trace", fmt.Sprint(pass), "-scale", f.scale,
				}
				if pass == 1 && f.spans != "" {
					// One spans file per workload: spans.json → spans.wire_seq.json.
					ext := filepath.Ext(f.spans)
					args = append(args, "-spans", strings.TrimSuffix(f.spans, ext)+"."+w.Name+ext)
				}
				cmd := exec.Command(self, args...)
				cmd.Stderr = os.Stderr
				stdout, runErr := cmd.Output()
				lines := strings.Split(strings.TrimRight(string(stdout), "\n"), "\n")
				var line resultLine
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
					os.Stdout.Write(stdout)
					return fmt.Errorf("%s seed %d trace %d: no result line: %v", w.Name, s, pass, errors.Join(runErr, err))
				}
				fmt.Println(strings.Join(lines[:len(lines)-1], "\n"))
				if runErr != nil {
					failed = append(failed, fmt.Sprintf("%s seed %d trace %d", w.Name, s, pass))
				}
				file.Runs = append(file.Runs, runRecord{Workload: w.Name, Seed: s, Trace: pass, resultLine: line})
			}
		}
	}
	if f.out != "" {
		b, err := json.MarshalIndent(file, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(f.out, b, 0o644); err != nil {
			return err
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("output checks failed: %s", strings.Join(failed, "; "))
	}
	return nil
}
