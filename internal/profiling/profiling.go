// Package profiling wires the standard pprof and runtime/trace
// collectors into the command-line tools, so the hot-path work of the
// simulator can be measured on exactly the workloads the paper runs
// (DESIGN.md §8 has the quickstart).
package profiling

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
)

// Flags holds the destinations of the three collectors; empty means off.
type Flags struct {
	CPUProfile string
	MemProfile string
	Trace      string
}

// Register declares the standard -cpuprofile/-memprofile/-trace flags on
// fs (a command's own set, or flag.CommandLine) and returns the struct
// they populate.
func Register(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.StringVar(&f.CPUProfile, "cpuprofile", "", "write a pprof CPU profile to this file")
	fs.StringVar(&f.MemProfile, "memprofile", "", "write a pprof heap profile to this file on exit")
	fs.StringVar(&f.Trace, "trace", "", "write a runtime execution trace to this file")
	return f
}

// Start begins the requested collectors and returns a stop function to
// defer: it ends the CPU profile and execution trace and snapshots the
// heap profile (after a GC, so live objects dominate).
func (f *Flags) Start() (stop func() error, err error) {
	var stops []func() error
	if f.CPUProfile != "" {
		cf, err := os.Create(f.CPUProfile)
		if err != nil {
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(cf); err != nil {
			cf.Close()
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
		stops = append(stops, func() error {
			pprof.StopCPUProfile()
			return cf.Close()
		})
	}
	if f.Trace != "" {
		tf, err := os.Create(f.Trace)
		if err != nil {
			return nil, fmt.Errorf("trace: %w", err)
		}
		if err := trace.Start(tf); err != nil {
			tf.Close()
			return nil, fmt.Errorf("trace: %w", err)
		}
		stops = append(stops, func() error {
			trace.Stop()
			return tf.Close()
		})
	}
	if f.MemProfile != "" {
		path := f.MemProfile
		stops = append(stops, func() error {
			mf, err := os.Create(path)
			if err != nil {
				return fmt.Errorf("memprofile: %w", err)
			}
			runtime.GC()
			if err := pprof.WriteHeapProfile(mf); err != nil {
				mf.Close()
				return fmt.Errorf("memprofile: %w", err)
			}
			return mf.Close()
		})
	}
	return func() error {
		var first error
		for _, s := range stops {
			if err := s(); err != nil && first == nil {
				first = err
			}
		}
		return first
	}, nil
}
