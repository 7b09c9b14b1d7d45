// Package sim provides a deterministic discrete-event simulation kernel.
//
// The kernel maintains a virtual clock, a priority queue of events with a
// deterministic tie-break, and a cooperative process scheduler in which at
// most one simulation process (a goroutine) runs at any instant. All
// randomness is drawn from named, seeded generators so a simulation with a
// given seed is exactly reproducible.
package sim

import "fmt"

// Time is an instant of virtual simulation time, in nanoseconds since the
// start of the simulation.
type Time int64

// Duration is a span of virtual time in nanoseconds.
type Duration int64

// Common durations, mirroring time.Duration's constants.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
	Minute               = 60 * Second
	Hour                 = 60 * Minute
)

// Seconds reports t as a floating-point number of seconds.
func (t Time) Seconds() float64 { return float64(t) / 1e9 }

// Add returns the instant d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration between t and u (t − u).
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// String formats t with microsecond precision, e.g. "12.345678s".
func (t Time) String() string { return fmt.Sprintf("%.6fs", t.Seconds()) }

// Seconds reports d as a floating-point number of seconds.
func (d Duration) Seconds() float64 { return float64(d) / 1e9 }

// Milliseconds reports d as a floating-point number of milliseconds.
func (d Duration) Milliseconds() float64 { return float64(d) / 1e6 }

// DurationOf converts a floating-point number of seconds to a Duration,
// rounding to the nearest nanosecond.
func DurationOf(seconds float64) Duration {
	return Duration(seconds*1e9 + 0.5)
}

// TimeOf converts a floating-point number of seconds to a Time.
func TimeOf(seconds float64) Time { return Time(DurationOf(seconds)) }
