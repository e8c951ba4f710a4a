// Package sim provides the discrete virtual-time kernel used by every
// other simulation package in this repository.
//
// All network activity in the reproduction happens in virtual time: a
// benchmark campaign that would occupy a full day of wall-clock time in
// the paper (24 repetitions per experiment with 5-minute gaps) executes
// in milliseconds. The kernel offers three primitives:
//
//   - Clock: a monotonically advancing virtual clock.
//   - Scheduler: a time-ordered event queue driven by the clock, used by
//     background processes such as the clients' idle pollers.
//   - RNG: a deterministic random source so that experiments are
//     reproducible bit-for-bit given a seed: a PCG engine with
//     SplitMix64 seeding, O(1) Fork and word-copy Bytes/Fill.
package sim

import (
	"fmt"
	"time"
)

// Epoch is the virtual origin of time. Its concrete value is arbitrary;
// it only anchors human-readable timestamps in reports.
var Epoch = time.Date(2013, time.October, 23, 0, 0, 0, 0, time.UTC)

// Clock is a virtual clock. The zero value is ready to use and reads
// Epoch. Clock is not safe for concurrent use; the simulation is
// single-threaded by design (determinism matters more than parallelism
// for a measurement reproduction).
type Clock struct {
	now time.Duration // offset from Epoch
}

// NewClock returns a clock positioned at Epoch.
func NewClock() *Clock { return &Clock{} }

// Now returns the current virtual instant.
func (c *Clock) Now() time.Time { return Epoch.Add(c.now) }

// Since returns the elapsed virtual time from t to now.
func (c *Clock) Since(t time.Time) time.Duration { return c.Now().Sub(t) }

// Elapsed returns the total virtual time elapsed since Epoch.
func (c *Clock) Elapsed() time.Duration { return c.now }

// Advance moves the clock forward by d. Negative d panics: virtual time
// never flows backwards, and a negative advance always indicates a
// timeline-accounting bug in a caller.
func (c *Clock) Advance(d time.Duration) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative clock advance %v", d))
	}
	c.now += d
}

// AdvanceTo moves the clock forward to instant t. If t is in the past
// the clock is left unchanged (it never rewinds).
func (c *Clock) AdvanceTo(t time.Time) {
	if off := t.Sub(Epoch); off > c.now {
		c.now = off
	}
}
