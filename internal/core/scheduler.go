package core

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// This file is the parallel experiment scheduler. The paper's
// methodology is embarrassingly parallel above the repetition level:
// Table 1 capability detection, the Fig. 4/5 size sweeps, the Fig. 6
// campaigns and the location study are all independent (service,
// workload, vantage) cells. Every campaign-of-campaigns loop in the
// package fans its full index space out through RunN, and every
// exported fan-out takes its worker count explicitly (0 = one per
// CPU, 1 = sequential) — cmd/cloudbench and cmd/capcheck pass their
// -parallel value down; there is no process-global knob.
//
// Determinism contract: a cell must derive everything it needs (seed,
// testbed, RNG) from its own index, exactly like campaignSeed does
// for repetitions. Cells write only their own result slot, so the
// output is bit-identical to a sequential run at any worker count and
// under any scheduling; -parallel only changes wall-clock time. The
// golden-equivalence tests in scheduler_test.go pin this for every
// lifted layer.

// helpersActive counts helper goroutines currently running across all
// pools in the process. It is what keeps nested fan-outs (a driver
// over services, each service over workloads x repetitions) on one
// shared budget instead of multiplying pool sizes: a pool spawns a
// helper only while the process-wide count is below the budget, and a
// cell that fans out again simply runs its sub-cells inline when the
// budget is spent. Acquisition never blocks, so nesting cannot
// deadlock.
var helpersActive atomic.Int64

// tryAcquireHelper reserves one helper slot if fewer than limit are
// active process-wide.
func tryAcquireHelper(limit int) bool {
	for {
		cur := helpersActive.Load()
		if cur >= int64(limit) {
			return false
		}
		if helpersActive.CompareAndSwap(cur, cur+1) {
			return true
		}
	}
}

func releaseHelper() { helpersActive.Add(-1) }

// RunN executes fn for every index in [0, n) on a bounded worker pool
// and returns the results in index order. workers caps this call's
// fan-out; workers <= 0 means one per CPU (GOMAXPROCS). The calling
// goroutine always works too, so RunN(n, 1, fn) is exactly a
// sequential loop.
// fn must derive everything from its index (see the determinism
// contract above); RunN guarantees fn(i)'s result lands in slot i
// regardless of scheduling.
//
// A panicking cell does not take the process down from a helper
// goroutine, where no caller could recover it: RunN recovers it, stops
// handing out indices, waits for the cells in flight, and re-panics on
// the calling goroutine with the lowest panicking index, its value and
// its original stack ("core: RunN cell <i>: <value>").
func RunN[T any](n, workers int, fn func(i int) T) []T {
	if n <= 0 {
		return nil
	}
	budget := workers
	if budget <= 0 {
		budget = runtime.GOMAXPROCS(0)
	}
	if budget > n {
		budget = n
	}
	out := make([]T, n)
	var (
		next    atomic.Int64
		stopped atomic.Bool
		mu      sync.Mutex
		failed  = -1 // lowest panicking cell, -1 while none has
		failure string
	)
	cell := func(i int) {
		defer func() {
			if v := recover(); v != nil {
				stopped.Store(true)
				mu.Lock()
				if failed < 0 || i < failed {
					failed, failure = i, fmt.Sprintf("core: RunN cell %d: %v\n%s", i, v, debug.Stack())
				}
				mu.Unlock()
			}
		}()
		out[i] = fn(i)
	}
	work := func() {
		for !stopped.Load() {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			cell(i)
		}
	}
	var wg sync.WaitGroup
	for spawned := 1; spawned < budget && tryAcquireHelper(budget-1); spawned++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer releaseHelper()
			work()
		}()
	}
	work()
	wg.Wait()
	if failed >= 0 {
		panic(failure)
	}
	return out
}

// RunEach is RunN for cells evaluated for effect only (each cell
// writing its own disjoint output, e.g. distinct struct fields).
func RunEach(n, workers int, fn func(i int)) {
	RunN(n, workers, func(i int) struct{} {
		fn(i)
		return struct{}{}
	})
}
