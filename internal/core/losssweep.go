package core

import (
	"repro/internal/client"
	"repro/internal/sim"
	"repro/internal/workload"
)

// The paper's Sect. 5 long-distance results and the WhatIfLossyPath
// counterfactual live on lossy paths. With the analytic lossy engine
// (internal/tcpsim/loss.go) a lossy repetition costs O(losses), so a
// full service x loss-rate matrix is as affordable as any other
// campaign layer. This file is that matrix: reproducible loss curves
// from the CLI (cloudbench -loss) and a lossy section of the
// persisted campaign, so baselines pin the lossy engine's behaviour
// the way Fig. 6 pins the clean one.

// LossCell is one point of a loss sweep: one service's summarized
// repetitions of a fixed workload at one segment-loss rate.
type LossCell struct {
	Service  string         `json:"service"`
	LossRate float64        `json:"loss_rate"`
	Workload workload.Batch `json:"workload"`
	Summary  Summary        `json:"summary"`
}

// DefaultLossRates is the loss axis used by the campaign's lossy
// section and cloudbench's default sweep — the rates the equivalence
// suite pins (0.5%, 2%, 8%).
var DefaultLossRates = []float64{0.005, 0.02, 0.08}

// DefaultLossBatch is the loss-sweep workload: one 1 MB upload, deep
// enough to leave slow start on every profile path yet cheap enough
// to repeat across the full matrix.
var DefaultLossBatch = workload.Batch{Count: 1, Size: 1 << 20, Kind: workload.Binary}

// lossSweepSeed derives the seed of one (service, rate, repetition)
// cell: a per-cell base spread by distinct primes, repetitions spread
// by campaignSeed — the same index→seed discipline as fig6Seed.
func lossSweepSeed(seed int64, si, ri, rep int) int64 {
	return campaignSeed(seed+int64(si)*1000003+int64(ri)*10007, rep)
}

// LossSweep runs the service x loss-rate matrix for one workload from
// the given vantage under one repetition design, the whole matrix
// flattened onto one worker pool (0 = one per CPU, 1 = sequential)
// like every other campaign layer. With rule.CRN every service draws
// the same per-(rate, repetition) seed stream, so service-vs-service
// deltas at one loss rate are paired comparisons. Results are ordered
// service-major, rate-minor, and are bit-identical at any worker
// count.
func LossSweep(profiles []client.Profile, rates []float64, batch workload.Batch, v Vantage, rule StopRule, seed int64, workers int) []LossCell {
	nr := len(rates)
	sums := sampleCells(len(profiles)*nr, rule, workers,
		func(c, rep int) int64 {
			si := c / nr
			if rule.CRN {
				si = 0
			}
			return lossSweepSeed(seed, si, c%nr, rep)
		},
		func(c int, rng *sim.RNG) Metrics {
			return runSyncOn(profiles[c/nr], batch, vantageHost(v), rng, DefaultJitter, rates[c%nr])
		})
	out := make([]LossCell, len(sums))
	for c, s := range sums {
		out[c] = LossCell{Service: profiles[c/nr].Service, LossRate: rates[c%nr], Workload: batch, Summary: s}
	}
	return out
}
