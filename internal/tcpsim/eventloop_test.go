package tcpsim

import (
	"time"

	"repro/internal/trace"
)

// This file holds the reference engine the equivalence tests pin the
// closed-form transport against: the per-round event loop, which
// simulates a transfer one congestion-window round at a time and, on
// lossy paths, draws one Bernoulli verdict per round.

// useEventLoop routes every transfer of d through the reference event
// loop instead of the closed-form engine.
func useEventLoop(d *Dialer) { d.reference = (*Conn).transferEventLoop }

// transferEventLoop simulates the transfer one congestion-window round
// at a time. On lossy paths it draws one RNG verdict per round (the
// literal Bernoulli process the analytic engine samples in closed
// form), so the two engines agree distributionally but not draw for
// draw; under injected loss positions both are deterministic and
// bit-identical.
func (c *Conn) transferEventLoop(dir trace.Direction, wireApp int64) time.Time {
	cwnd := c.upCwnd
	if dir == trace.Downstream {
		cwnd = c.downCwnd
	}
	bdp := c.bdpBytes()

	t := c.now
	remaining := wireApp
	for remaining > 0 {
		if bdp > 0 && cwnd >= bdp {
			// Rate-limited phase: emit records in bdp-sized
			// slices so the trace has realistic granularity.
			slice := bdp
			if slice > remaining {
				slice = remaining
			}
			ser := c.serTime(slice)
			c.emitData(t, dir, slice)
			t = t.Add(ser)
			remaining -= slice
			if c.lossEvent(slice) {
				// Fast retransmit: one extra RTT, window
				// halves, the lost segment travels again.
				t = t.Add(c.rtt)
				c.emitRetransmit(t, dir)
				cwnd /= 2
				if cwnd < 2*MSS {
					cwnd = 2 * MSS
				}
			}
			continue
		}
		// Slow-start phase: one cwnd-sized burst per RTT.
		burst := cwnd
		if burst > remaining {
			burst = remaining
		}
		c.emitData(t, dir, burst)
		remaining -= burst
		if remaining > 0 {
			// Wait for the ACK clock before the next round.
			round := c.rtt
			if c.rateBps > 0 {
				if ser := c.serTime(burst); ser > round {
					round = ser
				}
			}
			t = t.Add(round)
		} else {
			// Last burst: the final byte leaves after its own
			// serialization time.
			if c.rateBps > 0 {
				t = t.Add(c.serTime(burst))
			}
		}
		if c.lossEvent(burst) {
			t = t.Add(c.rtt)
			c.emitRetransmit(t, dir)
			cwnd /= 2
			if cwnd < 2*MSS {
				cwnd = 2 * MSS
			}
		} else {
			cwnd *= 2
		}
		if bdp > 0 && cwnd > bdp {
			cwnd = bdp
		}
	}

	if dir == trace.Upstream {
		c.upCwnd = cwnd
	} else {
		c.downCwnd = cwnd
	}
	return t
}

// lossEvent reports whether a burst of n bytes suffered at least one
// segment loss — the event loop's per-round verdict. Under an
// injected script the round is lossy iff it covers a scripted
// position; otherwise the verdict compares one RNG draw against
// P(no loss) = (1−p)^segs. Either way the round advances the loss
// coordinate the analytic engine shares (see loss.go).
func (c *Conn) lossEvent(n int64) bool {
	d := c.d
	if d.lossScripted {
		d.lossSeg += int64(segments(n))
		hit := false
		for d.lossCur < len(d.lossScript) && d.lossScript[d.lossCur] < d.lossSeg {
			hit = true
			d.lossCur++
		}
		return hit
	}
	p := d.Net.LossRate
	if p <= 0 {
		return false
	}
	d.lossSeg += int64(segments(n))
	d.lossDraws++
	return d.Net.RNG().Float64() >= keepProb(p, segments(n))
}

// keepProb returns the no-loss probability (1−p)^segs as a sequential
// float64 product with an early exit: once the running value drops to
// 1e-9 a loss is a near-certainty and the product is frozen there.
func keepProb(p float64, segs int) float64 {
	keep := 1.0
	for i := 0; i < segs && keep > 1e-9; i++ {
		keep *= 1 - p
	}
	return keep
}
