package tcpsim

import (
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/trace"
)

func TestSendUntilCompletesBeforeDeadline(t *testing.T) {
	_, _, d, server := testbed(zrhCoord(), 30e6, 0)
	c := d.Dial(server, "s", sim.Epoch, PlainTCP)
	deadline := c.FreeAt().Add(time.Hour)
	sent, cut, last := c.SendUntil(100_000, deadline)
	if cut {
		t.Fatal("transfer cut despite generous deadline")
	}
	if sent < 100_000 {
		t.Fatalf("sent = %d, want full payload", sent)
	}
	if last.After(deadline) {
		t.Fatal("finished after deadline without cut")
	}
}

func TestSendUntilCutsAtDeadline(t *testing.T) {
	// 10 MB at 30 Mb/s needs ~2.8 s; cut after 1 s.
	_, cap, d, server := testbed(zrhCoord(), 30e6, 0)
	c := d.Dial(server, "s", sim.Epoch, PlainTCP)
	deadline := c.FreeAt().Add(time.Second)
	sent, cut, last := c.SendUntil(10<<20, deadline)
	if !cut {
		t.Fatal("transfer not cut")
	}
	if sent <= 0 || sent >= 10<<20 {
		t.Fatalf("partial bytes = %d, want strictly partial", sent)
	}
	// Partial progress matches the path rate within slow-start slack.
	ideal := int64(30e6 / 8) // one second at 30 Mb/s
	if sent > ideal+ideal/2 {
		t.Fatalf("sent %d exceeds what 1 s sustains (%d)", sent, ideal)
	}
	if last.Before(deadline) {
		t.Fatalf("cut at %v, before deadline", last)
	}
	// Trace contains exactly the partial payload.
	up := cap.Analyze(trace.AllFlows).PayloadUp
	if up != sent {
		t.Fatalf("trace shows %d, SendUntil reported %d", up, sent)
	}
}

func TestSendUntilZero(t *testing.T) {
	_, _, d, server := testbed(zrhCoord(), 30e6, 0)
	c := d.Dial(server, "s", sim.Epoch, PlainTCP)
	sent, cut, _ := c.SendUntil(0, c.FreeAt())
	if sent != 0 || cut {
		t.Fatalf("SendUntil(0) = %d,%v", sent, cut)
	}
}

func TestAbortEmitsRST(t *testing.T) {
	_, cap, d, server := testbed(zrhCoord(), 30e6, 0)
	c := d.Dial(server, "s", sim.Epoch, PlainTCP)
	c.SendUntil(1<<20, c.FreeAt().Add(time.Millisecond))
	c.Abort()
	c.Abort() // idempotent
	rsts := 0
	for _, p := range cap.Packets() {
		if p.Flags.RST {
			rsts++
		}
	}
	if rsts != 1 {
		t.Fatalf("RST count = %d, want 1", rsts)
	}
	// An aborted connection also refuses an orderly close.
	before := cap.Len()
	c.Close()
	if cap.Len() != before {
		t.Fatal("Close after Abort emitted packets")
	}
}

func TestSendUntilRetryMakesProgress(t *testing.T) {
	// The recovery pattern: cut, redial, retry. Cumulative payload
	// in the trace grows monotonically across retries.
	n, cap, d, server := testbed(zrhCoord(), 30e6, 0)
	_ = n
	var total int64
	at := sim.Epoch
	for i := 0; i < 3; i++ {
		c := d.Dial(server, "s", at, PlainTCP)
		sent, cut, last := c.SendUntil(4<<20, c.FreeAt().Add(500*time.Millisecond))
		total += sent
		if cut {
			c.Abort()
		}
		at = last
	}
	up := cap.Analyze(trace.AllFlows).PayloadUp
	if up != total {
		t.Fatalf("trace %d != cumulative sent %d", up, total)
	}
	//simlint:allow goldendiscipline -- the scenario above scripts exactly 3 Dials; a structural count, not a refreshable metric
	if cap.Analyze(trace.AllFlows).Connections != 3 {
		t.Fatal("expected 3 connections")
	}
}
