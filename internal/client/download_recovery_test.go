package client

import (
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

func TestDownloadPanicsBeforeLogin(t *testing.T) {
	r := newRig(t, Dropbox(), 101)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	r.client.Download(nil, sim.Epoch)
}

func TestDownloadPerFileStrategyOpensConnections(t *testing.T) {
	// Cloud Drive downloads like it uploads: fresh connections per
	// file, plus fresh control connections.
	r := newRig(t, CloudDrive(), 102)
	done := r.client.Login(sim.Epoch)
	plans := []FilePlan{
		{Path: "a.bin", FileBytes: 10_000, Units: []TransferUnit{{Path: "a.bin", Bytes: 10_000, RawBytes: 10_000}}},
		{Path: "b.bin", FileBytes: 10_000, Units: []TransferUnit{{Path: "b.bin", Bytes: 10_000, RawBytes: 10_000}}},
	}
	before := r.cap.Analyze(trace.AllFlows).Connections
	end := r.client.Download(plans, done.Add(time.Minute))
	if !end.After(done) {
		t.Fatal("download did not advance time")
	}
	opened := r.cap.Analyze(trace.AllFlows).Connections - before
	// 2 files x (3 control + 1 storage) = 8 connections.
	if opened != 8 {
		t.Fatalf("download opened %d connections, want 8", opened)
	}
	down := r.cap.Analyze(trace.AllFlows).PayloadDown
	if down < 20_000 {
		t.Fatalf("downloaded payload = %d", down)
	}
}

func TestDownloadPersistentStrategyReuses(t *testing.T) {
	r := newRig(t, Wuala(), 103)
	done := r.client.Login(sim.Epoch)
	plans := []FilePlan{
		{Path: "a.bin", FileBytes: 50_000, Units: []TransferUnit{{Path: "a.bin", Bytes: 50_000, RawBytes: 50_000}}},
	}
	before := r.cap.Analyze(trace.AllFlows).Connections
	r.client.Download(plans, done.Add(time.Minute))
	if opened := r.cap.Analyze(trace.AllFlows).Connections - before; opened > 1 {
		t.Fatalf("persistent download opened %d connections", opened)
	}
}

func TestDownloadDedupedPlanStillFetches(t *testing.T) {
	// A fully deduplicated upload plan (Units empty) must still be
	// fetched by device B: B does not have the bytes locally.
	r := newRig(t, Dropbox(), 104)
	done := r.client.Login(sim.Epoch)
	plans := []FilePlan{{Path: "known.bin", FileBytes: 80_000}}
	r.client.Download(plans, done.Add(time.Minute))
	down := r.cap.Analyze(trace.AllFlows).PayloadDown
	if down < 80_000 {
		t.Fatalf("deduplicated file not downloaded: %d", down)
	}
}

func TestRecoveryUploadPanics(t *testing.T) {
	r := newRig(t, Dropbox(), 105)
	cases := []func(){
		func() { r.client.RecoveryUpload(r.folder, sim.Epoch, time.Second) }, // before login
	}
	r2 := newRig(t, Dropbox(), 106)
	r2.client.Login(sim.Epoch)
	cases = append(cases, func() { r2.client.RecoveryUpload(r2.folder, sim.Epoch, 0) }) // bad interval
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: no panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestRecoveryUploadNoChangesCompletes(t *testing.T) {
	r := newRig(t, Dropbox(), 107)
	r.client.Login(sim.Epoch)
	res := r.client.RecoveryUpload(r.folder, sim.Epoch, time.Second)
	if !res.Completed || res.Retries != 0 {
		t.Fatalf("empty recovery: %+v", res)
	}
}

func TestNextNotificationPollAlignment(t *testing.T) {
	// Poll-based notification lands on the first poll tick after the
	// commit, in the service's own cadence.
	r := newRig(t, GoogleDrive(), 108) // 40 s polls
	login := r.client.Login(sim.Epoch)
	commit := login.Add(90 * time.Second)
	notify := r.client.NextNotification(commit)
	delta := notify.Sub(login)
	// First tick after 90 s on a 40 s cadence is 120 s.
	if delta < 120*time.Second || delta > 121*time.Second {
		t.Fatalf("notification at +%v, want ~120 s after login", delta)
	}
	// Commits before login map to the first tick.
	early := r.client.NextNotification(login.Add(-time.Hour))
	if early.Sub(login) < 40*time.Second || early.Sub(login) > 41*time.Second {
		t.Fatalf("pre-login commit notified at +%v", early.Sub(login))
	}
}

func TestRecoveryCleanBytesMatchPlan(t *testing.T) {
	r := newRig(t, CloudDrive(), 109)
	done := r.client.Login(sim.Epoch)
	t0 := done.Add(time.Minute)
	data := workload.Generate(r.rng, workload.Binary, 2<<20)
	r.folder.Create(t0, "f.bin", data)
	res := r.client.RecoveryUpload(r.folder, sim.Epoch, time.Hour)
	if !res.Completed || res.CleanBytes < 2<<20 {
		t.Fatalf("recovery result: %+v", res)
	}
}
