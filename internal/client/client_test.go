package client

import (
	"testing"
	"time"

	"repro/internal/cloud"
	"repro/internal/dnssim"
	"repro/internal/geo"
	"repro/internal/netem"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/whois"
	"repro/internal/workload"
)

// rig is a complete single-service testbed.
type rig struct {
	clock  *sim.Clock
	sched  *sim.Scheduler
	net    *netem.Network
	dns    *dnssim.System
	reg    *whois.Registry
	cap    *trace.Capture
	deploy *cloud.Deployment
	client *Client
	folder *workload.Folder
	rng    *sim.RNG
}

func newRig(t *testing.T, p Profile, seed int64) *rig {
	t.Helper()
	rng := sim.NewRNG(seed)
	clock := sim.NewClock()
	n := netem.New(clock, rng.Fork(1))
	dns := dnssim.NewSystem(rng.Fork(2))
	reg := whois.NewRegistry()
	deploy := cloud.Build(n, dns, reg, cloud.SpecFor(p.Service))
	host := n.AddHost(&netem.Host{
		Name: "testpc.utwente.sim", Addr: "130.89.0.1",
		Coord: geo.Coord{Lat: 52.24, Lon: 6.85}, // Enschede
	})
	cap := trace.NewCapture()
	c := New(Config{
		Profile: p, Deploy: deploy, Net: n, Host: host,
		Cap: cap, DNS: dns, RNG: rng.Fork(3),
	})
	return &rig{
		clock: clock, sched: sim.NewScheduler(clock), net: n, dns: dns,
		reg: reg, cap: cap, deploy: deploy, client: c,
		folder: workload.NewFolder(), rng: rng.Fork(4),
	}
}

// storageFilter selects flows towards the service's client-facing
// storage name.
func (r *rig) storageFilter() trace.FlowFilter {
	role := cloud.Storage
	if r.deploy.Spec.EdgeNetwork {
		role = cloud.Edge
	}
	name := r.deploy.DNSName(role)
	return func(f trace.FlowInfo) bool { return f.ServerName == name }
}

func TestNewRejectsMismatchedDeployment(t *testing.T) {
	r := newRig(t, Dropbox(), 1)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	New(Config{Profile: SkyDrive(), Deploy: r.deploy, Net: r.net,
		Host: r.client.Host, Cap: r.cap, DNS: r.dns, RNG: r.rng})
}

func TestLoginVolumes(t *testing.T) {
	// Fig. 1 login phase: SkyDrive needs ~150 kB (13 Live servers),
	// about 4x more than the others (~35-40 kB).
	loginBytes := func(p Profile) int64 {
		r := newRig(t, p, 2)
		r.client.Login(sim.Epoch)
		return r.cap.Analyze(trace.AllFlows).TotalWire
	}
	sky := loginBytes(SkyDrive())
	drop := loginBytes(Dropbox())
	if sky < 120_000 || sky > 220_000 {
		t.Fatalf("SkyDrive login = %d B, want ~150 kB", sky)
	}
	if drop < 20_000 || drop > 70_000 {
		t.Fatalf("Dropbox login = %d B, want ~35 kB", drop)
	}
	if sky < 3*drop {
		t.Fatalf("SkyDrive login (%d) should be ~4x Dropbox (%d)", sky, drop)
	}
}

func TestIdlePollingRates(t *testing.T) {
	// Fig. 1 idle phase: Cloud Drive ~6 kb/s (new HTTPS conn per
	// 15 s poll); everyone else well under 100 b/s.
	idleRate := func(p Profile) float64 {
		r := newRig(t, p, 3)
		done := r.client.Login(sim.Epoch)
		r.client.InstallPoller(r.sched)
		preIdle := r.cap.Analyze(trace.AllFlows).TotalWire
		horizon := done.Add(16 * time.Minute)
		r.sched.RunUntil(horizon)
		idleBytes := r.cap.Analyze(trace.AllFlows).TotalWire - preIdle
		return float64(idleBytes*8) / (16 * 60) // bits per second
	}
	rates := map[string]float64{}
	for _, p := range Profiles() {
		rates[p.Service] = idleRate(p)
	}
	if r := rates["clouddrive"]; r < 3000 || r > 12000 {
		t.Fatalf("CloudDrive idle = %.0f b/s, want ~6000", r)
	}
	for _, svc := range []string{"dropbox", "skydrive", "wuala", "googledrive"} {
		if r := rates[svc]; r > 400 {
			t.Fatalf("%s idle = %.0f b/s, want well under CloudDrive", svc, r)
		}
	}
	if rates["wuala"] > rates["clouddrive"]/10 {
		t.Fatal("Wuala should be at least an order of magnitude quieter than Cloud Drive")
	}
}

// syncBatch logs in, materializes a batch and syncs it, returning the
// rig and the result.
func syncBatch(t *testing.T, p Profile, b workload.Batch, seed int64) (*rig, SyncResult) {
	t.Helper()
	r := newRig(t, p, seed)
	done := r.client.Login(sim.Epoch)
	t0 := done.Add(time.Minute)
	b.Materialize(r.folder, r.rng, t0, "set")
	res := r.client.SyncChanges(r.folder, sim.Epoch)
	r.clock.AdvanceTo(res.Done)
	return r, res
}

func TestCloudDriveOpensFourConnectionsPerFile(t *testing.T) {
	// Fig. 3: storing 100 files opens ~400 connections for Cloud
	// Drive (3 control + 1 storage per file) vs ~100 for Google
	// Drive (1 per file).
	r, _ := syncBatch(t, CloudDrive(), workload.Batch{Count: 20, Size: 10_000, Kind: workload.Binary}, 4)
	syns := r.cap.Analyze(trace.AllFlows).Connections
	// 20 files -> 80 conns, plus login (2) + storage-less overheads.
	if syns < 80 || syns > 90 {
		t.Fatalf("CloudDrive connections = %d, want ~82 for 20 files", syns)
	}

	r2, _ := syncBatch(t, GoogleDrive(), workload.Batch{Count: 20, Size: 10_000, Kind: workload.Binary}, 4)
	syns2 := r2.cap.Analyze(trace.AllFlows).Connections
	if syns2 < 20 || syns2 > 30 {
		t.Fatalf("GoogleDrive connections = %d, want ~22 for 20 files", syns2)
	}
}

func TestDropboxReusesConnections(t *testing.T) {
	r, _ := syncBatch(t, Dropbox(), workload.Batch{Count: 20, Size: 10_000, Kind: workload.Binary}, 5)
	// Login (2 control + 1 notify) + 1 storage conn: far fewer than
	// one per file.
	if syns := r.cap.Analyze(trace.AllFlows).Connections; syns > 8 {
		t.Fatalf("Dropbox connections = %d, want a handful", syns)
	}
}

func TestSequentialClientsShowBursts(t *testing.T) {
	// Sect. 4.2: SkyDrive/Wuala wait for app-layer acks between
	// files; burst count tracks file count.
	r, _ := syncBatch(t, Wuala(), workload.Batch{Count: 10, Size: 50_000, Kind: workload.Binary}, 6)
	filter := r.storageFilter()
	host := r.deploy.HostsByRole(cloud.Storage)[0]
	rtt := r.net.BaseRTT(r.client.Host, host)
	bursts := r.cap.Bursts(filter, rtt+rtt/3)
	if len(bursts) < 8 {
		t.Fatalf("Wuala bursts = %d for 10 files, want ~10 (sequential acks)", len(bursts))
	}
}

func TestDedupAvoidsSecondUpload(t *testing.T) {
	// Sect. 4.3: a replica with a different name must not be
	// re-uploaded by Dropbox/Wuala.
	for _, p := range []Profile{Dropbox(), Wuala()} {
		r := newRig(t, p, 7)
		done := r.client.Login(sim.Epoch)
		t0 := done.Add(time.Minute)
		data := workload.Generate(r.rng, workload.Binary, 200_000)
		r.folder.Create(t0, "orig.bin", data)
		res1 := r.client.SyncChanges(r.folder, sim.Epoch)
		if res1.UploadBytes() < 190_000 {
			t.Fatalf("%s: first upload = %d", p.Name, res1.UploadBytes())
		}
		r.folder.Copy(res1.Done.Add(time.Minute), "orig.bin", "replica.bin")
		res2 := r.client.SyncChanges(r.folder, t0)
		if res2.UploadBytes() > 1000 {
			t.Fatalf("%s: replica re-uploaded %d bytes", p.Name, res2.UploadBytes())
		}
		if res2.DedupSkipped() < 190_000 {
			t.Fatalf("%s: DedupSkipped = %d", p.Name, res2.DedupSkipped())
		}
	}
}

func TestDedupSurvivesDeleteRestore(t *testing.T) {
	// Sect. 4.3 step iv.
	p := Dropbox()
	r := newRig(t, p, 8)
	done := r.client.Login(sim.Epoch)
	t0 := done.Add(time.Minute)
	data := workload.Generate(r.rng, workload.Binary, 150_000)
	r.folder.Create(t0, "a.bin", data)
	res1 := r.client.SyncChanges(r.folder, sim.Epoch)
	t1 := res1.Done.Add(time.Minute)
	r.folder.Delete(t1, "a.bin")
	res2 := r.client.SyncChanges(r.folder, t0)
	t2 := res2.Done.Add(time.Minute)
	r.folder.Restore(t2, "a.bin")
	res3 := r.client.SyncChanges(r.folder, t1)
	if res3.UploadBytes() > 1000 {
		t.Fatalf("restore re-uploaded %d bytes", res3.UploadBytes())
	}
}

func TestNoDedupServicesReupload(t *testing.T) {
	// "All other services have to upload the same data even if it is
	// readily available at the storage server."
	p := GoogleDrive()
	r := newRig(t, p, 9)
	done := r.client.Login(sim.Epoch)
	t0 := done.Add(time.Minute)
	data := workload.Generate(r.rng, workload.Binary, 200_000)
	r.folder.Create(t0, "orig.bin", data)
	res1 := r.client.SyncChanges(r.folder, sim.Epoch)
	r.folder.Copy(res1.Done.Add(time.Minute), "orig.bin", "replica.bin")
	res2 := r.client.SyncChanges(r.folder, t0)
	if res2.UploadBytes() < 190_000 {
		t.Fatalf("Google Drive should re-upload replicas, sent %d", res2.UploadBytes())
	}
}

func TestDeltaEncodingAppend(t *testing.T) {
	// Sect. 4.4 / Fig. 4: only Dropbox transmits just the modified
	// portion after an append.
	for _, tc := range []struct {
		p        Profile
		maxBytes int64 // acceptable upload for a 100 kB append to 1 MB
	}{
		{Dropbox(), 150_000},
		{SkyDrive(), 1 << 21}, // re-uploads everything
	} {
		r := newRig(t, tc.p, 10)
		done := r.client.Login(sim.Epoch)
		t0 := done.Add(time.Minute)
		base := workload.Generate(r.rng, workload.Binary, 1<<20)
		r.folder.Create(t0, "doc.bin", base)
		res1 := r.client.SyncChanges(r.folder, sim.Epoch)
		t1 := res1.Done.Add(time.Minute)
		r.folder.Append(t1, "doc.bin", workload.Generate(r.rng, workload.Binary, 100_000))
		res2 := r.client.SyncChanges(r.folder, t0)
		up := res2.UploadBytes()
		if tc.p.DeltaEncoding {
			if up > tc.maxBytes || up < 90_000 {
				t.Fatalf("%s append upload = %d, want ~100 kB", tc.p.Name, up)
			}
		} else if up < 1<<20 {
			t.Fatalf("%s append upload = %d, want full re-upload", tc.p.Name, up)
		}
	}
}

func TestStartupDelayOrdering(t *testing.T) {
	// Fig. 6a: Dropbox fastest on single files; SkyDrive >= 9 s and
	// > 20 s at 100 files.
	startup := func(p Profile, count int) time.Duration {
		r := newRig(t, p, 11)
		done := r.client.Login(sim.Epoch)
		t0 := done.Add(time.Minute)
		workload.Batch{Count: count, Size: 10_000, Kind: workload.Binary}.
			Materialize(r.folder, r.rng, t0, "set")
		res := r.client.SyncChanges(r.folder, sim.Epoch)
		return res.Start.Sub(t0)
	}
	dropbox1 := startup(Dropbox(), 1)
	sky1 := startup(SkyDrive(), 1)
	sky100 := startup(SkyDrive(), 100)
	wuala1 := startup(Wuala(), 1)
	wuala100 := startup(Wuala(), 100)

	if dropbox1 > 2*time.Second {
		t.Fatalf("Dropbox single-file startup = %v", dropbox1)
	}
	if sky1 < 8*time.Second {
		t.Fatalf("SkyDrive startup = %v, want >= ~9 s", sky1)
	}
	if sky100 < 18*time.Second {
		t.Fatalf("SkyDrive 100-file startup = %v, want > 20 s", sky100)
	}
	if wuala100 < wuala1+wuala1/2 {
		t.Fatalf("Wuala 100-file startup %v should be ~2x single %v", wuala100, wuala1)
	}
}

func TestCompletionTimeOrderingFor100Files(t *testing.T) {
	// Fig. 6b rightmost bars: Dropbox wins by a factor of ~4 over
	// Google Drive; Cloud Drive is the slowest.
	completion := func(p Profile) time.Duration {
		r := newRig(t, p, 12)
		done := r.client.Login(sim.Epoch)
		t0 := done.Add(time.Minute)
		workload.Batch{Count: 100, Size: 10_000, Kind: workload.Binary}.
			Materialize(r.folder, r.rng, t0, "set")
		res := r.client.SyncChanges(r.folder, sim.Epoch)
		// Window to the experiment: for the edge network, login and
		// control traffic share the storage server name.
		win := r.cap.Window(t0, res.Done.Add(time.Hour))
		filter := r.storageFilter()
		a := win.Analyze(filter)
		if !a.HasPayload {
			t.Fatalf("%s: no storage traffic", p.Name)
		}
		return a.LastPayload.Sub(a.FirstPayload)
	}
	drop := completion(Dropbox())
	gdrive := completion(GoogleDrive())
	clouddrive := completion(CloudDrive())

	if gdrive < 2*drop {
		t.Fatalf("Google Drive (%v) should be several times slower than Dropbox (%v)", gdrive, drop)
	}
	if clouddrive < gdrive {
		t.Fatalf("Cloud Drive (%v) should be slowest (GDrive %v)", clouddrive, gdrive)
	}
}

func TestSingleFileCompletionFavoursNearbyDCs(t *testing.T) {
	// Fig. 6b leftmost: for single files RTT dominates; Wuala and
	// Google Drive (EU presence) beat SkyDrive (US).
	completion := func(p Profile) time.Duration {
		r := newRig(t, p, 13)
		done := r.client.Login(sim.Epoch)
		t0 := done.Add(time.Minute)
		workload.Batch{Count: 1, Size: 1 << 20, Kind: workload.Binary}.
			Materialize(r.folder, r.rng, t0, "set")
		r.client.SyncChanges(r.folder, sim.Epoch)
		filter := r.storageFilter()
		a := r.cap.Analyze(filter)
		return a.LastPayload.Sub(a.FirstPayload)
	}
	wuala := completion(Wuala())
	sky := completion(SkyDrive())
	if sky < 2*wuala {
		t.Fatalf("SkyDrive 1MB (%v) should be far slower than Wuala (%v)", sky, wuala)
	}
	if sky < 2500*time.Millisecond {
		t.Fatalf("SkyDrive 1MB completion = %v, paper reports ~4 s", sky)
	}
	if wuala > time.Second {
		t.Fatalf("Wuala 1MB completion = %v, paper reports ~0.3 s", wuala)
	}
}

func TestProfileLookups(t *testing.T) {
	if len(Profiles()) != 5 {
		t.Fatal("five services")
	}
	if _, ok := ProfileFor("dropbox"); !ok {
		t.Fatal("ProfileFor dropbox")
	}
	if _, ok := ProfileFor("nope"); ok {
		t.Fatal("ProfileFor unknown")
	}
	if Dropbox().NotifyTLS().Enabled {
		t.Fatal("Dropbox notifications are plain HTTP")
	}
	if !Wuala().NotifyTLS().Enabled {
		t.Fatal("Wuala polls over HTTPS")
	}
}

func TestChunkModeStrings(t *testing.T) {
	if NoChunking.String() != "no" || FixedChunks.String() != "fixed" || VariableChunks.String() != "var." {
		t.Fatal("Table 1 vocabulary")
	}
	if PersistentBundled.String() == "?" || PerFileConnExtra.String() == "?" {
		t.Fatal("strategy names")
	}
}

func TestRenameIsMetadataOnlyForDedupServices(t *testing.T) {
	// A rename shows up as delete+create; Dropbox's deduplication
	// recognizes the content and commits pure metadata, while a
	// service without dedup re-uploads the file.
	renameCost := func(p Profile) int64 {
		r := newRig(t, p, 120)
		done := r.client.Login(sim.Epoch)
		t0 := done.Add(time.Minute)
		data := workload.Generate(r.rng, workload.Binary, 300_000)
		r.folder.Create(t0, "a/file.bin", data)
		res := r.client.SyncChanges(r.folder, sim.Epoch)
		t1 := res.Done.Add(time.Minute)
		r.folder.Rename(t1, "a/file.bin", "b/file.bin")
		res2 := r.client.SyncChanges(r.folder, t0)
		return res2.UploadBytes()
	}
	if got := renameCost(Dropbox()); got > 1000 {
		t.Fatalf("dropbox rename uploaded %d bytes, want metadata only", got)
	}
	if got := renameCost(GoogleDrive()); got < 300_000 {
		t.Fatalf("googledrive rename uploaded %d bytes, want full re-upload", got)
	}
}
