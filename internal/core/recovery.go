package core

import (
	"time"

	"repro/internal/client"
	"repro/internal/trace"
	"repro/internal/workload"
)

// RecoveryStudy quantifies Sect. 4.1's argument for chunking:
// "Chunking is advantageous because it simplifies upload recovery in
// case of failures ... Partial submission can benefit users connected
// to slow networks." We upload one file while the storage path fails
// periodically and compare progress across chunk sizes — including
// the degenerate "no chunking" case, where each failure restarts the
// whole file.
type RecoveryStudy struct {
	ChunkLabel string
	Completed  bool
	Completion time.Duration
	Retries    int
	// WasteRatio is retransmitted storage volume over the clean
	// upload volume (0 = nothing wasted).
	WasteRatio float64
}

// RunRecovery uploads fileSize bytes under failures every `every`,
// with the given chunk size (0 disables chunking).
func RunRecovery(chunkSize int64, fileSize int64, every time.Duration, seed int64) RecoveryStudy {
	// A neutral single-purpose profile isolates the chunking effect.
	p := client.Dropbox()
	p.Compression = 0 // compressor.None: keep volumes exact
	p.Dedup = false
	p.DeltaEncoding = false
	if chunkSize > 0 {
		p.ChunkMode = client.FixedChunks
		p.ChunkSize = chunkSize
	} else {
		p.ChunkMode = client.NoChunking
	}

	tb := NewTestbed(p, seed, 0)
	start := tb.Settle()
	t0 := tb.Clock.Now()
	tb.Folder.Create(t0, "big.bin", workload.Generate(tb.RNG, workload.Binary, fileSize))
	res := tb.Client.RecoveryUpload(tb.Folder, start.Add(-time.Second), every)
	tb.Clock.AdvanceTo(res.Done)

	win := tb.Cap.Window(t0, trace.FarFuture)
	up := win.Analyze(tb.StorageFilter(t0)).PayloadUp

	out := RecoveryStudy{
		ChunkLabel: chunkLabel(chunkSize),
		Retries:    res.Retries,
		Completion: res.Done.Sub(t0),
	}
	out.Completed = res.Completed
	if res.CleanBytes > 0 {
		waste := float64(up-res.CleanBytes) / float64(res.CleanBytes)
		if waste < 0 {
			waste = 0
		}
		out.WasteRatio = waste
	}
	return out
}

func chunkLabel(size int64) string {
	if size <= 0 {
		return "no chunking"
	}
	return workload.SizeLabel(size)
}
