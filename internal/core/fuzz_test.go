package core

import (
	"bytes"
	"testing"
)

// FuzzReadCampaign drives the campaign parser — comparebench's input
// — with arbitrary bytes. ReadCampaign must either reject the input
// with an error or return a campaign that the comparison engine
// handles: ComparableCells, Compare and DeltaReport on (c, c) do not
// panic, a self-comparison finds no deltas, and a WriteJSON/
// ReadCampaign round trip reproduces the same file. The committed
// corpus under testdata/fuzz/FuzzReadCampaign holds a small written
// campaign with fig6 and lossy cells and a fig6 entry whose summaries
// outnumber its workloads.
func FuzzReadCampaign(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := ReadCampaign(bytes.NewReader(data))
		if err != nil {
			return
		}
		ComparableCells(c, c)
		deltas := Compare(c, c, 1.3)
		DeltaReport(deltas)
		if len(deltas) != 0 {
			t.Fatalf("self-comparison found %d deltas: %+v", len(deltas), deltas)
		}
		var first bytes.Buffer
		if err := c.WriteJSON(&first); err != nil {
			t.Fatalf("writing an accepted campaign: %v", err)
		}
		back, err := ReadCampaign(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("re-reading a written campaign failed: %v\n%s", err, first.Bytes())
		}
		var second bytes.Buffer
		if err := back.WriteJSON(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("round trip is not stable:\n%s\n%s", first.Bytes(), second.Bytes())
		}
	})
}
