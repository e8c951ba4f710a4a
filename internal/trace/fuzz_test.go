package trace

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzReadCSV drives the trace parser with arbitrary input. ReadCSV
// must either reject it with an error or return a capture that is
// bounded (at most maxExpandedPackets once spans expand), well formed
// (every span ends no earlier than it starts) and canonical (it
// survives a WriteCSV/ReadCSV round trip unchanged). The committed
// corpus under testdata/fuzz/FuzzReadCSV holds a v1 and a v2 trace
// and the hostile spans of TestReadCSVRejectsHostileSpans.
func FuzzReadCSV(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := ReadCSV(bytes.NewReader(data))
		if err != nil {
			return
		}
		if n := c.ExpandedLen(); n > maxExpandedPackets {
			t.Fatalf("accepted trace expands to %d packets, bound %d", n, maxExpandedPackets)
		}
		for i, p := range c.Packets() {
			if p.End().Before(p.Time) {
				t.Fatalf("record %d ends at %v, before its start %v", i, p.End(), p.Time)
			}
		}
		var buf bytes.Buffer
		if err := c.WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
		again, err := ReadCSV(&buf)
		if err != nil {
			t.Fatalf("re-reading a written trace failed: %v\n%s", err, buf.Bytes())
		}
		if !reflect.DeepEqual(again.Flows(), c.Flows()) {
			t.Fatalf("flows changed in the round trip:\n %+v\n %+v", c.Flows(), again.Flows())
		}
		if !reflect.DeepEqual(again.Packets(), c.Packets()) {
			t.Fatalf("records changed in the round trip:\n %+v\n %+v", c.Packets(), again.Packets())
		}
	})
}
