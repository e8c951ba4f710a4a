package trace

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

func TestCSVRoundTrip(t *testing.T) {
	c := buildCapture()
	var buf bytes.Buffer
	if err := c.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(c.Flows(), back.Flows()) {
		t.Fatalf("flows differ:\n%v\n%v", c.Flows(), back.Flows())
	}
	if !reflect.DeepEqual(c.Packets(), back.Packets()) {
		t.Fatalf("packets differ")
	}
	// Analyzers agree on the reloaded capture.
	if c.Analyze(AllFlows).TotalWire != back.Analyze(AllFlows).TotalWire {
		t.Fatal("byte totals differ after round trip")
	}
	if len(c.Analyze(AllFlows).SYNTimes) != len(back.Analyze(AllFlows).SYNTimes) {
		t.Fatal("SYN counts differ after round trip")
	}
}

func TestCSVFlagsRoundTrip(t *testing.T) {
	cases := []Flags{
		{}, {SYN: true}, {SYN: true, ACK: true}, {FIN: true, ACK: true}, {RST: true},
		{SYN: true, ACK: true, FIN: true, RST: true},
	}
	for _, f := range cases {
		if got := parseFlags(flagString(f)); got != f {
			t.Fatalf("flags %+v -> %q -> %+v", f, flagString(f), got)
		}
	}
}

func TestReadCSVErrors(t *testing.T) {
	cases := []struct {
		name  string
		input string
	}{
		{"empty", ""},
		{"no-version", "f,0,a,1,b,2,0,n,0\n"},
		{"bad-type", "#cloudbench-trace-v1\nz,1,2\n"},
		{"short-flow", "#cloudbench-trace-v1\nf,0,a,1\n"},
		{"bad-int", "#cloudbench-trace-v1\nf,0,a,xx,b,2,0,n,0\n"},
		{"unknown-flow", "#cloudbench-trace-v1\np,0,5,0,-,0,0,1,0\n"},
		{"short-packet", "#cloudbench-trace-v1\np,0,0\n"},
	}
	for _, c := range cases {
		if _, err := ReadCSV(strings.NewReader(c.input)); err == nil {
			t.Errorf("%s: no error", c.name)
		}
	}
}

func TestReadCSVTolerantOfBlanksAndComments(t *testing.T) {
	input := "#cloudbench-trace-v1\n\n# a comment\nf,0,10.0.0.1,4000,5.5.5.5,443,0,s.example,1382486400000000000\n\np,1382486400000000000,0,0,S,0,74,1,0\n"
	c, err := ReadCSV(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	if c.NumFlows() != 1 || c.Len() != 1 {
		t.Fatalf("parsed %d flows, %d packets", c.NumFlows(), c.Len())
	}
	if !c.Packets()[0].Flags.SYN {
		t.Fatal("flags lost")
	}
}
