package core

import (
	"fmt"
	"strings"

	"repro/internal/client"
	"repro/internal/cloud"
	"repro/internal/geo"
	"repro/internal/netem"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Vantage is a place the test computer can run from. The paper
// benchmarks "taking the perspective of users connected from Europe"
// (Twente) and explicitly wants "to compare results from different
// locations" — this type is that extension point.
type Vantage struct {
	Name  string
	Coord geo.Coord
}

// Twente is the paper's vantage.
var Twente = Vantage{Name: "twente", Coord: TwenteCoord}

// VantageByName resolves a vantage from a city name or IATA code in
// the landmark database ("Seattle", "sea"), or "twente".
func VantageByName(name string) (Vantage, bool) {
	if strings.EqualFold(name, "twente") || name == "" {
		return Twente, true
	}
	if l, ok := geo.LookupAirport(name); ok {
		return Vantage{Name: strings.ToLower(l.City), Coord: l.Coord}, true
	}
	for _, l := range geo.Airports() {
		if strings.EqualFold(l.City, name) {
			return Vantage{Name: strings.ToLower(l.City), Coord: l.Coord}, true
		}
	}
	return Vantage{}, false
}

// NewTestbedAt builds a buffered testbed with the test computer at an
// arbitrary vantage.
func NewTestbedAt(p client.Profile, spec cloud.Spec, v Vantage, seed int64, jitter float64) *Testbed {
	return assembleTestbed(p, spec, vantageHost(v), sim.NewRNG(seed), jitter, false)
}

// vantageHost is a test computer placed at an arbitrary vantage.
func vantageHost(v Vantage) *netem.Host {
	return &netem.Host{
		Name:  fmt.Sprintf("testpc.%s.sim", v.Name),
		Addr:  "198.51.100.1",
		Coord: v.Coord,
	}
}

// LocationCell is one (service, vantage) measurement of a location
// study.
type LocationCell struct {
	Service string
	Vantage string
	Metrics Metrics
}

// LocationStudy benchmarks every service from every vantage with the
// same workload — the comparison the paper's public-tool release was
// meant to enable. Single repetition per cell, jitter-free (location
// effects dwarf noise). The service x vantage matrix fans out over
// workers (0 = one per CPU, 1 = sequential); every cell builds its own
// testbed from the shared seed, so results are bit-identical at any
// worker count.
func LocationStudy(batch workload.Batch, vantages []Vantage, seed int64, workers int) []LocationCell {
	profiles := client.Profiles()
	return RunN(len(profiles)*len(vantages), workers, func(i int) LocationCell {
		p := profiles[i/len(vantages)]
		v := vantages[i%len(vantages)]
		return LocationCell{
			Service: p.Service,
			Vantage: v.Name,
			Metrics: runSyncOn(p, batch, vantageHost(v), sim.NewRNG(seed), 0, 0),
		}
	})
}

// LocationReport renders a location study as a service x vantage
// completion-time table.
func LocationReport(cells []LocationCell, vantages []Vantage) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s", "service")
	for _, v := range vantages {
		fmt.Fprintf(&b, "%14s", v.Name)
	}
	b.WriteByte('\n')
	bySvc := map[string]map[string]Metrics{}
	var order []string
	for _, c := range cells {
		if bySvc[c.Service] == nil {
			bySvc[c.Service] = map[string]Metrics{}
			order = append(order, c.Service)
		}
		bySvc[c.Service][c.Vantage] = c.Metrics
	}
	for _, svc := range order {
		fmt.Fprintf(&b, "%-14s", displayName(svc))
		for _, v := range vantages {
			fmt.Fprintf(&b, "%13.2fs", bySvc[svc][v.Name].Completion.Seconds())
		}
		b.WriteByte('\n')
	}
	return b.String()
}
