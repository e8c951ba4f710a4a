package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// This file charges the samples of a runtime/pprof CPU profile to the
// repository's modules. It decodes the gzip-compressed profile.proto
// with a minimal protobuf reader (only the standard library is
// available) and charges each sample to its innermost
// repro/internal/<module> frame, so standard-library callees
// (compress/flate, crypto/sha256, runtime.mapaccess2) count against
// the module that called them. Core frames running under RunFleet are
// charged to the pseudo-module "fleet". A sample with no repository
// frame at all (GC workers, the scheduler, the benchmark's own code)
// is unattributed.

const modulePrefix = "repro/internal/"

// attribution is one profile's CPU time per module.
type attribution struct {
	Samples    int64            `json:"samples"`
	TotalNs    int64            `json:"total_ns"`
	UnattribNs int64            `json:"unattributed_ns"`
	ModuleNs   map[string]int64 `json:"module_ns"`
}

// moduleOf names the repository module a symbolised function belongs
// to ("compressor" for repro/internal/compressor.TransmitSize), or ""
// for a function outside repro/internal.
func moduleOf(fn string) string {
	rest, ok := strings.CutPrefix(fn, modulePrefix)
	if !ok {
		return ""
	}
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		return rest[:i]
	}
	return rest
}

// chargeStack picks the module one sample is charged to; frames are
// ordered innermost first.
func chargeStack(frames []string) string {
	for i, fn := range frames {
		mod := moduleOf(fn)
		if mod == "" {
			continue
		}
		if mod == "core" {
			for _, outer := range frames[i:] {
				if strings.HasPrefix(outer, modulePrefix+"core.RunFleet") {
					return "fleet"
				}
			}
		}
		return mod
	}
	return ""
}

// attributeProfile decodes a gzip-compressed CPU profile and charges
// its samples to modules.
func attributeProfile(gz []byte) (attribution, error) {
	a := attribution{ModuleNs: map[string]int64{}}
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return a, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return a, fmt.Errorf("profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return a, err
	}
	frames := make([]string, 0, 64)
	for _, s := range p.samples {
		frames = frames[:0]
		for _, id := range s.locs {
			for _, fid := range p.locLines[id] {
				frames = append(frames, p.strings[p.funcName[fid]])
			}
		}
		ns := s.value
		a.Samples++
		a.TotalNs += ns
		if mod := chargeStack(frames); mod != "" {
			a.ModuleNs[mod] += ns
		} else {
			a.UnattribNs += ns
		}
	}
	return a, nil
}

// profile is the subset of profile.proto the attribution reads.
type profile struct {
	samples  []sample
	locLines map[uint64][]uint64 // location id → function ids, innermost first
	funcName map[uint64]int64    // function id → string table index
	strings  []string
}

type sample struct {
	locs  []uint64 // innermost first
	value int64    // the last sample value: CPU nanoseconds
}

// Field numbers of profile.proto.
const (
	profSample   = 2
	profLocation = 4
	profFunction = 5
	profStrings  = 6

	sampleLocation = 1
	sampleValue    = 2

	locID   = 1
	locLine = 4

	lineFunction = 1

	funcID   = 1
	funcName = 2
)

func decodeProfile(b []byte) (*profile, error) {
	p := &profile{locLines: map[uint64][]uint64{}, funcName: map[uint64]int64{}}
	err := eachField(b, func(num int, v uint64, data []byte) error {
		switch num {
		case profSample:
			var s sample
			var vals []uint64
			err := eachField(data, func(num int, v uint64, data []byte) error {
				switch num {
				case sampleLocation:
					return appendVarints(&s.locs, v, data)
				case sampleValue:
					return appendVarints(&vals, v, data)
				}
				return nil
			})
			if err != nil {
				return err
			}
			if len(vals) > 0 {
				s.value = int64(vals[len(vals)-1])
			}
			p.samples = append(p.samples, s)
		case profLocation:
			var id uint64
			var fns []uint64
			err := eachField(data, func(num int, v uint64, data []byte) error {
				switch num {
				case locID:
					id = v
				case locLine:
					return eachField(data, func(num int, v uint64, _ []byte) error {
						if num == lineFunction {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.locLines[id] = fns
		case profFunction:
			var id uint64
			var name int64
			err := eachField(data, func(num int, v uint64, _ []byte) error {
				switch num {
				case funcID:
					id = v
				case funcName:
					name = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.funcName[id] = name
		case profStrings:
			p.strings = append(p.strings, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, idx := range p.funcName {
		if idx < 0 || idx >= int64(len(p.strings)) {
			return nil, errors.New("profile: function name out of range")
		}
	}
	for _, s := range p.samples {
		for _, id := range s.locs {
			for _, fid := range p.locLines[id] {
				if _, ok := p.funcName[fid]; !ok {
					return nil, errors.New("profile: location names an unknown function")
				}
			}
		}
	}
	return p, nil
}

// eachField walks the fields of one protobuf message. Varint fields
// pass their value in v, length-delimited fields their payload in
// data; fixed-width fields are skipped.
func eachField(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("profile: short fixed64")
			}
			b = b[8:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || l > uint64(len(b)-n) {
				return errors.New("profile: bad length")
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(num, v, data); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field, packed (data) or not
// (v).
func appendVarints(dst *[]uint64, v uint64, data []byte) error {
	if data == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		*dst = append(*dst, x)
		data = data[n:]
	}
	return nil
}
