package workload

import (
	"bytes"
	"encoding/binary"
	"sync"
	"testing"

	"repro/internal/sim"
)

// boundarySizes returns the exact-output-size boundary cases for a
// kind: 0, 1, and the header size ±1 (deduplicated, non-negative).
func boundarySizes(k Kind) []int64 {
	h := k.HeaderSize()
	cand := []int64{0, 1, h - 1, h, h + 1, 2 * h, 100, 4096, 100_001}
	seen := map[int64]bool{}
	var out []int64
	for _, s := range cand {
		if s >= 0 && !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}

// TestGenerateExactSizeAllKindsBoundaries pins the size contract for
// all four kinds at the boundary sizes (0, 1, header-size, header±1):
// output length is exactly the requested size, with no header
// truncation or pixel-rounding slack.
func TestGenerateExactSizeAllKindsBoundaries(t *testing.T) {
	for _, kind := range Kinds {
		for _, size := range boundarySizes(kind) {
			data := Generate(sim.NewRNG(int64(kind)*1000+size), kind, size)
			if int64(len(data)) != size {
				t.Errorf("%v size %d produced %d bytes", kind, size, len(data))
			}
		}
	}
}

// TestDescriptorMatchesGenerate pins the descriptor as a faithful
// recipe: materialising Describe(rng, kind, size) yields exactly the
// bytes Generate would have produced from the same fresh rng, whether
// materialised whole or via AppendTo into a reused buffer.
func TestDescriptorMatchesGenerate(t *testing.T) {
	for _, kind := range Kinds {
		for _, size := range []int64{0, 1, 1000, 70_000} {
			seed := int64(kind)*31 + size
			want := Generate(sim.NewRNG(seed), kind, size)
			d := Describe(sim.NewRNG(seed), kind, size)
			if got := d.Bytes(); !bytes.Equal(got, want) {
				t.Fatalf("%v: descriptor bytes differ from Generate", kind)
			}
			buf := GetBuffer(size)
			got := d.AppendTo(buf)
			if !bytes.Equal(got, want) {
				t.Fatalf("%v: pooled materialisation differs", kind)
			}
			PutBuffer(got)
		}
	}
}

// TestDescriptorDeterministicAcrossForksAndWorkers pins descriptor
// determinism: the same (kind, seed, size) materialises identically no
// matter which fork created it or how many goroutines materialise it
// concurrently — the property that makes campaign results independent
// of worker count.
func TestDescriptorDeterministicAcrossForksAndWorkers(t *testing.T) {
	parent := sim.NewRNG(77)
	d1 := Describe(parent.Fork(3), Binary, 50_000)
	d2 := Describe(sim.NewRNG(77).Fork(3), Binary, 50_000)
	if d1 != d2 {
		t.Fatal("forked descriptors differ across identical parents")
	}
	want := d1.Bytes()

	const workers = 8
	results := make([][]byte, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			buf := GetBuffer(d1.Size)
			out := d1.AppendTo(buf)
			results[w] = append([]byte(nil), out...)
			PutBuffer(out)
		}(w)
	}
	wg.Wait()
	for w, got := range results {
		if !bytes.Equal(got, want) {
			t.Fatalf("worker %d materialised different bytes", w)
		}
	}
}

// TestPooledBufferReuseIsSafe hammers the materialisation pool from
// many goroutines (run under -race in CI): planner-style usage — get,
// materialise, read, put — must never let one goroutine's content
// bleed into another's.
func TestPooledBufferReuseIsSafe(t *testing.T) {
	descs := []Descriptor{
		Describe(sim.NewRNG(1), Binary, 10_000),
		Describe(sim.NewRNG(2), Text, 20_000),
		Describe(sim.NewRNG(3), FakeJPEG, 15_000),
		Describe(sim.NewRNG(4), PixelImage, 12_345),
	}
	refs := make([][]byte, len(descs))
	for i, d := range descs {
		refs[i] = d.Bytes()
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				d := descs[(w+i)%len(descs)]
				buf := GetBuffer(d.Size)
				out := d.AppendTo(buf)
				if !bytes.Equal(out, refs[(w+i)%len(descs)]) {
					t.Errorf("pooled buffer produced corrupted content")
					PutBuffer(out)
					return
				}
				PutBuffer(out)
			}
		}(w)
	}
	wg.Wait()
}

// TestBMPHeaderFileSizeMatchesEmittedLength is the regression test for
// the BMP header bug: the file-size field used width*height*3, which
// under-reported by pixels%3 bytes whenever the pixel area was not
// divisible by 3. The field must equal the actual emitted length for
// every residue class.
func TestBMPHeaderFileSizeMatchesEmittedLength(t *testing.T) {
	for _, size := range []int64{
		bmpHeaderSize + 1, // pixels%3 == 1
		bmpHeaderSize + 2, // pixels%3 == 2
		bmpHeaderSize + 3, // pixels%3 == 0
		10_000,            // 9946 pixels: %3 == 1
		10_001, 10_002, 1 << 20,
	} {
		data := Generate(sim.NewRNG(size), PixelImage, size)
		if int64(len(data)) != size {
			t.Fatalf("size %d emitted %d bytes", size, len(data))
		}
		declared := int64(binary.LittleEndian.Uint32(data[2:6]))
		if declared != size {
			t.Errorf("size %d: BMP header declares %d bytes (off by %d)",
				size, declared, size-declared)
		}
	}
}

// TestPCGSeedPairStructure pins what the seed does not decide: two
// seeds emit exactly the requested size for every kind with an
// identical fixed header — while the byte streams themselves differ.
func TestPCGSeedPairStructure(t *testing.T) {
	for _, kind := range Kinds {
		size := int64(50_000)
		a := Generate(sim.NewRNG(5), kind, size)
		b := Generate(sim.NewRNG(5^0x5bd1e995), kind, size)
		if int64(len(a)) != size || int64(len(b)) != size {
			t.Fatalf("%v: seed changed the size contract", kind)
		}
		if h := kind.HeaderSize(); h > 0 && !bytes.Equal(a[:h], b[:h]) {
			t.Fatalf("%v: fixed header differs between seeds", kind)
		}
		if bytes.Equal(a, b) {
			t.Fatalf("%v: seeds produced identical streams", kind)
		}
	}
}
