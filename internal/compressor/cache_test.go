package compressor

import (
	"math/rand"
	"sort"
	"sync"
	"testing"
)

// contents returns payloads on both sides of sizeCacheMinLen, at both
// compressibility extremes, and a fake JPEG (JPEG header, text body)
// that Smart skips and Always shrinks.
func contents(t *testing.T) map[string][]byte {
	t.Helper()
	rng := rand.New(rand.NewSource(9))
	random := make([]byte, 64<<10)
	rng.Read(random)
	text := make([]byte, 64<<10)
	words := []byte("the quick brown fox jumps over the lazy dog ")
	for i := range text {
		text[i] = words[i%len(words)]
	}
	small := make([]byte, 512)
	rng.Read(small)
	fakeJPEG := append([]byte{0xFF, 0xD8, 0xFF, 0xE0}, text[:32<<10]...)
	return map[string][]byte{"random": random, "text": text, "small": small, "fake-jpeg": fakeJPEG}
}

// sortedNames returns the keys of m in order, so failures are stable.
func sortedNames(m map[string][]byte) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// resetSizeCache empties the cache so the next call is a cold miss.
func resetSizeCache() {
	sizeCache.Lock()
	sizeCache.m = nil
	sizeCache.Unlock()
}

// countingData returns a data callback for TransmitSizeKeyed that
// counts how often the cache materialises the payload.
func countingData(data []byte, calls *int) func() []byte {
	return func() []byte {
		*calls++
		return data
	}
}

// TestTransmitSizeCacheExact proves the size cache is
// invisible: repeated calls — cold, warm, and after mutation of an
// unrelated buffer — return exactly the uncached DEFLATE count.
func TestTransmitSizeCacheExact(t *testing.T) {
	all := contents(t)
	for _, name := range sortedNames(all) {
		data := all[name]
		want := countDeflate(data)
		for i := 0; i < 3; i++ {
			if got := TransmitSize(Always, data); got != want {
				t.Fatalf("%s call %d: TransmitSize = %d, want %d", name, i, got, want)
			}
		}
		// Equal content in a different allocation must hit the same
		// entry and the same size.
		clone := append([]byte(nil), data...)
		if got := TransmitSize(Always, clone); got != want {
			t.Fatalf("%s clone: TransmitSize = %d, want %d", name, got, want)
		}
		// Different content must not collide with the cached entry.
		clone[len(clone)/2] ^= 0xFF
		if got, direct := TransmitSize(Always, clone), countDeflate(clone); got != direct {
			t.Fatalf("%s mutated: TransmitSize = %d, want %d", name, got, direct)
		}
	}
}

// TestTransmitSizeCacheConcurrent hammers the cache from many
// goroutines over a shared content set — the campaign engine's
// access pattern, where parallel repetitions re-plan equal chunks.
// Run with -race (CI does) to prove the locking.
func TestTransmitSizeCacheConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	payloads := make([][]byte, 8)
	want := make([]int64, len(payloads))
	for i := range payloads {
		payloads[i] = make([]byte, 16<<10+i)
		rng.Read(payloads[i])
		want[i] = countDeflate(payloads[i])
	}
	var wg sync.WaitGroup
	errc := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				k := (g + i) % len(payloads)
				if got := TransmitSize(Always, payloads[k]); got != want[k] {
					errc <- nil
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	if len(errc) > 0 {
		t.Fatal("concurrent TransmitSize returned a wrong size")
	}
}

// TestSizeCacheReset proves the entry bound resets the one cache
// instead of growing without limit — whether it fills with hash keys
// from eager payloads or with descriptor keys — and that results stay
// exact across the reset generation.
func TestSizeCacheReset(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	probe := make([]byte, sizeCacheMinLen)
	rng.Read(probe)
	want := countDeflate(probe)
	if got := TransmitSize(Always, probe); got != want {
		t.Fatalf("probe = %d, want %d", got, want)
	}
	probeKey := ContentKey{Gen: 7, Seed: -1, Size: sizeCacheMinLen, Len: sizeCacheMinLen}
	if got := TransmitSizeKeyed(Smart, probeKey, sizeCacheMinLen, func() []byte { return probe }); got != want {
		t.Fatalf("keyed probe = %d, want %d", got, want)
	}
	// Overflow the generation with unique contents, alternating the
	// two key kinds.
	buf := make([]byte, sizeCacheMinLen)
	for i := 0; i < sizeCacheMaxEntries+10; i++ {
		rng.Read(buf)
		if i%2 == 0 {
			TransmitSize(Always, buf)
		} else {
			key := ContentKey{Gen: 7, Seed: int64(i), Size: sizeCacheMinLen, Len: sizeCacheMinLen}
			TransmitSizeKeyed(Always, key, sizeCacheMinLen, func() []byte { return buf })
		}
	}
	sizeCache.RLock()
	n := len(sizeCache.m)
	sizeCache.RUnlock()
	if n > sizeCacheMaxEntries {
		t.Fatalf("cache grew to %d entries, bound is %d", n, sizeCacheMaxEntries)
	}
	// The probe may have been evicted by the reset; the size must not
	// have changed either way.
	if got := TransmitSize(Always, probe); got != want {
		t.Fatalf("probe after reset = %d, want %d", got, want)
	}
	if got := TransmitSizeKeyed(Smart, probeKey, sizeCacheMinLen, func() []byte { return probe }); got != want {
		t.Fatalf("keyed probe after reset = %d, want %d", got, want)
	}
}

// TestCompressingPoliciesShareOneDeflate pins the point of keying by
// content alone: Smart on content that does not sniff as compressed is
// Always, so Dropbox and Google Drive uploading the same chunk
// materialise and DEFLATE it once, in either order.
func TestCompressingPoliciesShareOneDeflate(t *testing.T) {
	text := contents(t)["text"]
	want := countDeflate(text)
	for i, order := range [][2]Policy{{Always, Smart}, {Smart, Always}} {
		resetSizeCache()
		key := ContentKey{Gen: 9, Seed: int64(i), Size: int64(len(text)), Len: int64(len(text))}
		calls := 0
		for _, p := range order {
			if got := TransmitSizeKeyed(p, key, int64(len(text)), countingData(text, &calls)); got != want {
				t.Fatalf("%v then %v: %v = %d, want %d", order[0], order[1], p, got, want)
			}
		}
		if calls != 1 {
			t.Fatalf("%v then %v: data() called %d times, want 1", order[0], order[1], calls)
		}
	}
}

// TestSmartMissSkipsDeflate checks the lazy size: a Smart miss on a
// fake JPEG records the verdict and returns the raw length without
// running DEFLATE; a later Always on the same key fills in the exact
// size, and from then on both policies hit.
func TestSmartMissSkipsDeflate(t *testing.T) {
	resetSizeCache()
	fake := contents(t)["fake-jpeg"]
	raw := int64(len(fake))
	key := ContentKey{Gen: 9, Seed: 100, Size: raw, Len: raw}
	calls := 0
	if got := TransmitSizeKeyed(Smart, key, raw, countingData(fake, &calls)); got != raw {
		t.Fatalf("Smart on fake JPEG = %d, want raw %d", got, raw)
	}
	sizeCache.RLock()
	e := sizeCache.m[key]
	sizeCache.RUnlock()
	if !e.looksCompressed || e.size >= 0 {
		t.Fatalf("after Smart miss: entry %+v, want verdict set and no size", e)
	}
	want := countDeflate(fake)
	if got := TransmitSizeKeyed(Always, key, raw, countingData(fake, &calls)); got != want {
		t.Fatalf("Always after Smart = %d, want %d", got, want)
	}
	if calls != 2 {
		t.Fatalf("data() called %d times, want 2 (verdict, then size)", calls)
	}
	if TransmitSizeKeyed(Smart, key, raw, countingData(fake, &calls)) != raw ||
		TransmitSizeKeyed(Always, key, raw, countingData(fake, &calls)) != want || calls != 2 {
		t.Fatalf("warm calls: data() called %d times, want 2", calls)
	}
}

// TestTransmitSizeMatchesApply checks both size entry points against
// the bytes Apply would transmit, for every policy and content, cold
// and warm.
func TestTransmitSizeMatchesApply(t *testing.T) {
	resetSizeCache()
	all := contents(t)
	for i, name := range sortedNames(all) {
		data := all[name]
		key := ContentKey{Gen: 9, Seed: int64(200 + i), Size: int64(len(data)), Len: int64(len(data))}
		for _, p := range []Policy{None, Always, Smart} {
			want := int64(len(Apply(p, data).Data))
			for pass := 0; pass < 2; pass++ {
				if got := TransmitSize(p, data); got != want {
					t.Fatalf("%s %v pass %d: TransmitSize = %d, want %d", name, p, pass, got, want)
				}
				if got := TransmitSizeKeyed(p, key, int64(len(data)), func() []byte { return data }); got != want {
					t.Fatalf("%s %v pass %d: TransmitSizeKeyed = %d, want %d", name, p, pass, got, want)
				}
			}
		}
	}
}
