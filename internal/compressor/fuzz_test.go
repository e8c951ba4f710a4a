package compressor

import "testing"

// FuzzTransmitSize checks that the size cache never changes a size:
// for every policy, cold and warm calls of TransmitSize and
// TransmitSizeKeyed return len(Apply(p, data).Data), and so do the
// compressing policies interleaved on one warm entry in both orders.
// The committed corpus under testdata/fuzz/FuzzTransmitSize holds an
// empty and a 3-byte payload, a fake JPEG (JPEG header, text body), a
// gzip-magic and an MPEG-frame-header payload, and 5 kB of text.
func FuzzTransmitSize(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		raw := int64(len(data))
		key := ContentKey{Gen: 1, Size: raw, Len: raw}
		keyed := func(p Policy) int64 {
			return TransmitSizeKeyed(p, key, raw, func() []byte { return data })
		}
		policies := []Policy{None, Always, Smart}
		want := make(map[Policy]int64, len(policies))
		for _, p := range policies {
			want[p] = int64(len(Apply(p, data).Data))
			resetSizeCache()
			for _, temp := range []string{"cold", "warm"} {
				if got := TransmitSize(p, data); got != want[p] {
					t.Fatalf("%v %s: TransmitSize = %d, Apply = %d", p, temp, got, want[p])
				}
				if got := keyed(p); got != want[p] {
					t.Fatalf("%v %s: TransmitSizeKeyed = %d, Apply = %d", p, temp, got, want[p])
				}
			}
		}
		for _, order := range [][]Policy{{Always, Smart, Always}, {Smart, Always, Smart}} {
			resetSizeCache()
			for _, p := range order {
				if got, direct := keyed(p), TransmitSize(p, data); got != want[p] || direct != want[p] {
					t.Fatalf("order %v, %v: keyed %d, TransmitSize %d, Apply %d", order, p, got, direct, want[p])
				}
			}
		}
	})
}
