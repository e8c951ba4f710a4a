// Package compressor implements the transmission-compression policies
// observed in the study (Sect. 4.5):
//
//   - None: transmit raw (SkyDrive, Wuala, Cloud Drive).
//   - Always: compress every payload regardless of content (Dropbox —
//     which therefore wastes CPU and bytes on JPEGs).
//   - Smart: sniff the content type first and skip formats that are
//     already compressed (Google Drive, which the paper caught by
//     feeding it fake JPEGs: JPEG header, text body — Google Drive
//     trusts the header and skips compression, Fig. 5c).
//
// Compression is real DEFLATE via compress/flate, so upload volumes
// inherit genuine content-dependent ratios: dictionary text shrinks
// ~3-4x, random bytes grow slightly, fake JPEGs shrink only under the
// Always policy. Transmit sizes are memoised in one cache keyed by
// content identity alone, holding the sniff verdict and the DEFLATE
// size, so the two compressing policies share each DEFLATE.
package compressor

import (
	"bytes"
	"compress/flate"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sync"
)

// Policy selects a compression behaviour.
type Policy int

const (
	// None never compresses.
	None Policy = iota
	// Always compresses every payload.
	Always
	// Smart compresses unless the content sniffs as an
	// already-compressed format.
	Smart
)

// String returns the policy name used in Table 1.
func (p Policy) String() string {
	switch p {
	case None:
		return "no"
	case Always:
		return "always"
	case Smart:
		return "smart"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// Level is the flate level used by Always and Smart. Level 6 is the
// usual default trade-off.
const Level = 6

// Result reports what happened to one payload.
type Result struct {
	Data       []byte
	Compressed bool
}

// Apply runs the policy over one payload and returns the bytes to
// transmit. The input is never modified; when compression is skipped
// the input slice is returned as-is.
func Apply(p Policy, data []byte) Result {
	switch p {
	case None:
		return Result{Data: data}
	case Smart:
		if LooksCompressed(data) {
			return Result{Data: data}
		}
		return deflate(data)
	case Always:
		return deflate(data)
	default:
		panic(fmt.Sprintf("compressor: unknown policy %d", int(p)))
	}
}

// writers pools flate compressor state (several hundred kB each, the
// dominant allocation of the old per-call flate.NewWriter) across the
// many per-chunk size computations of a benchmark campaign. DEFLATE
// output depends only on the input and level, so pooling never changes
// a transmitted size.
var writers = sync.Pool{New: func() any {
	w, err := flate.NewWriter(nil, Level)
	if err != nil {
		panic(err) // only on invalid level
	}
	return w
}}

func deflate(data []byte) Result {
	var buf bytes.Buffer
	w := writers.Get().(*flate.Writer)
	w.Reset(&buf)
	if _, err := w.Write(data); err != nil {
		panic(err) // bytes.Buffer cannot fail
	}
	if err := w.Close(); err != nil {
		panic(err)
	}
	writers.Put(w)
	return Result{Data: buf.Bytes(), Compressed: true}
}

// countWriter discards output, keeping only its size.
type countWriter int64

func (c *countWriter) Write(p []byte) (int, error) {
	*c += countWriter(len(p))
	return len(p), nil
}

// TransmitSize returns the transmitted byte count Apply would produce
// without materialising the compressed output — the upload planner
// only ever needs the size. The count is exact: DEFLATE is
// deterministic, so counting bytes into a sink yields the same number
// as buffering them, and the size cache below can never change a
// result, only skip recomputing it. Payloads worth caching are keyed
// by their SHA-256.
func TransmitSize(p Policy, data []byte) int64 {
	switch {
	case p == None || p == Smart && LooksCompressed(data):
		return int64(len(data))
	case (p == Always || p == Smart) && len(data) < sizeCacheMinLen:
		return countDeflate(data)
	}
	return TransmitSizeKeyed(p, hashKey(data), int64(len(data)), func() []byte { return data })
}

// Size-only DEFLATE dominates the wall-clock of campaigns against
// compressing services (level-6 flate over every uploaded chunk), and
// benchmark harnesses routinely re-plan identical content: repeated
// engine timings over one seed, the parallel-vs-sequential
// bit-identity checks, and the Fig. 6 matrix, whose (workload,
// repetition) seeds — and therefore file contents — are shared by
// every service. One cache serves them all. It maps a content's
// identity to what both compressing policies need: the LooksCompressed
// verdict and the exact level-6 DEFLATE size. The policy is not part
// of the key, because Smart on content that does not sniff as
// compressed is exactly Always: Dropbox and Google Drive uploading
// the same file share one DEFLATE.
const (
	// sizeCacheMinLen keeps tiny eager payloads (delta literal runs,
	// sub-kB files) out of the cache: hashing overhead and map churn
	// would rival the DEFLATE they save.
	sizeCacheMinLen = 4 << 10
	// sizeCacheMaxEntries bounds cache memory (~56 B/entry). When the
	// bound is hit the cache resets wholesale — campaigns reuse a
	// small working set of contents, so a generation that overflows is
	// mostly dead weight anyway.
	sizeCacheMaxEntries = 4096
)

// ContentKey identifies a deterministic payload without hashing it:
// generated benchmark content is a pure function of its descriptor
// (generator id, seed, size) and the chunk window cut from it. Keying
// the size cache on this identity skips not only the DEFLATE but the
// SHA-256 over megabytes of content — and, for lazily planned files,
// the content generation itself. Gen 0 is reserved: it marks a key
// holding the SHA-256 of an eager payload (see TransmitSize).
type ContentKey struct {
	Gen  uint32 // generator id: content kind; 0 for a content hash
	Seed int64  // descriptor stream seed
	Size int64  // whole-content length
	Off  int64  // chunk offset within the content
	Len  int64  // chunk length
}

// hashKey packs a payload's SHA-256 into the four int64 fields of a
// Gen-0 key.
func hashKey(data []byte) ContentKey {
	h := sha256.Sum256(data)
	le := binary.LittleEndian
	return ContentKey{
		Seed: int64(le.Uint64(h[0:])),
		Size: int64(le.Uint64(h[8:])),
		Off:  int64(le.Uint64(h[16:])),
		Len:  int64(le.Uint64(h[24:])),
	}
}

// sizeEntry is what the cache knows about one content. The verdict is
// set when the entry is created; the size is filled lazily, because a
// Smart miss on content that sniffs as compressed never needs it.
type sizeEntry struct {
	size            int64 // level-6 DEFLATE size; -1 until computed
	looksCompressed bool
}

var sizeCache struct {
	sync.RWMutex
	m map[ContentKey]sizeEntry
}

// TransmitSizeKeyed returns the transmitted byte count Apply would
// produce for a payload identified by key, materialising the payload
// via data() only on a cache miss. rawLen is the payload length (known
// without materialising); None returns it without touching the cache,
// and so does Smart once the cached verdict says the content looks
// compressed. Sizes are exact: the cache can only skip recomputing.
func TransmitSizeKeyed(p Policy, key ContentKey, rawLen int64, data func() []byte) int64 {
	switch p {
	case None:
		return rawLen
	case Always, Smart:
	default:
		panic(fmt.Sprintf("compressor: unknown policy %d", int(p)))
	}
	sizeCache.RLock()
	e, ok := sizeCache.m[key]
	sizeCache.RUnlock()
	// An entry lacks a size only when its content sniffed as
	// compressed, and then only Always needs one.
	if !ok || p == Always && e.size < 0 {
		b := data()
		if !ok {
			e = sizeEntry{size: -1, looksCompressed: LooksCompressed(b)}
		}
		if p == Always || !e.looksCompressed {
			e.size = countDeflate(b)
		}
		sizeCache.Lock()
		if sizeCache.m == nil || len(sizeCache.m) >= sizeCacheMaxEntries {
			sizeCache.m = make(map[ContentKey]sizeEntry, 256)
		}
		// A concurrent miss may have filled the size already; keep it.
		if old, had := sizeCache.m[key]; !had || old.size < 0 {
			sizeCache.m[key] = e
		}
		sizeCache.Unlock()
	}
	if p == Smart && e.looksCompressed {
		return rawLen
	}
	return e.size
}

// countDeflate runs the real level-6 DEFLATE into a counting sink.
func countDeflate(data []byte) int64 {
	var n countWriter
	w := writers.Get().(*flate.Writer)
	w.Reset(&n)
	if _, err := w.Write(data); err != nil {
		panic(err) // countWriter cannot fail
	}
	if err := w.Close(); err != nil {
		panic(err)
	}
	writers.Put(w)
	return int64(n)
}

// Decompress reverses Apply for a compressed result.
func Decompress(data []byte) ([]byte, error) {
	r := flate.NewReader(bytes.NewReader(data))
	defer r.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(r); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// LooksCompressed sniffs magic numbers of common already-compressed
// formats. This is the "verify the file format before trying to
// compress it" heuristic the paper suggests and attributes to Google
// Drive. It inspects only the header — which is exactly why a fake
// JPEG (JPEG header, text payload) defeats it.
func LooksCompressed(data []byte) bool {
	if len(data) < 4 {
		return false
	}
	switch {
	case data[0] == 0xFF && data[1] == 0xD8 && data[2] == 0xFF: // JPEG
		return true
	case data[0] == 0x89 && data[1] == 'P' && data[2] == 'N' && data[3] == 'G': // PNG
		return true
	case data[0] == 0x1F && data[1] == 0x8B: // gzip
		return true
	case data[0] == 'P' && data[1] == 'K' && (data[2] == 3 || data[2] == 5): // zip
		return true
	case data[0] == 'B' && data[1] == 'Z' && data[2] == 'h': // bzip2
		return true
	case len(data) >= 12 && string(data[4:8]) == "ftyp": // MP4 family
		return true
	case data[0] == 'O' && data[1] == 'g' && data[2] == 'g' && data[3] == 'S': // Ogg
		return true
	case data[0] == 0xFF && (data[1]&0xE0) == 0xE0: // MPEG audio frame
		return true
	default:
		return false
	}
}
