package client

import (
	"repro/internal/chunker"
	"repro/internal/compressor"
	"repro/internal/cryptobox"
	"repro/internal/dedup"
	"repro/internal/deltaenc"
	"repro/internal/workload"
)

// TransferUnit is one storage upload the transfer layer must perform:
// Bytes on the wire (after delta/compression/encryption), for a chunk
// that originally covered RawBytes of file content. Deduplicated
// chunks never become units.
type TransferUnit struct {
	Path     string
	Bytes    int64
	RawBytes int64
	// Commit indicates the client waits for the per-chunk
	// acknowledgment before sending the next unit of this file.
	Commit bool
}

// FilePlan is the upload plan for one changed file.
type FilePlan struct {
	Path      string
	FileBytes int64 // current file size
	Units     []TransferUnit
	// DedupSkipped counts content bytes NOT uploaded thanks to
	// client-side deduplication.
	DedupSkipped int64
}

// UploadBytes sums the unit sizes.
func (p FilePlan) UploadBytes() int64 {
	var n int64
	for _, u := range p.Units {
		n += u.Bytes
	}
	return n
}

// planner turns changed files into upload plans, maintaining the
// client-side state the capabilities need: the manifest of known chunk
// hashes per path (deduplication) and per-chunk delta signatures
// (delta encoding). State that no capability of the profile will ever
// read — chunk hashes without dedup, signatures without delta
// encoding — is not computed at all.
//
// Files arrive as workload.Content, which may be a lazy descriptor.
// The planner materialises at the chunk boundary, and only when a
// capability genuinely needs bytes: content-defined chunking, hashing
// for dedup, delta signatures, encryption, or a miss in the
// compressor's content-keyed size cache. A capability-poor profile
// (Cloud Drive: no chunking, no compression) plans a whole upload from
// the descriptor alone — zero content bytes ever exist — which removes
// what used to be ~50% of its campaign repetitions. Materialisation goes into pooled buffers
// (workload.GetBuffer) released at the end of each plan; nothing the
// planner retains (hashes, signatures, sizes) aliases them.
type planner struct {
	profile  Profile
	chunker  chunker.Chunker // nil for NoChunking
	store    *dedup.Store    // the service's server-side chunk store
	manifest *dedup.Manifest
	sigs     map[string][]*deltaenc.Signature // per path, per chunk index

	// Scratch buffers reused across chunks and files.
	encBuf []byte // ciphertext (Encryption)
	litBuf []byte // delta literal runs (DeltaEncoding)
}

func newPlanner(p Profile, store *dedup.Store) *planner {
	pl := &planner{
		profile:  p,
		store:    store,
		manifest: dedup.NewManifest(),
		sigs:     make(map[string][]*deltaenc.Signature),
	}
	switch p.ChunkMode {
	case FixedChunks:
		pl.chunker = chunker.NewFixed(p.ChunkSize)
	case VariableChunks:
		pl.chunker = chunker.NewContentDefined(p.ChunkSize)
	}
	return pl
}

// split applies the profile's chunking mode.
func (pl *planner) split(data []byte) []chunker.Chunk {
	if pl.chunker != nil {
		return pl.chunker.Split(data)
	}
	if len(data) == 0 {
		return nil
	}
	return []chunker.Chunk{{Offset: 0, Data: data}}
}

// descChunkKey names one chunk of a descriptor's content for the
// compressor's size cache: the chunk bytes are a pure function of
// (kind, seed, size, offset, length), so the cache never needs to
// hash — or even generate — the content to recognise it. Gen is the
// kind plus one, because Gen 0 marks a content-hash key. The key
// carries no policy: every compressing service planning this chunk
// hits the same entry.
func descChunkKey(d workload.Descriptor, off, ln int64) compressor.ContentKey {
	return compressor.ContentKey{Gen: uint32(d.Kind) + 1, Seed: d.Seed, Size: d.Size, Off: off, Len: ln}
}

// PlanFile computes the upload plan for one created or modified file,
// updating client and server state (the server store learns the new
// chunks; this models the upload's effect and keeps timing concerns in
// the transfer layer).
func (pl *planner) PlanFile(path string, content workload.Content) FilePlan {
	if plan, ok := pl.planLazy(path, content); ok {
		return plan
	}
	if !content.Lazy() {
		return pl.planBytes(path, content.Bytes(), workload.Descriptor{}, false)
	}
	// A capability needs bytes: materialise once into a pooled buffer
	// for the duration of this plan.
	desc, _ := content.Descriptor()
	buf := content.AppendTo(workload.GetBuffer(content.Size()))
	plan := pl.planBytes(path, buf, desc, true)
	workload.PutBuffer(buf)
	return plan
}

// planLazy plans a descriptor-backed file without materialising it.
// It applies when chunk boundaries are computable from the size alone
// (no content-defined chunking) and no capability hashes, signs or
// encrypts content. Transmit sizes come from the chunk length (no
// compression) or the compressor's size cache under a descriptor key;
// only a cache miss generates bytes, once, into a pooled buffer.
func (pl *planner) planLazy(path string, content workload.Content) (FilePlan, bool) {
	prof := pl.profile
	desc, lazy := content.Descriptor()
	if !lazy || prof.ChunkMode == VariableChunks ||
		prof.Dedup || prof.DeltaEncoding || prof.Encryption {
		return FilePlan{}, false
	}

	size := content.Size()
	plan := FilePlan{Path: path, FileBytes: size}
	var data []byte // materialised at most once, on a cache miss
	for off := int64(0); off < size; {
		ln := size - off
		if prof.ChunkMode == FixedChunks && ln > prof.ChunkSize {
			ln = prof.ChunkSize
		}
		o := off
		wire := compressor.TransmitSizeKeyed(prof.Compression, descChunkKey(desc, o, ln), ln,
			func() []byte {
				if data == nil {
					data = content.AppendTo(workload.GetBuffer(size))
				}
				return data[o : o+ln]
			})
		plan.Units = append(plan.Units, TransferUnit{
			Path:     path,
			Bytes:    wire,
			RawBytes: ln,
			Commit:   prof.ChunkCommit,
		})
		off += ln
	}
	if data != nil {
		workload.PutBuffer(data)
	}
	return plan, true
}

// planBytes is the materialised planning path. haveDesc marks data as
// the content of desc, enabling descriptor-keyed compression sizes.
func (pl *planner) planBytes(path string, data []byte, desc workload.Descriptor, haveDesc bool) FilePlan {
	prof := pl.profile
	plan := FilePlan{Path: path, FileBytes: int64(len(data))}

	chunks := pl.split(data)
	oldSigs := pl.sigs[path]
	var newHashes []dedup.Hash
	if prof.Dedup {
		newHashes = make([]dedup.Hash, 0, len(chunks))
	}
	var newSigs []*deltaenc.Signature
	if prof.DeltaEncoding {
		newSigs = make([]*deltaenc.Signature, 0, len(chunks))
	}

	for i, ch := range chunks {
		payload := ch.Data
		if prof.Encryption {
			// Convergent encryption: equal chunks keep equal
			// ciphertexts, so dedup below still works. The scratch
			// buffer is safe to reuse because nothing below retains
			// the ciphertext — the store is content-addressed by
			// hash and size only.
			payload, _ = cryptobox.EncryptInto(pl.encBuf[:0], ch.Data)
			pl.encBuf = payload
		}
		var h dedup.Hash
		if prof.Dedup {
			// Content addresses exist to be announced to the server;
			// a client without the capability never computes them.
			h = dedup.HashBytes(payload)
			newHashes = append(newHashes, h)
		}
		if prof.DeltaEncoding {
			newSigs = append(newSigs, deltaenc.Sign(ch.Data, deltaenc.DefaultBlockSize))
		}

		if prof.Dedup && !pl.store.PutHashed(h, int64(len(payload))) {
			// One lookup decides both the dedup verdict and the
			// insert: an already-present chunk is the hit, a new one
			// is stored and uploaded below.
			plan.DedupSkipped += ch.Len()
			continue
		}

		wire := pl.unitBytes(i, ch, payload, oldSigs, desc, haveDesc)
		plan.Units = append(plan.Units, TransferUnit{
			Path:     path,
			Bytes:    wire,
			RawBytes: ch.Len(),
			Commit:   prof.ChunkCommit,
		})
	}

	if prof.Dedup {
		pl.manifest.Set(path, newHashes)
	}
	if prof.DeltaEncoding {
		pl.sigs[path] = newSigs
	}
	return plan
}

// unitBytes computes the wire size of one chunk upload, applying
// delta encoding against the previous revision's same-index chunk
// (Dropbox applies its rsync per chunk, Sect. 4.4) and then the
// compression policy. Only transmitted sizes matter to the plan, so
// compression runs in size-only mode and never materialises output;
// descriptor-backed plaintext chunks resolve through the keyed size
// cache, skipping even the content hash on repeats.
func (pl *planner) unitBytes(idx int, ch chunker.Chunk, payload []byte, oldSigs []*deltaenc.Signature, desc workload.Descriptor, haveDesc bool) int64 {
	prof := pl.profile
	if prof.DeltaEncoding && idx < len(oldSigs) && oldSigs[idx] != nil {
		d := deltaenc.Compute(oldSigs[idx], ch.Data)
		// The literal bytes still benefit from compression; the
		// copy-op framing does not.
		lits := pl.litBuf[:0]
		for _, op := range d.Ops {
			if !op.Copy {
				lits = append(lits, op.Literal...)
			}
		}
		pl.litBuf = lits
		return compressor.TransmitSize(prof.Compression, lits) + (d.WireSize() - d.LiteralBytes())
	}
	if haveDesc && !prof.Encryption {
		return compressor.TransmitSizeKeyed(prof.Compression, descChunkKey(desc, ch.Offset, ch.Len()), ch.Len(),
			func() []byte { return ch.Data })
	}
	return compressor.TransmitSize(prof.Compression, payload)
}

// ForgetFile drops client-side state for a deleted path. The server
// store is intentionally left alone: that is what lets deduplication
// succeed when the file is later restored (Sect. 4.3 step iv).
func (pl *planner) ForgetFile(path string) {
	pl.manifest.Delete(path)
	delete(pl.sigs, path)
}

// ManifestBytes is the metadata volume for announcing n chunk hashes
// to the server during a dedup check.
func ManifestBytes(nChunks int) int64 {
	return int64(nChunks) * (dedup.HashSize + 8)
}
