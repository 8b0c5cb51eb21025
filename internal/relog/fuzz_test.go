package relog

import (
	"bytes"
	"errors"
	"reflect"
	"slices"
	"testing"
)

// The three fuzz targets prove the decode pipeline total over arbitrary
// bytes: any input either decodes into a structure whose re-encoding is
// a fixed point (encode∘decode∘encode is byte-identical) or fails with
// a typed ErrCorrupt — never a panic, never unbounded allocation. The
// checked-in corpus under testdata/fuzz/ is generated from the
// 20-config determinism fixture (TestDeterminismFixture at the repo
// root with PACIFIER_UPDATE_FIXTURE=1), so the fuzzer starts from real
// recorder output rather than having to discover the format.

// entryBudget returns a loose upper bound on how many decoded entries
// an input of n bytes can justify (every entry costs >= 1 byte).
func entryBudget(n int) int { return n + 16 }

// FuzzDecodeChunk drives the single-chunk decoder with arbitrary bytes
// and context. Its inline fast paths must agree with the checked
// readers on every input (checkedChunk).
func FuzzDecodeChunk(f *testing.F) {
	c := sampleChunk(0, 5, 101)
	f.Add(EncodeChunk(c, 3, 4), int64(3), int64(4), int64(101))
	f.Add(EncodeChunk(&Chunk{PID: 2, StartSN: 1, EndSN: 1}, 0, 0), int64(0), int64(0), int64(1))
	f.Add([]byte{}, int64(0), int64(0), int64(1))
	f.Fuzz(func(t *testing.T, b []byte, prevTS, prevCID, startSN int64) {
		if startSN < 1 || startSN > 1<<40 {
			startSN = 1 // keep within DecodeChunk's caller contract
		}
		c, used, err := DecodeChunk(b, 0, 0, prevTS, prevCID, SN(startSN))
		want, wantUsed, wantErr := checkedChunk(b, 0, 0, prevTS, prevCID, SN(startSN))
		if !reflect.DeepEqual(c, want) || used != wantUsed || !reflect.DeepEqual(err, wantErr) {
			t.Fatalf("DecodeChunk gives %+v, %d, %v; the checked readers give %+v, %d, %v",
				c, used, err, want, wantUsed, wantErr)
		}
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("decode error %v does not wrap ErrCorrupt", err)
			}
			return
		}
		if used > len(b) {
			t.Fatalf("decoder consumed %d of %d bytes", used, len(b))
		}
		if n := len(c.Preds) + len(c.DSet) + len(c.PSet) + len(c.VLog); n > entryBudget(len(b)) {
			t.Fatalf("%d entries decoded from %d bytes", n, len(b))
		}
		// Re-encoding under the same context must be a fixed point.
		e1 := EncodeChunk(c, prevTS, prevCID)
		c2, used2, err := DecodeChunk(e1, 0, 0, prevTS, prevCID, SN(startSN))
		if err != nil || used2 != len(e1) {
			t.Fatalf("re-encoded chunk does not decode: %v (used %d of %d)", err, used2, len(e1))
		}
		if !reflect.DeepEqual(c, c2) {
			t.Fatalf("chunk not a round-trip fixed point:\n %+v\n %+v", c, c2)
		}
	})
}

// FuzzDecodeLog proves DecodeLog, Validate and ComputeStats total over
// arbitrary bytes.
func FuzzDecodeLog(f *testing.F) {
	for _, seed := range logSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		l, err := DecodeLog(b)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("decode error %v does not wrap ErrCorrupt", err)
			}
			return
		}
		if l.TotalChunks() > entryBudget(len(b)) {
			t.Fatalf("%d chunks decoded from %d bytes", l.TotalChunks(), len(b))
		}
		if verr := Validate(l); verr != nil && !errors.Is(verr, ErrInvalid) {
			t.Fatalf("validate error %v does not wrap ErrInvalid", verr)
		}
		_ = l.ComputeStats()
	})
}

// FuzzRoundTrip asserts the fixed-point property: whenever arbitrary
// bytes decode, encode∘decode∘encode is byte-identical. It also holds
// the decoded chunks' slices apart: appending to one chunk's slices
// must leave every other chunk's encoding unchanged (checkNoAliasing).
func FuzzRoundTrip(f *testing.F) {
	for _, seed := range logSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		l, err := DecodeLog(b)
		if err != nil {
			return
		}
		e1 := EncodeLog(l)
		l2, err := DecodeLog(e1)
		if err != nil {
			t.Fatalf("re-encoded log does not decode: %v", err)
		}
		e2 := EncodeLog(l2)
		if !bytes.Equal(e1, e2) {
			t.Fatalf("encode∘decode∘encode not byte-identical: %d vs %d bytes", len(e1), len(e2))
		}
		checkNoAliasing(t, b)
	})
}

// checkNoAliasing decodes b, which must decode, and appends one marker
// element to every slice of every chunk: Preds, each decoded
// DEntry.Pred, DSet, PSet and VLog. Each chunk must then encode exactly
// as an independent copy of it with the same markers appended.
//
// This checks every single-chunk append at once. An append writes only
// the element just past its slice, and decoded slices never overlap, so
// no two appends write the same element. Markers differ from each other
// and from every decodable value (PIDs at or above maxCores, negative
// offsets), so an append that reached another slice's elements would
// change that chunk's encoding.
func checkNoAliasing(t testing.TB, b []byte) {
	t.Helper()
	l, err := DecodeLog(b)
	if err != nil {
		t.Fatalf("input does not decode: %v", err)
	}
	var want [][]byte
	k := 0
	for _, seq := range l.PerCore {
		var prevTS, prevCID int64
		for _, c := range seq {
			cc := cloneChunk(c)
			addMarkers(cc, k)
			want = append(want, EncodeChunk(cc, prevTS, prevCID))
			prevTS, prevCID = c.TS, c.CID
			k++
		}
	}
	k = 0
	for _, seq := range l.PerCore {
		for _, c := range seq {
			addMarkers(c, k)
			k++
		}
	}
	k = 0
	for pid, seq := range l.PerCore {
		var prevTS, prevCID int64
		for _, c := range seq {
			if got := EncodeChunk(c, prevTS, prevCID); !bytes.Equal(got, want[k]) {
				t.Fatalf("core %d chunk %d changed when chunks were appended to: a decoded slice shares its backing array", pid, c.CID)
			}
			prevTS, prevCID = c.TS, c.CID
			k++
		}
	}
}

// cloneChunk deep-copies c into freshly allocated slices.
func cloneChunk(c *Chunk) *Chunk {
	cc := *c
	cc.Preds = slices.Clone(c.Preds)
	cc.DSet = slices.Clone(c.DSet)
	for i := range cc.DSet {
		cc.DSet[i].Pred = slices.Clone(c.DSet[i].Pred)
	}
	cc.PSet = slices.Clone(c.PSet)
	cc.VLog = slices.Clone(c.VLog)
	return &cc
}

// addMarkers appends chunk k's marker to each of c's slices.
func addMarkers(c *Chunk, k int) {
	m := ChunkRef{PID: maxCores + k, CID: int64(k)}
	off := int32(-1 - k)
	for i := range c.DSet {
		c.DSet[i].Pred = append(c.DSet[i].Pred, m)
	}
	c.Preds = append(c.Preds, m)
	c.DSet = append(c.DSet, DEntry{Offset: off})
	c.PSet = append(c.PSet, PEntry{SrcCID: int64(k), Offset: off})
	c.VLog = append(c.VLog, VEntry{Offset: off, Value: uint64(k)})
}

// logSeeds builds a handful of in-code corpus entries covering every
// wire section (the richer recorder-derived corpus lives in testdata/).
func logSeeds() [][]byte {
	var seeds [][]byte
	l := NewLog(3)
	start := []SN{1, 1, 1}
	for pid := 0; pid < 3; pid++ {
		for cid := int64(0); cid < 3; cid++ {
			c := sampleChunk(pid, cid, start[pid])
			start[pid] = c.EndSN + 1
			l.Append(c)
		}
	}
	seeds = append(seeds, EncodeLog(l))
	tiny := NewLog(1)
	tiny.Append(&Chunk{PID: 0, CID: 0, StartSN: 1, EndSN: 1, TS: 0})
	seeds = append(seeds, EncodeLog(tiny))
	seeds = append(seeds, []byte{1, 0}) // one core, zero chunks
	return seeds
}
