package relog

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// checkedChunk decodes a chunk body as DecodeChunk does, but reads every
// field through the checked readers alone (uvarint, varint, count, pid,
// ...), without the decoder's inline fast paths. It is the reference
// those fast paths must agree with: the same chunk, the same bytes used
// and the same error.
func checkedChunk(b []byte, pid int, cid, prevTS, prevCID int64, startSN SN) (*Chunk, int, error) {
	d := decoder{b: b}
	var a arena
	c := &Chunk{PID: pid, CID: cid, StartSN: startSN}
	refs := func(what string) []ChunkRef {
		rs := take(&a, &a.refs, d.count(what, 2))
		for i := 0; i < len(rs) && d.err == nil; i++ {
			rs[i] = ChunkRef{PID: d.pid(), CID: d.varint()}
		}
		return rs
	}
	size := d.uvarint()
	if d.err == nil && (int64(startSN) < 1 || size > maxChunkSize || int64(size) > maxSN-int64(startSN)) {
		d.fail("chunk size %d out of range at start SN %d", size, int64(startSN))
	}
	if d.err != nil {
		return nil, d.pos, d.err
	}
	c.EndSN = startSN + SN(size) - 1
	c.TS = prevTS + d.varint()
	c.Preds = refs("pred count")
	c.DSet = take(&a, &a.dset, d.count("D_set count", 3))
	for i := 0; i < len(c.DSet) && d.err == nil; i++ {
		e := &c.DSet[i]
		e.Offset = d.offset32()
		e.IsLoad = d.byte()&1 != 0
		if e.IsLoad {
			e.Value = d.u64()
		}
		e.Pred = refs("D_set pred count")
	}
	c.PSet = take(&a, &a.pset, d.count("P_set count", 2))
	for i := 0; i < len(c.PSet) && d.err == nil; i++ {
		back := d.varint()
		c.PSet[i] = PEntry{SrcCID: prevCID - back, Offset: d.offset32()}
	}
	c.VLog = take(&a, &a.vlog, d.count("V_log count", 9))
	for i := 0; i < len(c.VLog) && d.err == nil; i++ {
		c.VLog[i] = VEntry{Offset: d.offset32(), Value: d.u64()}
	}
	if d.err != nil {
		return nil, d.pos, d.err
	}
	return c, d.pos, nil
}

// agreeWithChecked decodes b through DecodeChunk and through a log that
// frames it as core 0's only chunk, and fails t unless both agree with
// checkedChunk. It returns checkedChunk's error. The log's seven more
// cores have no chunks; their zero counts keep a short body inside the
// bound on core 0's chunk count.
func agreeWithChecked(t *testing.T, b []byte) error {
	t.Helper()
	want, wantN, wantErr := checkedChunk(b, 0, 0, 0, 0, 1)
	got, gotN, gotErr := DecodeChunk(b, 0, 0, 0, 0, 1)
	if !reflect.DeepEqual(got, want) || gotN != wantN || !reflect.DeepEqual(gotErr, wantErr) {
		t.Fatalf("DecodeChunk(% x) = %+v, %d, %v; checked readers give %+v, %d, %v",
			b, got, gotN, gotErr, want, wantN, wantErr)
	}

	prefix := putUvarint(putUvarint(putUvarint(nil, 8), 1), uint64(len(b)))
	l, err := DecodeLog(append(append(prefix, b...), make([]byte, 7)...))
	var wantLogErr error
	switch {
	case wantErr != nil:
		wantLogErr = &CorruptError{Pos: len(prefix), What: fmt.Sprintf("core 0 chunk 0: %v", wantErr)}
	case wantN != len(b):
		wantLogErr = &CorruptError{Pos: len(prefix),
			What: fmt.Sprintf("core 0 chunk 0: length prefix says %d bytes, body used %d", len(b), wantN)}
	}
	if wantLogErr != nil {
		if !reflect.DeepEqual(err, wantLogErr) {
			t.Fatalf("DecodeLog of body % x: got error %v, want %v", b, err, wantLogErr)
		}
	} else if err != nil || !reflect.DeepEqual(l.PerCore[0][0], want) {
		t.Fatalf("DecodeLog of body % x: got %v, %v; want chunk %+v", b, l, err, want)
	}
	return wantErr
}

// TestFastPathEdges drives the decoder's inline fast paths across their
// edges, through DecodeChunk and DecodeLog: each body must decode to
// what the checked readers give, or fail with their error at their
// position.
func TestFastPathEdges(t *testing.T) {
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	uv := func(v uint64) []byte { return putUvarint(nil, v) }
	ref := func(pid uint64, cid int64) []byte { return cat(uv(pid), putVarint(nil, cid)) }
	// body is a one-op chunk with TS delta 1, the given preds, and empty
	// D_set, P_set and V_log.
	body := func(refs ...[]byte) []byte {
		return cat(uv(1), putVarint(nil, 1), uv(uint64(len(refs))), cat(refs...), []byte{0, 0, 0})
	}
	twoByteRefs := func(n int) [][]byte {
		rs := make([][]byte, n)
		for i := range rs {
			rs[i] = ref(uint64(i%16), int64(i%50))
		}
		return rs
	}
	body127 := body(append(twoByteRefs(59), ref(1, 64))...)
	body128 := body(twoByteRefs(61)...)
	if len(body127) != 127 || len(body128) != 128 {
		t.Fatalf("length-prefix bodies have %d and %d bytes, want 127 and 128", len(body127), len(body128))
	}
	cases := []struct {
		name string
		in   []byte
		fail string // "" if the body decodes
	}{
		{"core id 127", body(ref(127, 5)), ""},
		{"core id 128", body(ref(128, 5)), ""},
		{"core id maxCores-1", body(ref(maxCores-1, 5)), ""},
		{"core id maxCores", body(ref(maxCores, 5)), "core id 65536 out of range"},
		{"CID -65", body(ref(3, -65)), ""},
		{"CID -64", body(ref(3, -64)), ""},
		{"CID 63", body(ref(3, 63)), ""},
		{"CID 64", body(ref(3, 64)), ""},
		{"CID 8191", body(ref(3, 8191)), ""},
		{"CID 8192", body(ref(3, 8192)), ""},
		{"CID -8192", body(ref(3, -8192)), ""},
		{"CID -8193", body(ref(3, -8193)), ""},
		{"CID 0 in two bytes", body([]byte{3, 0x80, 0x00}), ""},
		{"CID -1 in two bytes", body([]byte{3, 0x81, 0x00}), ""},
		{"CID 0 in three bytes", body([]byte{3, 0x80, 0x80, 0x00}), ""},
		{"CID varint overflow", body(cat([]byte{3}, bytes.Repeat([]byte{0xff}, 10))), "truncated varint"},
		{"pred count 0", body(), ""},
		{"pred count 127", body(twoByteRefs(127)...), ""},
		{"pred count 128", body(twoByteRefs(128)...), ""},
		{"pred count above the remaining bytes", cat(uv(1), uv(2), uv(3), ref(1, 1), []byte{0, 0, 0}),
			"pred count 3 exceeds the 5 remaining bytes"},
		{"pred count at the remaining bytes", cat(uv(1), uv(2), uv(2), ref(1, 1), []byte{0, 0}), "truncated uvarint"},
		{"D_set count above the remaining bytes", cat(body()[:3], uv(1), []byte{0, 0}), "D_set count 1 exceeds"},
		{"P_set count above the remaining bytes", cat(body()[:3], uv(0), uv(1), uv(0)), "P_set count 1 exceeds"},
		{"V_log count above the remaining bytes", cat(body()[:3], uv(0), uv(0), uv(1), make([]byte, 8)),
			"V_log count 1 exceeds"},
		{"V_log count at the remaining bytes", cat(body()[:3], uv(0), uv(0), uv(1), uv(0), make([]byte, 8)), ""},
		{"ref with a one-byte CID ends the body", cat(uv(1), uv(2), uv(1), ref(1, 5)), "truncated uvarint"},
		{"ref with a two-byte CID ends the body", cat(uv(1), uv(2), uv(1), ref(1, 64)), "truncated uvarint"},
		{"size 127", cat(uv(127), body()[1:]), ""},
		{"size 128", cat(uv(128), body()[1:]), ""},
		{"TS delta -64", cat(uv(1), putVarint(nil, -64), body()[2:]), ""},
		{"TS delta -65", cat(uv(1), putVarint(nil, -65), body()[2:]), ""},
		{"TS delta 63", cat(uv(1), putVarint(nil, 63), body()[2:]), ""},
		{"TS delta 64", cat(uv(1), putVarint(nil, 64), body()[2:]), ""},
		{"body of 127 bytes", body127, ""},
		{"body of 128 bytes", body128, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := agreeWithChecked(t, tc.in)
			switch {
			case tc.fail == "" && err != nil:
				t.Fatalf("body % x failed: %v", tc.in, err)
			case tc.fail != "" && (err == nil || !strings.Contains(err.Error(), tc.fail)):
				t.Fatalf("body % x: got %v, want an error containing %q", tc.in, err, tc.fail)
			}
		})
	}

	// Every truncation of a body whose refs take each shape leaves the
	// last ref 0 to 3 bytes short or cuts a count or the header.
	refs := body(ref(127, 8191), ref(128, -65), ref(1, 1), ref(2, 64), ref(maxCores-1, 8192))
	for cut := 0; cut <= len(refs); cut++ {
		agreeWithChecked(t, refs[:cut])
	}
}
