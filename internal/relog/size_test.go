package relog

import (
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// corpusLogs returns the encoded logs of the checked-in FuzzDecodeLog
// corpus, which the 20-config determinism fixture records.
func corpusLogs(t *testing.T) [][]byte {
	t.Helper()
	files, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzDecodeLog", "*"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no FuzzDecodeLog corpus: %v", err)
	}
	var logs [][]byte
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
		if len(lines) != 2 || lines[0] != "go test fuzz v1" {
			t.Fatalf("%s: not a one-value corpus entry", f)
		}
		s, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[1], "[]byte("), ")"))
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		logs = append(logs, []byte(s))
	}
	return logs
}

// TestVarintLens checks the size helpers against encoding/binary at
// every length boundary.
func TestVarintLens(t *testing.T) {
	var buf [binary.MaxVarintLen64]byte
	for shift := 0; shift < 64; shift++ {
		for _, v := range []uint64{1<<shift - 1, 1 << shift, 1<<shift + 1, math.MaxUint64 >> shift} {
			if got, want := uvarintLen(v), int64(binary.PutUvarint(buf[:], v)); got != want {
				t.Fatalf("uvarintLen(%#x) = %d, want %d", v, got, want)
			}
			for _, s := range []int64{int64(v), -int64(v), int64(v >> 1), -int64(v >> 1)} {
				if got, want := varintLen(s), int64(binary.PutVarint(buf[:], s)); got != want {
					t.Fatalf("varintLen(%d) = %d, want %d", s, got, want)
				}
			}
		}
	}
	for _, s := range []int64{0, math.MinInt64, math.MaxInt64} {
		if got, want := varintLen(s), int64(binary.PutVarint(buf[:], s)); got != want {
			t.Fatalf("varintLen(%d) = %d, want %d", s, got, want)
		}
	}
}

// TestEncodedSizesMatchEncoding: the arithmetic base and full sizes that
// ComputeStats and EncodeLog use equal the lengths of the encoded pieces,
// for every chunk of the fixture logs and the fuzz seeds, and for a
// chunk whose fields sit at the varint extremes.
func TestEncodedSizesMatchEncoding(t *testing.T) {
	check := func(name string, c *Chunk, prevTS, prevCID int64) {
		t.Helper()
		base, full := encodedSizes(c, prevTS, prevCID)
		if want := int64(len(encodeBase(nil, c, prevTS))) + 3; base != want {
			t.Fatalf("%s: chunk %d/%d base size %d, encoding says %d", name, c.PID, c.CID, base, want)
		}
		if want := int64(len(EncodeChunk(c, prevTS, prevCID))); full != want {
			t.Fatalf("%s: chunk %d/%d full size %d, encoding says %d", name, c.PID, c.CID, full, want)
		}
	}
	logs := append(corpusLogs(t), logSeeds()...)
	chunks := 0
	for i, b := range logs {
		l, err := DecodeLog(b)
		if err != nil {
			t.Fatalf("log %d does not decode: %v", i, err)
		}
		for _, seq := range l.PerCore {
			var prevTS, prevCID int64
			for _, c := range seq {
				check("log "+strconv.Itoa(i), c, prevTS, prevCID)
				prevTS, prevCID = c.TS, c.CID
				chunks++
			}
		}
		if got := EncodeLog(l); string(got) != string(b) {
			t.Fatalf("log %d re-encodes to %d bytes, not its %d", i, len(got), len(b))
		}
	}
	if chunks < 100 {
		t.Fatalf("only %d chunks checked", chunks)
	}
	extreme := &Chunk{PID: 1, CID: math.MaxInt64, StartSN: 1, EndSN: math.MaxInt64 / 2, TS: math.MinInt64,
		Preds: []ChunkRef{{PID: math.MaxInt, CID: math.MinInt64}, {PID: -1, CID: -1}},
		DSet: []DEntry{{Offset: math.MaxInt32, IsLoad: true, Value: math.MaxUint64, Pred: []ChunkRef{{PID: 0, CID: 64}}},
			{Offset: math.MinInt32}},
		PSet: []PEntry{{SrcCID: math.MinInt64, Offset: -1}},
		VLog: []VEntry{{Offset: 127, Value: 1}, {Offset: 128}}}
	check("extreme", extreme, math.MaxInt64, math.MinInt64)
	check("extreme", extreme, 0, 0)
}
