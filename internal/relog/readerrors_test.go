package relog

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"
)

// readErrorsGolden pins what the read path reports on damaged logs:
// one line per input, its name, its number of cases and the SHA-256 of
// their results (see readErrorLines).
const readErrorsGolden = "testdata/read_errors.golden"

// readErrorInputs are the logs the read-path golden damages: the in-code
// fuzz seeds, one recorded fixture log (radix, seed 1: D_set and P_set
// entries on four cores) and longLog, whose chunk ids, sizes and TS
// deltas need two-byte varints.
func readErrorInputs(t *testing.T) (names []string, logs [][]byte) {
	t.Helper()
	for i, s := range logSeeds() {
		names, logs = append(names, fmt.Sprintf("seed%d", i)), append(logs, s)
	}
	raw, err := os.ReadFile("testdata/fuzz/FuzzDecodeLog/seed-radix-s1")
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(raw), "\n")
	if len(lines) < 2 || !strings.HasPrefix(lines[1], "[]byte(") {
		t.Fatalf("seed-radix-s1 is not a fuzz corpus entry")
	}
	fixture, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[1], "[]byte("), ")"))
	if err != nil {
		t.Fatal(err)
	}
	names, logs = append(names, "radix-s1"), append(logs, []byte(fixture))
	names, logs = append(names, "long"), append(logs, EncodeLog(longLog()))
	return names, logs
}

// longLog is a valid two-core log of 100 chunks per core whose later
// chunks name CIDs, sizes and TS deltas too large for one varint byte.
func longLog() *Log {
	l := NewLog(2)
	for pid := 0; pid < 2; pid++ {
		start, ts := SN(1), int64(pid)
		for cid := int64(0); cid < 100; cid++ {
			size := 1 + cid%5
			if cid%30 == 29 {
				size, ts = 200, ts+100
			}
			c := &Chunk{PID: pid, CID: cid, StartSN: start, EndSN: start + SN(size) - 1, TS: ts}
			if cid > 0 {
				c.Preds = append(c.Preds, ChunkRef{PID: 1 - pid, CID: cid - 1})
			}
			if cid >= 70 {
				c.Preds = append(c.Preds, ChunkRef{PID: pid, CID: cid - 70})
			}
			if cid%10 == 0 {
				c.DSet = []DEntry{{Offset: 0, Pred: []ChunkRef{{PID: 1 - pid, CID: cid / 2}}}}
			}
			if cid%10 == 1 {
				c.PSet = []PEntry{{SrcCID: cid - 1, Offset: 0}}
			}
			if cid%7 == 0 {
				c.VLog = []VEntry{{Offset: int32(size - 1), Value: uint64(cid)}}
			}
			l.Append(c)
			start, ts = c.EndSN+1, ts+3
		}
	}
	return l
}

// readErrorLines damages b every way the golden covers: every
// truncation, then every single-byte XOR with 0x01, 0x80 and 0xff. Each
// case's line holds DecodeLog's error, or when the case decodes,
// Validate's error or "ok".
func readErrorLines(t *testing.T, b []byte) []string {
	var lines []string
	check := func(label string, in []byte) {
		l, err := DecodeLog(in)
		var ce *CorruptError
		switch {
		case err != nil && !errors.As(err, &ce):
			t.Fatalf("%s: decode error %v is not a *CorruptError", label, err)
		case err != nil:
			lines = append(lines, fmt.Sprintf("%s: corrupt at %d: %s", label, ce.Pos, ce.What))
		default:
			if verr := Validate(l); verr != nil {
				lines = append(lines, fmt.Sprintf("%s: %v", label, verr))
			} else {
				lines = append(lines, label+": ok")
			}
		}
	}
	for cut := 0; cut < len(b); cut++ {
		check(fmt.Sprintf("cut %d", cut), b[:cut])
	}
	mut := make([]byte, len(b))
	for i := range b {
		for _, x := range []byte{0x01, 0x80, 0xff} {
			copy(mut, b)
			mut[i] ^= x
			check(fmt.Sprintf("byte %d ^ %#02x", i, x), mut)
		}
	}
	return lines
}

// TestReadPathErrorsGolden: DecodeLog and Validate report exactly the
// pinned result — error position and text, or acceptance — on every
// truncation and every single-byte XOR of each input. Run with
// PACIFIER_UPDATE_READ_ERRORS=1 to rewrite the golden; a change that
// keeps the read path's errors must pass without that. The radix-s1
// line also changes when the determinism fixture rewrites the fuzz
// corpus it is read from.
func TestReadPathErrorsGolden(t *testing.T) {
	names, logs := readErrorInputs(t)
	var got strings.Builder
	got.WriteString("# input, cases, SHA-256 of DecodeLog/Validate results (readerrors_test.go)\n")
	for i, b := range logs {
		lines := readErrorLines(t, b)
		sum := sha256.Sum256([]byte(strings.Join(lines, "\n")))
		fmt.Fprintf(&got, "%s %d %x\n", names[i], len(lines), sum)
	}
	if os.Getenv("PACIFIER_UPDATE_READ_ERRORS") != "" {
		if err := os.WriteFile(readErrorsGolden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(readErrorsGolden)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Fatalf("read-path results differ from %s:\ngot:\n%swant:\n%s", readErrorsGolden, got.String(), want)
	}
}
