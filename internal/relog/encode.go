package relog

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
)

// The wire format is specified in DESIGN.md ("Log wire format and
// validation invariants"); the encoder below is the normative
// implementation. Decoding treats the input as untrusted: every count
// is bounded by the bytes remaining, every field must round-trip its
// in-memory type, and every failure is a typed *CorruptError — a
// corrupt log is rejected, never panicked or ballooned on.
//
// The Karma baseline is the same stream without the dset/pset/vlog
// sections (their three zero-count varints are charged to Karma too, so
// the comparison is conservative toward Karma).

// Decoding limits: a hostile log must not drive allocation or SN
// arithmetic beyond what its own byte length can justify.
const (
	// maxCores caps the decoded core count (and thus ChunkRef PIDs).
	maxCores = 1 << 16
	// maxChunkSize caps one chunk's operation count. Recorder chunks
	// hold at most MaxChunkOps (default 2048) operations; the cap is
	// deliberately generous.
	maxChunkSize = uint64(1) << 40
	// maxSN bounds sequence numbers so SN arithmetic cannot overflow
	// int64 even when chunk sizes accumulate across a core's stream.
	maxSN = int64(1) << 62
)

func putUvarint(buf []byte, v uint64) []byte { return binary.AppendUvarint(buf, v) }

func putVarint(buf []byte, v int64) []byte { return binary.AppendVarint(buf, v) }

func put64(buf []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(buf, v) }

// uvarintLen is the length of putUvarint's encoding of v.
func uvarintLen(v uint64) int64 { return int64(bits.Len64(v|1)+6) / 7 }

// varintLen is the length of putVarint's (zigzag) encoding of v.
func varintLen(v int64) int64 { return uvarintLen(uint64(v<<1) ^ uint64(v>>63)) }

// EncodeChunk serializes one chunk given the previous chunk's TS and CID
// on the same core (for delta encoding).
func EncodeChunk(c *Chunk, prevTS, prevCID int64) []byte {
	b := make([]byte, 0, baseSize(c, prevTS)+setsSize(c, prevCID))
	b = encodeBase(b, c, prevTS)
	return encodeSets(b, c, prevCID)
}

func encodeBase(b []byte, c *Chunk, prevTS int64) []byte {
	b = putUvarint(b, uint64(c.Size()))
	b = putVarint(b, c.TS-prevTS)
	return encodeRefs(b, c.Preds)
}

func encodeRefs(b []byte, refs []ChunkRef) []byte {
	b = putUvarint(b, uint64(len(refs)))
	for _, p := range refs {
		b = putUvarint(b, uint64(p.PID))
		b = putVarint(b, p.CID)
	}
	return b
}

func encodeSets(b []byte, c *Chunk, prevCID int64) []byte {
	b = putUvarint(b, uint64(len(c.DSet)))
	for _, d := range c.DSet {
		b = putUvarint(b, uint64(d.Offset))
		flags := byte(0)
		if d.IsLoad {
			flags = 1
		}
		b = append(b, flags)
		if d.IsLoad {
			b = put64(b, d.Value)
		}
		b = encodeRefs(b, d.Pred)
	}
	b = putUvarint(b, uint64(len(c.PSet)))
	for _, p := range c.PSet {
		// Delayed stores reference a recent chunk: encode distance back.
		b = putVarint(b, prevCID-p.SrcCID)
		b = putUvarint(b, uint64(p.Offset))
	}
	b = putUvarint(b, uint64(len(c.VLog)))
	for _, v := range c.VLog {
		b = putUvarint(b, uint64(v.Offset))
		b = put64(b, v.Value)
	}
	return b
}

// baseSize, refsSize and setsSize are the lengths of encodeBase's,
// encodeRefs' and encodeSets' output, computed without encoding.
func baseSize(c *Chunk, prevTS int64) int64 {
	return uvarintLen(uint64(c.Size())) + varintLen(c.TS-prevTS) + refsSize(c.Preds)
}

func refsSize(refs []ChunkRef) int64 {
	n := uvarintLen(uint64(len(refs)))
	for _, p := range refs {
		n += uvarintLen(uint64(p.PID)) + varintLen(p.CID)
	}
	return n
}

func setsSize(c *Chunk, prevCID int64) int64 {
	n := uvarintLen(uint64(len(c.DSet)))
	for _, d := range c.DSet {
		n += uvarintLen(uint64(d.Offset)) + 1 + refsSize(d.Pred)
		if d.IsLoad {
			n += 8
		}
	}
	n += uvarintLen(uint64(len(c.PSet)))
	for _, p := range c.PSet {
		n += varintLen(prevCID-p.SrcCID) + uvarintLen(uint64(p.Offset))
	}
	n += uvarintLen(uint64(len(c.VLog)))
	for _, v := range c.VLog {
		n += uvarintLen(uint64(v.Offset)) + 8
	}
	return n
}

// encodedSizes returns the Karma-equivalent and full byte counts.
func encodedSizes(c *Chunk, prevTS, prevCID int64) (base, full int64) {
	b := baseSize(c, prevTS)
	// Karma also pays the three empty-section counters (one byte each).
	return b + 3, b + setsSize(c, prevCID)
}

// decoder reads the wire format back. One decoder reads a whole log:
// each chunk body is decoded in place by pointing b at its bounded
// sub-slice, so positions inside a body are chunk-relative.
//
// The checked readers below (uvarint, varint, count, pid, ...) cannot
// be inlined, because each can fail. The per-chunk fields therefore
// parse their common shape inline first: a one-byte length prefix,
// size, TS delta or count (oneByte, smallCount), and a ref whose core
// id fits one byte and whose CID fits one or two (refs). Every other
// case, a longer varint, an out-of-range value or too few bytes left,
// goes to the checked reader from the same position, so it decodes to
// the same value or fails with the same error and position.
type decoder struct {
	b   []byte
	pos int
	err error
}

// fail records the first decode failure; later reads become no-ops.
func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = &CorruptError{Pos: d.pos, What: fmt.Sprintf(format, args...)}
	}
}

// next reads one uvarint, false when the input holds no complete one.
func (d *decoder) next() (uint64, bool) {
	v, n := binary.Uvarint(d.b[d.pos:])
	if n <= 0 {
		return 0, false
	}
	d.pos += n
	return v, true
}

// oneByte reads a value that fits one byte, the common case of every
// varint field, small enough to inline; false, with nothing read, if
// the next value is longer, the input has ended or decoding has failed.
func (d *decoder) oneByte() (uint64, bool) {
	if p := d.pos; p < len(d.b) && d.b[p] < 0x80 && d.err == nil {
		d.pos = p + 1
		return uint64(d.b[p]), true
	}
	return 0, false
}

// smallCount is count's common case, small enough to inline: a one-byte
// count that the remaining input can hold at elemMin bytes an element.
// It returns false, with nothing read, whenever count would have to
// read further or check more.
func (d *decoder) smallCount(elemMin int) (int, bool) {
	if p := d.pos; p < len(d.b) && d.b[p] < 0x80 && d.err == nil && int(d.b[p])*elemMin <= len(d.b)-p-1 {
		d.pos = p + 1
		return int(d.b[p]), true
	}
	return 0, false
}

// unzigzag undoes varint's zigzag encoding.
func unzigzag(ux uint64) int64 { return int64(ux>>1) ^ -int64(ux&1) }

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	if v, ok := d.oneByte(); ok {
		return v
	}
	v, ok := d.next()
	if !ok {
		d.fail("truncated uvarint")
	}
	return v
}

// varint reads a zigzag varint, as binary.Varint does.
func (d *decoder) varint() int64 {
	if d.err != nil {
		return 0
	}
	ux, ok := d.oneByte()
	if !ok {
		if ux, ok = d.next(); !ok {
			d.fail("truncated varint")
		}
	}
	return unzigzag(ux)
}

func (d *decoder) byte() byte {
	if d.err != nil {
		return 0
	}
	if d.pos >= len(d.b) {
		d.fail("truncated byte")
		return 0
	}
	v := d.b[d.pos]
	d.pos++
	return v
}

func (d *decoder) u64() uint64 {
	if d.err != nil {
		return 0
	}
	if d.pos+8 > len(d.b) {
		d.fail("truncated u64")
		return 0
	}
	v := binary.LittleEndian.Uint64(d.b[d.pos:])
	d.pos += 8
	return v
}

// count reads an element count and rejects it unless the remaining
// input could hold that many elements of at least elemMin bytes each —
// the bound that keeps allocation proportional to the input size.
func (d *decoder) count(what string, elemMin int) int {
	v := d.uvarint()
	if d.err != nil {
		return 0
	}
	if rem := len(d.b) - d.pos; v > uint64(rem/elemMin) {
		d.fail("%s %d exceeds the %d remaining bytes", what, v, rem)
		return 0
	}
	return int(v)
}

// offset32 reads a set-entry offset, rejecting values that would not
// round-trip through the int32 field (silent wrapping would relocate
// the entry to a bogus chunk position).
func (d *decoder) offset32() int32 {
	v := d.uvarint()
	if d.err == nil && v > math.MaxInt32 {
		d.fail("offset %d overflows int32", v)
		return 0
	}
	return int32(v)
}

// pid reads a core id, bounded by the cap DecodeLog places on the core
// count so ChunkRef PIDs are always small non-negative ints.
func (d *decoder) pid() int {
	v := d.uvarint()
	if d.err == nil && v >= maxCores {
		d.fail("core id %d out of range", v)
		return 0
	}
	return int(v)
}

// slab hands out capacity-capped runs of T carved from shared backing
// blocks, so an append to one run reallocates instead of writing into
// the next.
type slab[T any] struct {
	free  []T // unused tail of the current block
	block int // length of the current block
	taken int // elements handed out so far
}

// slabFirst is the least length of a slab's first block.
const slabFirst = 16

// arena is the backing store of one decoded log: its chunks and every
// entry slice of them are carved from these slabs. done and left are
// the log bytes before and after the chunk being decoded.
type arena struct {
	chunks     slab[Chunk]
	refs       slab[ChunkRef]
	dset       slab[DEntry]
	pset       slab[PEntry]
	vlog       slab[VEntry]
	done, left int
}

// take returns the next n elements of s, nil when n is 0. A block is
// allocated only when a run does not fit the current one. It is at
// least n long, and otherwise at most doubles the last block and is no
// longer than the projected need: the elements taken per log byte so
// far, times the bytes left. So allocation follows the decoded bytes:
// never more than doubling would allocate, and never more than one
// block per run. On an evenly dense log a decode makes O(log n)
// allocations and its last block ends near the need.
func take[T any](a *arena, s *slab[T], n int) []T {
	if n == 0 {
		return nil
	}
	if n > len(s.free) {
		size := n
		if a.done > 0 {
			need := int(float64(s.taken) * float64(a.left) / float64(a.done))
			size = max(n, min(max(2*s.block, slabFirst), need))
		}
		s.free, s.block = make([]T, size), size
	}
	run := s.free[:n:n]
	s.free = s.free[n:]
	s.taken += n
	return run
}

// chunk decodes one chunk body, which runs from d.pos to the end of
// d.b, into c. The caller sets c.PID, c.CID and c.StartSN. Every count
// is read and bounded by the remaining bytes before its run is carved.
func (d *decoder) chunk(a *arena, c *Chunk, prevTS, prevCID int64) {
	size, ok := d.oneByte()
	if !ok {
		size = d.uvarint()
	}
	if d.err == nil && (int64(c.StartSN) < 1 ||
		size > maxChunkSize || int64(size) > maxSN-int64(c.StartSN)) {
		d.fail("chunk size %d out of range at start SN %d", size, int64(c.StartSN))
	}
	if d.err != nil {
		return
	}
	c.EndSN = c.StartSN + SN(size) - 1
	if ts, ok := d.oneByte(); ok {
		c.TS = prevTS + unzigzag(ts)
	} else {
		c.TS = prevTS + d.varint()
	}
	c.Preds = d.refs(a, "pred count")
	n, ok := d.smallCount(3)
	if !ok {
		n = d.count("D_set count", 3)
	}
	c.DSet = take(a, &a.dset, n)
	for i := 0; i < len(c.DSet) && d.err == nil; i++ {
		e := &c.DSet[i]
		e.Offset = d.offset32()
		e.IsLoad = d.byte()&1 != 0
		if e.IsLoad {
			e.Value = d.u64()
		}
		e.Pred = d.refs(a, "D_set pred count")
	}
	if n, ok = d.smallCount(2); !ok {
		n = d.count("P_set count", 2)
	}
	c.PSet = take(a, &a.pset, n)
	for i := 0; i < len(c.PSet) && d.err == nil; i++ {
		back := d.varint()
		c.PSet[i] = PEntry{SrcCID: prevCID - back, Offset: d.offset32()}
	}
	if n, ok = d.smallCount(9); !ok {
		n = d.count("V_log count", 9)
	}
	c.VLog = take(a, &a.vlog, n)
	for i := 0; i < len(c.VLog) && d.err == nil; i++ {
		c.VLog[i] = VEntry{Offset: d.offset32(), Value: d.u64()}
	}
}

// refs reads a counted ChunkRef list into a run carved from a.refs. A
// ref with a one-byte core id and a one- or two-byte CID is parsed
// inline; any other goes to pid and varint from its first byte.
func (d *decoder) refs(a *arena, what string) []ChunkRef {
	n, ok := d.smallCount(2)
	if !ok {
		n = d.count(what, 2)
	}
	rs := take(a, &a.refs, n)
	b := d.b
	for i := range rs {
		if p := d.pos; p+1 < len(b) && b[p] < 0x80 {
			pid, c := int(b[p]), uint64(b[p+1])
			if c < 0x80 {
				rs[i] = ChunkRef{PID: pid, CID: unzigzag(c)}
				d.pos = p + 2
				continue
			}
			if p+2 < len(b) && b[p+2] < 0x80 {
				rs[i] = ChunkRef{PID: pid, CID: unzigzag(c&0x7f | uint64(b[p+2])<<7)}
				d.pos = p + 3
				continue
			}
		}
		// A run is carved only while decoding has not failed, and the
		// loop stops at the first failure.
		rs[i] = ChunkRef{PID: d.pid(), CID: d.varint()}
		if d.err != nil {
			break
		}
	}
	return rs
}

// DecodeChunk parses one chunk, given the same context used to encode.
// startSN is derived from the previous chunk's EndSN and must be in
// [1, maxSN]. The input is untrusted: any malformed byte sequence
// yields a *CorruptError (wrapping ErrCorrupt), never a panic, and
// allocation stays proportional to len(b).
func DecodeChunk(b []byte, pid int, cid int64, prevTS, prevCID int64, startSN SN) (*Chunk, int, error) {
	d := decoder{b: b}
	var a arena
	c := &Chunk{PID: pid, CID: cid, StartSN: startSN}
	d.chunk(&a, c, prevTS, prevCID)
	if d.err != nil {
		return nil, d.pos, d.err
	}
	return c, d.pos, nil
}

// EncodeLog serializes a complete log (length-prefixed per-core chunk
// streams). Used by the CLI to persist recordings.
func EncodeLog(l *Log) []byte {
	// Size the output first so every chunk encodes straight into one
	// buffer behind its length prefix.
	n := uvarintLen(uint64(l.Cores))
	for pid := 0; pid < l.Cores; pid++ {
		seq := l.PerCore[pid]
		n += uvarintLen(uint64(len(seq)))
		var prevTS, prevCID int64
		for _, c := range seq {
			_, full := encodedSizes(c, prevTS, prevCID)
			n += uvarintLen(uint64(full)) + full
			prevTS, prevCID = c.TS, c.CID
		}
	}
	b := make([]byte, 0, n)
	b = putUvarint(b, uint64(l.Cores))
	for pid := 0; pid < l.Cores; pid++ {
		seq := l.PerCore[pid]
		b = putUvarint(b, uint64(len(seq)))
		var prevTS, prevCID int64
		for _, c := range seq {
			_, full := encodedSizes(c, prevTS, prevCID)
			b = putUvarint(b, uint64(full))
			b = encodeBase(b, c, prevTS)
			b = encodeSets(b, c, prevCID)
			prevTS, prevCID = c.TS, c.CID
		}
	}
	return b
}

// DecodeLog parses EncodeLog output. The input is untrusted: any
// malformed byte sequence — truncation, inflated counts, overflowing
// lengths, trailing garbage — yields a *CorruptError (wrapping
// ErrCorrupt), never a panic, with allocation proportional to len(b).
// DecodeLog checks only wire-level well-formedness; call Validate on
// the result to check the recorder's semantic invariants.
//
// It decodes in one pass: the chunks and their entry slices are carved
// from one arena whose blocks grow as chunks are decoded, and every
// slice handed out is capacity-capped.
func DecodeLog(b []byte) (*Log, error) {
	d := decoder{b: b}
	cores := d.uvarint()
	if d.err != nil {
		return nil, d.err
	}
	if cores == 0 || cores > maxCores {
		return nil, &CorruptError{Pos: 0, What: fmt.Sprintf("implausible core count %d", cores)}
	}
	n := int(cores)
	l := NewLog(n)
	var a arena
	var all []*Chunk // every core's chunks, in core order
	for pid := 0; pid < n; pid++ {
		// A chunk record is at least 7 bytes: a length prefix plus a
		// minimal body (size, ts delta, four zero counts).
		cnt := d.count("chunk count", 7)
		first := len(all)
		var prevTS, prevCID int64
		startSN := SN(1)
		for i := 0; i < cnt && d.err == nil; i++ {
			ln, ok := d.oneByte()
			if !ok {
				if ln = d.uvarint(); d.err != nil {
					break
				}
			}
			if ln > uint64(len(d.b)-d.pos) {
				d.fail("chunk of %d bytes on core %d exceeds the remaining input", ln, pid)
				break
			}
			c := &take(&a, &a.chunks, 1)[0]
			c.PID, c.CID, c.StartSN = pid, int64(i), startSN
			body, end := d.pos, d.pos+int(ln)
			a.done, a.left = body, len(b)-body
			d.b, d.pos = b[body:end], 0
			d.chunk(&a, c, prevTS, prevCID)
			if d.err != nil {
				return nil, &CorruptError{Pos: body, What: fmt.Sprintf("core %d chunk %d: %v", pid, i, d.err)}
			}
			if d.pos != int(ln) {
				return nil, &CorruptError{Pos: body,
					What: fmt.Sprintf("core %d chunk %d: length prefix says %d bytes, body used %d", pid, i, ln, d.pos)}
			}
			d.b, d.pos = b, end
			prevTS, prevCID = c.TS, c.CID
			startSN = c.EndSN + 1
			all = append(all, c)
		}
		if d.err != nil {
			return nil, d.err
		}
		if len(all) > first {
			l.PerCore[pid] = all[first:] // re-sliced below
		}
	}
	if d.pos != len(d.b) {
		return nil, &CorruptError{Pos: d.pos, What: fmt.Sprintf("%d trailing bytes", len(d.b)-d.pos)}
	}
	// Appends may have moved all since a core's run was sliced: re-slice
	// each run, of the length it had, from the final array. A core with
	// no chunks keeps a nil sequence, as in NewLog.
	first := 0
	for pid, seq := range l.PerCore {
		if len(seq) > 0 {
			end := first + len(seq)
			l.PerCore[pid] = all[first:end:end]
			first = end
		}
	}
	return l, nil
}
