package relog

import "encoding/binary"

// Compressed log container. The encoded log (already per-core
// delta+varint compact, see encode.go) is framed into independent 64 KiB
// blocks, each run through a greedy LZ match pass:
//
//	magic[4] = 00 'P' 'Z' 'L'   (a raw log can never start with 0x00:
//	                             DecodeLog rejects core count 0)
//	version  = 0x01
//	uvarint  rawSize            (total decompressed bytes, capped)
//	repeat until rawSize bytes produced:
//	  uvarint blockRaw          (1..maxBlock, <= rawSize remaining)
//	  uvarint encLen            (1..input remaining)
//	  encLen bytes of tokens:
//	    uvarint tag; n = tag>>1
//	    tag&1 == 0: literal run, n >= 1 bytes follow
//	    tag&1 == 1: match, n >= minMatch; uvarint dist follows,
//	                1 <= dist <= bytes produced in this block
//
// Every block must produce exactly blockRaw bytes from exactly encLen
// token bytes; the stream must produce exactly rawSize bytes and end at
// the last input byte (trailing bytes are corrupt). Decompress is total
// over untrusted input: every failure is a *CorruptError wrapping
// ErrCorrupt, and allocation stays proportional to bytes actually
// produced (each block costs >= 3 input bytes and yields <= maxBlock
// output, so output is bounded by ~22000x the input length and by the
// declared, capped rawSize — never by attacker-chosen counts alone).
const (
	compVersion = 0x01
	// maxBlock is the framing granularity: matches never cross a block,
	// so blocks decompress independently and bound match distances.
	maxBlock = 1 << 16
	// minMatch keeps tokens profitable (tag + dist cost ~3 bytes).
	minMatch = 4
	// maxCompressedRaw caps the declared decompressed size, mirroring
	// maxChunkSize's role in the decoder.
	maxCompressedRaw = uint64(1) << 40
	// hashBits sizes the compressor's match table.
	hashBits = 13
)

var compMagic = [4]byte{0x00, 'P', 'Z', 'L'}

// IsCompressed reports whether blob carries the compressed-log framing.
func IsCompressed(blob []byte) bool {
	return len(blob) >= len(compMagic) && string(blob[:len(compMagic)]) == string(compMagic[:])
}

// Compress frames and match-compresses an encoded log (or any byte
// stream). The output is deterministic for a given input.
func Compress(raw []byte) []byte {
	out := make([]byte, 0, len(raw)/2+16)
	out = append(out, compMagic[:]...)
	out = append(out, compVersion)
	out = putUvarint(out, uint64(len(raw)))
	for base := 0; base < len(raw); base += maxBlock {
		end := base + maxBlock
		if end > len(raw) {
			end = len(raw)
		}
		enc := compressBlock(raw[base:end])
		out = putUvarint(out, uint64(end-base))
		out = putUvarint(out, uint64(len(enc)))
		out = append(out, enc...)
	}
	return out
}

func hash4(b []byte) uint32 {
	return (binary.LittleEndian.Uint32(b) * 2654435761) >> (32 - hashBits)
}

// compressBlock emits the token stream for one block: greedy hash-table
// matching with literal runs between matches.
func compressBlock(src []byte) []byte {
	dst := make([]byte, 0, len(src)/2+8)
	var table [1 << hashBits]int32 // position+1 of the last hash occurrence
	lit := 0                       // start of the pending literal run
	i := 0
	for i+minMatch <= len(src) {
		h := hash4(src[i:])
		cand := int(table[h]) - 1
		table[h] = int32(i + 1)
		if cand < 0 || string(src[cand:cand+minMatch]) != string(src[i:i+minMatch]) {
			i++
			continue
		}
		ml := minMatch
		for i+ml < len(src) && src[cand+ml] == src[i+ml] {
			ml++
		}
		dst = emitLiterals(dst, src[lit:i])
		dst = putUvarint(dst, uint64(ml)<<1|1)
		dst = putUvarint(dst, uint64(i-cand))
		i += ml
		lit = i
	}
	return emitLiterals(dst, src[lit:])
}

func emitLiterals(dst, lits []byte) []byte {
	if len(lits) == 0 {
		return dst
	}
	dst = putUvarint(dst, uint64(len(lits))<<1)
	return append(dst, lits...)
}

// Decompress inverts Compress. It is total over arbitrary input; see
// the framing contract above.
func Decompress(blob []byte) ([]byte, error) {
	d := &decoder{b: blob}
	if !IsCompressed(blob) {
		d.fail("missing compressed-log magic")
		return nil, d.err
	}
	d.pos = len(compMagic)
	if v := d.byte(); d.err == nil && v != compVersion {
		d.fail("unsupported compressed-log version %d", v)
	}
	rawSize := d.uvarint()
	if d.err == nil && rawSize > maxCompressedRaw {
		d.fail("implausible decompressed size %d", rawSize)
	}
	if d.err != nil {
		return nil, d.err
	}
	capHint := rawSize
	if capHint > 1<<20 {
		capHint = 1 << 20 // grow incrementally past 1 MiB: allocation follows production
	}
	out := make([]byte, 0, capHint)
	for uint64(len(out)) < rawSize && d.err == nil {
		blockRaw := d.uvarint()
		if d.err != nil {
			break
		}
		if blockRaw == 0 || blockRaw > maxBlock || blockRaw > rawSize-uint64(len(out)) {
			d.fail("block size %d out of range", blockRaw)
			break
		}
		encLen := d.count("block byte length", 1)
		if d.err != nil {
			break
		}
		out = decompressBlock(d, out, int(blockRaw), encLen)
	}
	if d.err == nil && d.pos != len(d.b) {
		d.fail("%d trailing bytes after compressed log", len(d.b)-d.pos)
	}
	if d.err != nil {
		return nil, d.err
	}
	return out, nil
}

// decompressBlock decodes one token stream of exactly encLen bytes into
// exactly blockRaw output bytes appended to out.
func decompressBlock(d *decoder, out []byte, blockRaw, encLen int) []byte {
	blockStart := len(out)
	end := d.pos + encLen
	for d.pos < end && d.err == nil {
		tag := d.uvarint()
		if d.err != nil {
			break
		}
		if d.pos > end {
			d.fail("token crosses block end")
			break
		}
		n := int(tag >> 1)
		produced := len(out) - blockStart
		if n <= 0 || n > blockRaw-produced {
			d.fail("token length %d overflows block (%d of %d produced)", n, produced, blockRaw)
			break
		}
		if tag&1 == 0 {
			if d.pos+n > end {
				d.fail("literal run of %d exceeds block bytes", n)
				break
			}
			out = append(out, d.b[d.pos:d.pos+n]...)
			d.pos += n
			continue
		}
		if n < minMatch {
			d.fail("match of %d below minimum %d", n, minMatch)
			break
		}
		dist := d.uvarint()
		if d.err != nil {
			break
		}
		if d.pos > end {
			d.fail("match distance crosses block end")
			break
		}
		if dist == 0 || dist > uint64(produced) {
			d.fail("match distance %d outside the %d block bytes produced", dist, produced)
			break
		}
		// Copy in blocks of at most dist bytes, so each block's source is
		// already produced. An overlapping match (dist < n) is periodic
		// with period dist, so this equals the byte-wise copy.
		from := len(out) - int(dist)
		for k := 0; k < n; {
			step := min(n-k, int(dist))
			out = append(out, out[from+k:from+k+step]...)
			k += step
		}
	}
	if d.err == nil && len(out)-blockStart != blockRaw {
		d.fail("block produced %d bytes, declared %d", len(out)-blockStart, blockRaw)
	}
	return out
}
