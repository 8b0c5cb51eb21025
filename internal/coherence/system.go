package coherence

import (
	"pacifier/internal/cache"
	"pacifier/internal/noc"
	"pacifier/internal/obs"
	"pacifier/internal/prof"
	"pacifier/internal/sim"
)

// Addr aliases the cache package's byte address.
type Addr = cache.Addr

// Config describes the memory system of the simulated machine.
type Config struct {
	Nodes int // tiles: one core + L1 + one L2/directory bank each

	// Atomic selects write atomicity (see the package comment). The
	// paper's evaluation (Section 6.1) does not model non-atomic writes;
	// set Atomic=false to exercise the Section 3.2 machinery.
	Atomic bool

	L1 cache.Config
	L2 cache.Config

	L1HitLat sim.Cycle // L1 round trip (Table 4: 2)
	L2Lat    sim.Cycle // L2 bank access beyond the mesh (Table 4: ~11 round trip local)
	MemLat   sim.Cycle // main memory round trip (Table 4: 200)
}

// DefaultConfig returns the Table 4 machine for n tiles.
func DefaultConfig(n int) Config {
	return Config{
		Nodes:    n,
		Atomic:   true,
		L1:       cache.L1Config(),
		L2:       cache.L2BankConfig(),
		L1HitLat: 2,
		L2Lat:    5,
		MemLat:   200,
	}
}

// System is the full memory hierarchy: per-tile L1 controllers and
// directory/L2 home banks, connected by the mesh.
type System struct {
	cfg   Config
	eng   *sim.Engine
	mesh  *noc.Mesh
	stats *sim.Stats
	obs   Observer

	l1s   []*L1
	homes []*home

	lineWords uint // words per line

	// Message pooling. bufFree recycles transient line-sized payload
	// buffers (data message bodies, writeback copies). Buffers are
	// returned after the receiver has copied them into its own storage;
	// long-lived images never come from here. PutM payloads alias the
	// sender's wb buffer and must not be pooled.
	bufFree [][]uint64
	// wordSlab carves long-lived line images/data arrays out of large
	// chunks so each resident line does not cost its own allocation.
	wordSlab []uint64
	// evtFree recycles in-flight message events (see msgEvt).
	evtFree []*msgEvt

	// Observability (nil when disabled): tr receives MESI transition
	// events; hInvLat is the lazily resolved invalidation-latency
	// histogram of stats.
	tr      *obs.Tracer
	hInvLat *sim.Histogram
}

// SetTracer attaches (or detaches, with nil) an event tracer.
func (s *System) SetTracer(tr *obs.Tracer) { s.tr = tr }

// SetProfile enables (or disables) per-tile cycle attribution. Each
// tile's L1 and home bank get their own accumulator.
func (s *System) SetProfile(on bool) {
	for i := range s.l1s {
		if on {
			s.l1s[i].lat = prof.NewLat(i)
			s.homes[i].lat = prof.NewLat(i)
		} else {
			s.l1s[i].lat = nil
			s.homes[i].lat = nil
		}
	}
}

// traceMESI emits one L1 line-state transition. Callers guard with
// `sys.tr != nil` so the disabled path costs a single compare.
func (s *System) traceMESI(pid int, l cache.Line, old, new cache.State) {
	s.tr.MESI(pid, int64(l), int64(s.eng.Now()), uint8(old), uint8(new))
}

// observeInvLatency samples one completed invalidation-ack epoch.
func (s *System) observeInvLatency(d sim.Cycle) {
	if s.stats == nil {
		return
	}
	if s.hInvLat == nil {
		s.hInvLat = s.stats.Histogram("coherence.inv_ack_latency")
	}
	s.hInvLat.Observe(int64(d))
}

// NewSystem builds the memory system. obs may be nil for a bare machine.
func NewSystem(eng *sim.Engine, mesh *noc.Mesh, cfg Config, stats *sim.Stats, obs Observer) *System {
	if obs == nil {
		obs = NopObserver{}
	}
	if cfg.Nodes != mesh.Nodes() {
		panic("coherence: config/mesh node count mismatch")
	}
	s := &System{
		cfg:       cfg,
		eng:       eng,
		mesh:      mesh,
		stats:     stats,
		obs:       obs,
		lineWords: uint(cfg.L1.LineBytes / 8),
	}
	for i := 0; i < cfg.Nodes; i++ {
		s.homes = append(s.homes, newHome(s, noc.NodeID(i)))
	}
	for i := 0; i < cfg.Nodes; i++ {
		s.l1s = append(s.l1s, newL1(s, noc.NodeID(i)))
	}
	return s
}

// L1 returns the private cache controller of core pid.
func (s *System) L1(pid int) *L1 { return s.l1s[pid] }

// LineOf maps an address to its line.
func (s *System) LineOf(a Addr) cache.Line { return s.l1s[0].arr.LineOf(a) }

// homeOf returns the directory bank owning a line (address-interleaved).
func (s *System) homeOf(l cache.Line) *home {
	return s.homes[int(uint64(l)%uint64(s.cfg.Nodes))]
}

// HomeNode returns the tile id of the home bank for a line.
func (s *System) HomeNode(l cache.Line) noc.NodeID {
	return noc.NodeID(uint64(l) % uint64(s.cfg.Nodes))
}

// wordIdx returns the word-within-line index of a (word-aligned) address.
func (s *System) wordIdx(a Addr) int {
	return int((uint64(a) >> 3) & uint64(s.lineWords-1))
}

// ReadBacking returns the value of a word as stored at its home bank,
// ignoring any dirty cached copies. Used by tests and by the final-state
// verifier after Drain.
func (s *System) ReadBacking(a Addr) uint64 {
	l := s.LineOf(a)
	hs := s.homeOf(l).peek(l)
	if hs == nil || hs.img == nil {
		return 0
	}
	return hs.img[s.wordIdx(a)]
}

// ReadCoherent returns the current coherent value of a word: the owner's
// copy if a dirty owner exists, else the home image. Simulation-side
// helper (zero time); used by the functional verifier.
func (s *System) ReadCoherent(a Addr) uint64 {
	l := s.LineOf(a)
	hs := s.homeOf(l).peek(l)
	if hs == nil {
		return 0
	}
	if hs.st.owner >= 0 {
		c := s.l1s[hs.st.owner]
		if cs := c.peek(l); cs != nil {
			if cs.data != nil && c.arr.Lookup(l) != cache.Invalid {
				return cs.data[s.wordIdx(a)]
			}
			if cs.wbValid {
				return cs.wb[s.wordIdx(a)]
			}
		}
	}
	if hs.img == nil {
		return 0
	}
	return hs.img[s.wordIdx(a)]
}

// Quiesced reports whether no coherence transaction is in flight anywhere.
func (s *System) Quiesced() bool {
	for i := range s.homes {
		if s.homes[i].busyCount != 0 || s.l1s[i].nMSHR != 0 || s.l1s[i].nWB != 0 {
			return false
		}
	}
	return s.eng.Pending() == 0
}

// getBuf returns a zeroed-length line-sized scratch buffer for a message
// payload. Pair with putBuf once the contents have been copied out.
func (s *System) getBuf() []uint64 {
	if n := len(s.bufFree); n > 0 {
		b := s.bufFree[n-1]
		s.bufFree = s.bufFree[:n-1]
		return b
	}
	return make([]uint64, s.lineWords)
}

// putBuf recycles a buffer obtained from getBuf.
func (s *System) putBuf(b []uint64) {
	if b != nil {
		s.bufFree = append(s.bufFree, b)
	}
}

// newLineWords carves a line-sized word array from the slab. The result
// is long-lived (a cache data image); it is never recycled.
func (s *System) newLineWords() []uint64 {
	n := int(s.lineWords)
	if len(s.wordSlab) < n {
		s.wordSlab = make([]uint64, 1024*n)
	}
	w := s.wordSlab[:n:n]
	s.wordSlab = s.wordSlab[n:]
	return w
}

// ctrl and data message sizes in flits.
const (
	ctrlFlits = 1
	dataFlits = 5
)
