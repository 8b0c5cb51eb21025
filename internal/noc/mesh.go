// Package noc models the on-chip interconnect of the simulated multicore:
// a 2-D mesh with dimension-order (X-then-Y) routing and a fixed per-hop
// latency, matching Table 4 of the paper (7-cycle hop latency).
//
// The model is a latency model with optional per-node serialization: it
// computes when a message injected at cycle T arrives at its destination,
// and delivers it through the shared event engine. Messages between the
// same (src, dst) pair are delivered in FIFO order, which the directory
// protocol relies on for its request/response channels.
package noc

import (
	"fmt"

	"pacifier/internal/obs"
	"pacifier/internal/prof"
	"pacifier/internal/sim"
)

// NodeID identifies a mesh node (a tile: one core + one L2/directory bank).
type NodeID int

// Config describes the mesh geometry and timing.
type Config struct {
	// Nodes is the number of tiles. The mesh is laid out as the most
	// square factorization of Nodes (e.g. 16 -> 4x4, 32 -> 8x4).
	Nodes int
	// HopLatency is the per-hop link+router latency in cycles (paper: 7).
	HopLatency sim.Cycle
	// RouterOverhead is a fixed injection+ejection cost added to every
	// message, even between adjacent or identical nodes.
	RouterOverhead sim.Cycle
	// SerializationPerFlit is an additional cost per flit beyond the
	// first; message sizes are given in flits on Send.
	SerializationPerFlit sim.Cycle
}

// DefaultConfig returns the Table 4 network parameters for n tiles.
func DefaultConfig(n int) Config {
	return Config{
		Nodes:                n,
		HopLatency:           7,
		RouterOverhead:       1,
		SerializationPerFlit: 1,
	}
}

// Mesh is the interconnect instance. It is created once per simulated
// machine and shared by the coherence controllers.
type Mesh struct {
	cfg    Config
	width  int
	height int
	eng    *sim.Engine
	stats  *sim.Stats
	// lastArrival[src][dst] enforces FIFO delivery per ordered pair.
	lastArrival [][]sim.Cycle
	// Lazily resolved stat counters: Send is the hottest path in the
	// simulator and must not pay a string-keyed lookup per message.
	cMessages, cFlits, cHopCycles *sim.Counter
	// tr, when non-nil, receives one send and one recv event per
	// message. The nil check is the entire disabled-tracing cost.
	tr *obs.Tracer

	// Cycle accounting (nil when disabled): one accumulator per sending
	// node, charging each message's full mesh latency to its source tile.
	lat []*prof.Lat
}

// SetProfile enables (or disables) per-message cycle attribution.
func (m *Mesh) SetProfile(on bool) {
	if !on {
		m.lat = nil
		return
	}
	m.lat = make([]*prof.Lat, m.cfg.Nodes)
	for i := range m.lat {
		m.lat[i] = prof.NewLat(i)
	}
}

// SetTracer attaches (or detaches, with nil) an event tracer.
func (m *Mesh) SetTracer(tr *obs.Tracer) { m.tr = tr }

// New builds a mesh over the given engine. It panics if the configuration
// is invalid, since machine construction errors are programming errors.
func New(eng *sim.Engine, cfg Config, stats *sim.Stats) *Mesh {
	m := model(cfg)
	m.eng, m.stats = eng, stats
	m.lastArrival = make([][]sim.Cycle, cfg.Nodes)
	for i := range m.lastArrival {
		m.lastArrival[i] = make([]sim.Cycle, cfg.Nodes)
	}
	return m
}

// model returns a mesh with cfg's geometry and latencies but no engine,
// statistics or FIFO state: enough for Hops and Latency, not for Send.
func model(cfg Config) *Mesh {
	if cfg.Nodes <= 0 {
		panic("noc: mesh needs at least one node")
	}
	if cfg.HopLatency < 0 || cfg.RouterOverhead < 0 || cfg.SerializationPerFlit < 0 {
		panic("noc: negative latency")
	}
	w, h := Dimensions(cfg.Nodes)
	return &Mesh{cfg: cfg, width: w, height: h}
}

// LatencyTable returns Latency(src, dst, 1) of a mesh with cfg for every
// ordered pair of its first n nodes, row-major by source: entry src*n+dst.
// It builds no FIFO state, so a reader of latencies alone (the replayer)
// pays for no more than the table. It panics like New on an invalid
// configuration, and when n exceeds cfg.Nodes.
func LatencyTable(cfg Config, n int) []sim.Cycle {
	m := model(cfg)
	t := make([]sim.Cycle, n*n)
	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			t[src*n+dst] = m.Latency(NodeID(src), NodeID(dst), 1)
		}
	}
	return t
}

// Dimensions returns the most square (width >= height) factorization of n,
// preferring powers of two splits: 16 -> (4,4), 32 -> (8,4), 64 -> (8,8).
// A prime n degenerates to (n, 1).
func Dimensions(n int) (w, h int) {
	bestW, bestH := n, 1
	for h := 1; h*h <= n; h++ {
		if n%h == 0 {
			bestW, bestH = n/h, h
		}
	}
	return bestW, bestH
}

// Coord returns the (x, y) position of node id.
func (m *Mesh) Coord(id NodeID) (x, y int) {
	i := int(id)
	if i < 0 || i >= m.cfg.Nodes {
		panic(fmt.Sprintf("noc: node %d out of range [0,%d)", i, m.cfg.Nodes))
	}
	return i % m.width, i / m.width
}

// Hops returns the Manhattan hop count between two nodes under
// dimension-order routing.
func (m *Mesh) Hops(a, b NodeID) int {
	ax, ay := m.Coord(a)
	bx, by := m.Coord(b)
	return abs(ax-bx) + abs(ay-by)
}

// Diameter returns the maximum hop count between any two nodes.
func (m *Mesh) Diameter() int {
	return (m.width - 1) + (m.height - 1)
}

// Latency returns the delivery latency for a message of the given flit
// count between two nodes. Local (a == b) messages still pay the router
// overhead, modeling the tile's local crossbar.
func (m *Mesh) Latency(a, b NodeID, flits int) sim.Cycle {
	if flits < 1 {
		flits = 1
	}
	lat := m.cfg.RouterOverhead +
		sim.Cycle(m.Hops(a, b))*m.cfg.HopLatency +
		sim.Cycle(flits-1)*m.cfg.SerializationPerFlit
	return lat
}

// Send delivers fn at the destination after the mesh latency, preserving
// FIFO order between each ordered (src, dst) pair: a message can never
// overtake an earlier message on the same pair, even if shorter.
func (m *Mesh) Send(src, dst NodeID, flits int, fn func()) {
	arrive := m.eng.Now() + m.Latency(src, dst, flits)
	if prev := m.lastArrival[src][dst]; arrive <= prev {
		arrive = prev + 1
	}
	m.lastArrival[src][dst] = arrive
	if m.lat != nil {
		m.lat[src].Add(m.stats, prof.NoC, int64(m.Latency(src, dst, flits)))
	}
	if m.stats != nil {
		if m.cMessages == nil {
			m.cMessages = m.stats.Counter("noc.messages")
			m.cFlits = m.stats.Counter("noc.flits")
			m.cHopCycles = m.stats.Counter("noc.hop_cycles")
		}
		m.cMessages.Value++
		m.cFlits.Value += int64(flits)
		m.cHopCycles.Value += int64(m.Hops(src, dst)) * int64(m.cfg.HopLatency)
	}
	if m.tr != nil {
		now := int64(m.eng.Now())
		lat := int64(arrive) - now
		m.tr.NoCSend(int(src), int(dst), int64(flits), now, lat)
		m.tr.NoCRecv(int(src), int(dst), int64(flits), int64(arrive), lat)
	}
	m.eng.After(arrive-m.eng.Now(), fn)
}

// Nodes returns the number of tiles.
func (m *Mesh) Nodes() int { return m.cfg.Nodes }

// Width and Height expose the mesh geometry.
func (m *Mesh) Width() int  { return m.width }
func (m *Mesh) Height() int { return m.height }

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
