// Package hwpref is the pluggable hardware-prefetch arsenal (DESIGN §16):
// the classic backend taxonomy — next-line, per-PC stride, best-offset, and
// GHB-style delta correlation — behind one engine that owns the prefetch
// line buffer and the memory system's fill port, plus an online policy
// selector that probes every backend in epoch windows and exploits the
// winner, POWER7-style runtime reconfiguration.
//
// The selector implements memsys.Prefetcher exactly like the stream buffers
// do: Lookup supplies demand misses from the buffer, Contains squashes
// redundant software prefetches, Train observes every committed load. A
// single-backend selector never switches — the static configurations the
// figures compare against are the same machine with a one-entry arsenal.
//
// Determinism contract: every decision (backend proposals, buffer
// replacement, epoch boundaries, switch points) is a pure function of the
// committed load stream and the architectural memory state, never of the
// execution engine. Train(…, l1Miss=false) performs no fill-port calls and
// no buffer mutation, preserving the memsys.LoadFast guarantee, so reports
// stay byte-identical across the compiled fast path, -slowpath, any
// -j/-sample-jobs, and kill/resume.
package hwpref

import "tridentsp/internal/checkpoint"

// FillPort starts line fetches on behalf of the active backend; implemented
// by memsys.Hierarchy.StartFill.
type FillPort interface {
	StartFill(lineAddr uint64, now int64) (ready int64, ok bool)
}

// Config sizes the arsenal's shared engine and each backend's tables.
type Config struct {
	// LineSize must match the cache hierarchy's.
	LineSize int
	// Degree is how many lines a backend may propose per trigger (the
	// best-offset backend always proposes one; see backends.go).
	Degree int
	// BufferLines is the shared prefetch-buffer capacity. There is one
	// physical buffer however many backends feed it — a policy switch keeps
	// the buffered lines — and the oldest line is evicted when a fill
	// overflows it, debited to the backend that issued it.
	BufferLines int

	// StrideEntries sizes the per-PC stride table (power of two).
	StrideEntries int
	// StrideConfidence is the stride-match count required before a miss
	// may trigger prefetches.
	StrideConfidence uint8

	// BOTableEntries sizes the best-offset recent-request table (power of
	// two). BOScoreMax ends a learning phase early when an offset reaches
	// it; BORoundMax bounds a phase's full test rounds; BOBadScore is the
	// minimum winning score that keeps prefetching on.
	BOTableEntries int
	BOScoreMax     int
	BORoundMax     int
	BOBadScore     int

	// GHBEntries sizes the global miss-delta history ring; GHBIndexEntries
	// sizes the delta-pair correlation table (power of two).
	GHBEntries      int
	GHBIndexEntries int
}

// DefaultConfig returns the arsenal sizing used by the figures: tables in
// the same budget class as the paper's 8x8 stream buffers (64 buffered
// lines, 1K-entry stride history).
func DefaultConfig() Config {
	return Config{
		LineSize:         64,
		Degree:           4,
		BufferLines:      64,
		StrideEntries:    1024,
		StrideConfidence: 2,
		BOTableEntries:   64,
		BOScoreMax:       31,
		BORoundMax:       24,
		BOBadScore:       2,
		GHBEntries:       256,
		GHBIndexEntries:  256,
	}
}

// Backend is one prefetch predictor. Backends only propose line addresses;
// the selector owns dedup, the fill port, the shared buffer, and all
// statistics, so a backend never touches timing state directly.
type Backend interface {
	// Name labels the backend in metrics, decisions, and reports.
	Name() string
	// Observe sees one committed load (every load, hit or miss) and
	// appends proposed prefetch line addresses to dst. Proposals are only
	// permitted on an L1 miss — on a hit the backend trains silently and
	// must return dst unchanged (the memsys.LoadFast contract).
	Observe(dst []uint64, pc, addr, lineAddr uint64, l1Miss bool) []uint64
	// OnSupply sees a useful prefetch: a demand miss consumed lineAddr
	// from the buffer. Backends that run ahead (next-line, best-offset)
	// append follow-on proposals.
	OnSupply(dst []uint64, lineAddr uint64) []uint64
	// save/load serialize the predictor tables (state.go pattern).
	save(e *checkpoint.Encoder)
	load(d *checkpoint.Decoder) error
}

// bufLine is one prefetched line in the shared buffer, tagged with the
// backend that issued it so supplies and evictions are attributed to the
// right policy.
type bufLine struct {
	line  uint64
	ready int64
	by    int
}

// EngineStats counts one backend's activity against the shared buffer.
// Supplies is the accuracy/coverage credit, EvictedUnused and FillsDenied
// the pollution/waste debit; all are attributed to the issuing backend.
type EngineStats struct {
	Fills         uint64 // lines this backend fetched into the buffer
	FillsDenied   uint64 // fills refused by the port (line already cached)
	Supplies      uint64 // demand misses served from its buffered lines
	EvictedUnused uint64 // its buffered lines displaced before first use
}

// engine couples a backend to its attribution counters.
type engine struct {
	backend Backend
	stats   EngineStats
}

// issue starts fills for backend i's proposed lines: dedup against the
// shared buffer, StartFill through the port, FIFO-evict on overflow.
func (s *Selector) issue(i int, cands []uint64, now int64) {
	en := s.engines[i]
	for _, line := range cands {
		if s.holds(line) {
			continue
		}
		ready, ok := s.port.StartFill(line, now)
		if !ok {
			en.stats.FillsDenied++
			continue
		}
		if len(s.buf) >= s.cfg.BufferLines {
			s.engines[s.buf[0].by].stats.EvictedUnused++
			s.buf = s.buf[1:]
		}
		s.buf = append(s.buf, bufLine{line: line, ready: ready, by: i})
		en.stats.Fills++
	}
}

// holds reports whether the shared buffer already carries the line.
func (s *Selector) holds(line uint64) bool {
	for i := range s.buf {
		if s.buf[i].line == line {
			return true
		}
	}
	return false
}

// take consumes the buffered line, returning its ready cycle and crediting
// the supply to the issuing backend. Unlike a stream buffer the lines are
// unordered across predictions, so only the matched entry is removed.
func (s *Selector) take(line uint64) (int64, bool) {
	for i := range s.buf {
		if s.buf[i].line != line {
			continue
		}
		ready := s.buf[i].ready
		s.engines[s.buf[i].by].stats.Supplies++
		s.buf = append(s.buf[:i], s.buf[i+1:]...)
		return ready, true
	}
	return 0, false
}
