// Package program represents executable images for the simulator: an
// encoded code segment, an initial paged data image, and an entry point.
//
// A Program corresponds to what the paper calls the "original binary". The
// simulator keeps a pristine copy of the code for hot-trace formation while
// Trident patches the live image to redirect execution into the code cache.
package program

import (
	"fmt"
	"sort"

	"tridentsp/internal/isa"
)

// Program is a loadable executable image: code, an entry point, and one
// paged initial data image, seeded by SetWord and frozen once shared.
type Program struct {
	// Base is the address of the first instruction.
	Base uint64
	// Code holds the encoded instruction words, Code[i] at Base+i*WordSize.
	Code []uint64
	// Entry is the initial PC.
	Entry uint64
	// Name identifies the program in stats output.
	Name string

	// insts is the predecoded-instruction cache built by Predecode; nil
	// until then. It is deliberately not copied by Clone: a clone may be
	// mutated, and the cache must never go stale.
	insts []isa.Inst

	// image is the program's only copy of its initial data: SetWord seeds
	// it and every run's Memory is a copy-on-write clone of it. frozen is
	// set once it is shared (see share).
	image  *Memory
	frozen bool

	// master points at the immutable, predecoded program this one was
	// cloned from (nil when the source had not been predecoded at clone
	// time). Predecode's contract makes a predecoded program's Code
	// immutable, so the master can be shared read-only across any number
	// of concurrent runs; Pristine exploits that to hand every System the
	// same pristine image instead of a per-run deep copy.
	master *Program
}

// SetWord seeds the initial data word containing addr. It panics once the
// image has been shared (by Clone, ClonePristine, Prebuild, NewMemory or
// Image): runs may already hold it.
func (p *Program) SetWord(addr, val uint64) {
	if p.frozen {
		panic(fmt.Sprintf("program: SetWord(%#x) on %q after its image was shared", addr, p.Name))
	}
	if p.image == nil {
		p.image = &Memory{}
	}
	p.image.Store(addr, val)
}

// CodeEnd returns the first address past the code segment.
func (p *Program) CodeEnd() uint64 {
	return p.Base + uint64(len(p.Code))*isa.WordSize
}

// InstAt decodes the instruction at pc, reporting whether pc lies inside the
// code segment. After Predecode it serves cached decodes instead of running
// isa.Decode per call.
func (p *Program) InstAt(pc uint64) (isa.Inst, bool) {
	if pc < p.Base || pc >= p.CodeEnd() || pc%isa.WordSize != 0 {
		return isa.Inst{}, false
	}
	i := (pc - p.Base) / isa.WordSize
	if p.insts != nil {
		return p.insts[i], true
	}
	return isa.Decode(p.Code[i]), true
}

// Predecode builds the instruction cache so repeated InstAt calls (trace
// formation walks the same hot code over and over) stop re-decoding the
// same words. The caller must not mutate Code afterwards; the simulator
// only predecodes the pristine image, which is never patched.
func (p *Program) Predecode() {
	if p.insts != nil {
		return
	}
	insts := make([]isa.Inst, len(p.Code))
	for i, w := range p.Code {
		insts[i] = isa.Decode(w)
	}
	p.insts = insts
}

// Decoded returns the predecoded instruction image, running Predecode first
// if needed. Callers must treat the slice as read-only; mutable consumers
// (the live image the simulator patches) copy it.
func (p *Program) Decoded() []isa.Inst {
	p.Predecode()
	return p.insts
}

// WordAt returns the raw instruction word at pc.
func (p *Program) WordAt(pc uint64) (uint64, bool) {
	if pc < p.Base || pc >= p.CodeEnd() || pc%isa.WordSize != 0 {
		return 0, false
	}
	return p.Code[(pc-p.Base)/isa.WordSize], true
}

// Clone returns a run-ready copy of the program: Code is deep-copied (the
// simulator patches the live image in place), while the data image is
// shared with the source — a run builds its memory as a copy-on-write view
// of it. Sharing freezes the image on both sides, so seed before cloning.
func (p *Program) Clone() *Program {
	c := &Program{Base: p.Base, Entry: p.Entry, Name: p.Name,
		image: p.share(), frozen: true, master: p.masterRef()}
	c.Code = append([]uint64(nil), p.Code...)
	return c
}

// ClonePristine returns the cheap clone the simulator keeps as its pristine
// code image alongside the live, patched one: Code is deep-copied (patching
// must not reach the pristine copy), while the data image — which the
// simulator never mutates — is shared with the source.
func (p *Program) ClonePristine() *Program { return p.Clone() }

// masterRef resolves the immutable ancestor a clone should remember: the
// source's own master when it has one, or the source itself when it has been
// predecoded (and its Code is therefore frozen by Predecode's contract).
func (p *Program) masterRef() *Program {
	if p.master != nil {
		return p.master
	}
	if p.insts != nil {
		return p
	}
	return nil
}

// Pristine returns a read-only pristine image of the original binary. When
// the program descends from a predecoded master (the workload cache
// prebuilds every master before publishing it), the master itself is
// returned: zero-copy, with the predecoded instruction cache and the paged
// memory image shared by every run of the workload — parallel sampled
// windows construct one System per window, and a per-window code copy plus
// re-decode was most of the construction cost. Callers must not mutate the
// result; use ClonePristine for a writable copy. Only valid while the
// program's Code is still the original (a System takes its pristine image
// before the live image sees its first patch).
func (p *Program) Pristine() *Program {
	if p.master != nil {
		return p.master
	}
	return p.ClonePristine()
}

// Image returns the program's paged data image, freezing it. The image is
// shared and immutable from then on: it is the copy-on-write base every
// run's Memory clones from, and the base the diff-encoded
// region-of-interest checkpoints compare against.
func (p *Program) Image() *Memory { return p.share() }

// Listing disassembles the whole code segment, one instruction per line.
func (p *Program) Listing() []string {
	out := make([]string, len(p.Code))
	for i, w := range p.Code {
		pc := p.Base + uint64(i)*isa.WordSize
		out[i] = fmt.Sprintf("%#08x: %s", pc, isa.Disassemble(pc, isa.Decode(w)))
	}
	return out
}

// Memory is the simulated 64-bit data memory. Addresses need not be
// aligned; unaligned accesses read/write the aligned word containing the
// address (the workloads only use aligned accesses, but the memory must not
// fault on synthesized prefetch addresses).
//
// Storage is paged into 4KB word arrays behind a dense page table. Data
// accesses are the hottest operation in the simulator — the workloads stream
// over arrays and chase pointers word by word — and the dense table makes
// every access one bounds check and one pointer load. The previous design
// (a page map fronted by a small direct-mapped translation cache) thrashed
// on pointer-chase workloads whose hot page count exceeded the cache, and
// its map probes were a top-ten profile entry for whole-figure runs. A
// per-word valid bitmap preserves sparse semantics for Valid
// (written-with-zero is distinguishable from never-written).
type Memory struct {
	// tab is the dense page table, indexed by page index (addr >> 12). The
	// workloads allocate compact low address spaces (tens of MB), so it
	// stays small; it grows lazily to the highest page stored.
	tab []*memPage
	// high holds the rare pages at or beyond denseLimit — a fuzzer or an
	// adversarial kernel storing through an arbitrary 64-bit register must
	// not grow the dense table unboundedly. nil until first needed.
	high   map[uint64]*memPage
	mapped int
}

// denseLimit bounds the dense page table: pages below it (1 GiB of address
// space, at most 2 MiB of table) are direct-indexed; the rest overflow to
// the high map.
const denseLimit = 1 << 18

const (
	memPageShift = 9 // 512 words = 4KB per page
	memPageWords = 1 << memPageShift
	memPageMask  = memPageWords - 1
)

type memPage struct {
	words [memPageWords]uint64
	valid [memPageWords / 64]uint64
	// owner is the Memory that may write this page. Clones share page
	// pointers (copy-on-write); a Store through a Memory that does not own
	// the page copies it first. A program's image is frozen before its
	// first clone (see Program.share), so sharing its pages across
	// concurrently-cloned runs is race-free.
	owner *Memory
}

// NewMemory creates a memory initialized from the program's data image: a
// copy-on-write clone of the (now frozen) image.
func NewMemory(p *Program) *Memory {
	return p.share().clone()
}

// Prebuild forces the lazy caches (predecoded instructions and the frozen
// data image). A program shared as an immutable master — cloned
// concurrently by a harness worker pool — must be prebuilt before it is
// published, so the clones only ever read it.
func (p *Program) Prebuild() {
	p.Predecode()
	p.share()
}

// share freezes the data image and returns it (an empty one when nothing
// was seeded). On a prebuilt master it only reads, so concurrent clones
// never race.
func (p *Program) share() *Memory {
	if p.image == nil {
		p.image = &Memory{}
	}
	if !p.frozen {
		p.frozen = true
	}
	return p.image
}

// clone returns a copy-on-write clone: the page table is copied but the
// pages themselves are shared until the clone writes to one (Store copies a
// page it doesn't own). Runs touch far fewer pages with stores than the
// image maps, so this beats deep-copying every page up front — which used to
// be a measurable slice of whole-experiment time.
func (m *Memory) clone() *Memory {
	c := &Memory{tab: append([]*memPage(nil), m.tab...), mapped: m.mapped}
	if m.high != nil {
		c.high = make(map[uint64]*memPage, len(m.high))
		for idx, pg := range m.high {
			c.high[idx] = pg
		}
	}
	return c
}

// page returns the page containing word index w, or nil when the page has
// never been written.
func (m *Memory) page(w uint64) *memPage {
	idx := w >> memPageShift
	if idx < uint64(len(m.tab)) {
		return m.tab[idx]
	}
	if m.high != nil {
		return m.high[idx]
	}
	return nil
}

// setPage installs pg as the page at idx, growing the dense table or
// spilling to the high map as the index demands. Growth reslices within
// capacity: images are seeded in ascending order, so a table per page is
// quadratic.
func (m *Memory) setPage(idx uint64, pg *memPage) {
	if idx >= denseLimit {
		if m.high == nil {
			m.high = make(map[uint64]*memPage)
		}
		m.high[idx] = pg
		return
	}
	if idx >= uint64(len(m.tab)) {
		if idx >= uint64(cap(m.tab)) {
			capHint := idx + 1
			if c := 2 * uint64(cap(m.tab)); c > capHint {
				capHint = c
			}
			if capHint > denseLimit {
				capHint = denseLimit
			}
			nt := make([]*memPage, len(m.tab), capHint)
			copy(nt, m.tab)
			m.tab = nt
		}
		// Entries past len are nil: the table never shrinks.
		m.tab = m.tab[:idx+1]
	}
	m.tab[idx] = pg
}

// forEachPage visits every mapped page in ascending page-index order (the
// dense table is inherently ordered; high indices all sort after it).
func (m *Memory) forEachPage(f func(idx uint64, pg *memPage)) {
	for i, pg := range m.tab {
		if pg != nil {
			f(uint64(i), pg)
		}
	}
	if len(m.high) > 0 {
		idxs := make([]uint64, 0, len(m.high))
		for idx := range m.high {
			idxs = append(idxs, idx)
		}
		sort.Slice(idxs, func(i, j int) bool { return idxs[i] < idxs[j] })
		for _, idx := range idxs {
			f(idx, m.high[idx])
		}
	}
}

// numPages counts the mapped pages.
func (m *Memory) numPages() int {
	n := len(m.high)
	for _, pg := range m.tab {
		if pg != nil {
			n++
		}
	}
	return n
}

// Load reads the 8-byte word containing addr. Unmapped addresses read zero.
func (m *Memory) Load(addr uint64) uint64 {
	w := addr >> 3
	pg := m.page(w)
	if pg == nil {
		return 0
	}
	return pg.words[w&memPageMask]
}

// Store writes the 8-byte word containing addr, copying a shared page on
// first write (see clone).
func (m *Memory) Store(addr, val uint64) {
	w := addr >> 3
	pg := m.page(w)
	if pg == nil {
		pg = &memPage{owner: m}
		m.setPage(w>>memPageShift, pg)
	} else if pg.owner != m {
		np := new(memPage)
		*np = *pg
		np.owner = m
		m.setPage(w>>memPageShift, np)
		pg = np
	}
	o := w & memPageMask
	pg.words[o] = val
	if bit := uint64(1) << (o & 63); pg.valid[o>>6]&bit == 0 {
		pg.valid[o>>6] |= bit
		m.mapped++
	}
}

// Valid reports whether the word containing addr has ever been written.
// LDNF uses this to model the non-faulting load returning zero for invalid
// addresses.
func (m *Memory) Valid(addr uint64) bool {
	w := addr >> 3
	pg := m.page(w)
	if pg == nil {
		return false
	}
	o := w & memPageMask
	return pg.valid[o>>6]&(1<<(o&63)) != 0
}

// Footprint returns the number of distinct mapped words.
func (m *Memory) Footprint() int { return m.mapped }

// Snapshot returns the memory contents in deterministic (sorted) order; used
// by the transparency property tests to compare architectural state.
func (m *Memory) Snapshot() []WordValue {
	var out []WordValue
	m.forEachPage(func(idx uint64, pg *memPage) {
		for o, v := range pg.words {
			if v != 0 && pg.valid[o>>6]&(1<<(uint(o)&63)) != 0 {
				out = append(out, WordValue{Addr: (idx<<memPageShift | uint64(o)) << 3, Val: v})
			}
		}
	})
	return out
}

// WordValue is one mapped memory word.
type WordValue struct {
	Addr, Val uint64
}
