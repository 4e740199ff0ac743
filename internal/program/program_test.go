package program

import (
	"strings"
	"testing"
	"testing/quick"

	"tridentsp/internal/isa"
)

func TestBuilderSimpleLoop(t *testing.T) {
	b := NewBuilder("loop", 0x1000, 0x100000)
	b.Ldi(1, 10) // counter
	b.Label("top")
	b.OpI(isa.SUBI, 1, 1, 1)
	b.CondBr(isa.BNE, 1, "top")
	b.Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if p.Base != 0x1000 || p.Entry != 0x1000 {
		t.Fatalf("base/entry = %#x/%#x", p.Base, p.Entry)
	}
	if len(p.Code) != 4 {
		t.Fatalf("len(code) = %d, want 4", len(p.Code))
	}
	// The branch at index 2 must target index 1.
	in, ok := p.InstAt(p.Base + 2*isa.WordSize)
	if !ok || in.Op != isa.BNE {
		t.Fatalf("instruction 2 = %v ok=%v", in, ok)
	}
	if got := isa.BranchTarget(p.Base+2*isa.WordSize, in); got != p.Base+isa.WordSize {
		t.Errorf("branch target = %#x, want %#x", got, p.Base+isa.WordSize)
	}
}

func TestBuilderForwardReference(t *testing.T) {
	b := NewBuilder("fwd", 0, 0x1000)
	b.Br("end")
	b.Nop()
	b.Label("end")
	b.Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	in, _ := p.InstAt(0)
	if got := isa.BranchTarget(0, in); got != 16 {
		t.Errorf("forward branch target = %d, want 16", got)
	}
}

func TestBuilderUndefinedLabel(t *testing.T) {
	b := NewBuilder("bad", 0, 0x1000)
	b.Br("nowhere")
	b.Halt()
	if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "nowhere") {
		t.Fatalf("Build() err = %v, want undefined-label error", err)
	}
}

func TestBuilderDuplicateLabel(t *testing.T) {
	b := NewBuilder("dup", 0, 0x1000)
	b.Label("x")
	b.Nop()
	b.Label("x")
	b.Halt()
	if _, err := b.Build(); err == nil {
		t.Fatal("Build() succeeded with duplicate label")
	}
}

func TestBuilderLdiLarge(t *testing.T) {
	for _, v := range []uint64{0, 1, 1 << 20, 0xdeadbeefcafebabe, 1 << 63, ^uint64(0), 0x80000000, 0xffffffff} {
		b := NewBuilder("ldi", 0, 0x1000)
		b.Ldi(5, v)
		b.Halt()
		p, err := b.Build()
		if err != nil {
			t.Fatalf("Ldi(%#x): %v", v, err)
		}
		if got := evalLdi(t, p); got != v {
			t.Errorf("Ldi(%#x) evaluates to %#x", v, got)
		}
	}
}

func TestBuilderLdiProperty(t *testing.T) {
	f := func(v uint64) bool {
		b := NewBuilder("ldi", 0, 0x1000)
		b.Ldi(5, v)
		b.Halt()
		p, err := b.Build()
		if err != nil {
			return false
		}
		return evalLdi(t, p) == v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// evalLdi interprets just LDI/LDIH/HALT, enough to check constant
// materialization without importing the cpu package (which would be a
// dependency cycle in spirit: cpu tests already depend on program).
func evalLdi(t *testing.T, p *Program) uint64 {
	t.Helper()
	var r5 uint64
	for pc := p.Entry; ; pc += isa.WordSize {
		in, ok := p.InstAt(pc)
		if !ok {
			t.Fatalf("fell off code at %#x", pc)
		}
		switch in.Op {
		case isa.LDI:
			r5 = uint64(in.Imm)
		case isa.LDIH:
			r5 = r5<<32 | uint64(uint32(in.Imm))
		case isa.HALT:
			return r5
		default:
			t.Fatalf("unexpected op %v", in.Op)
		}
	}
}

func TestAllocAlignmentAndWords(t *testing.T) {
	b := NewBuilder("alloc", 0, 0x10000)
	a1 := b.Alloc(3)
	a2 := b.Alloc(8)
	a3 := b.AllocWords(7, 0, 9)
	if a1%8 != 0 || a2%8 != 0 || a3%8 != 0 {
		t.Fatalf("unaligned allocations: %#x %#x %#x", a1, a2, a3)
	}
	if a2 != a1+8 || a3 != a2+8 {
		t.Fatalf("allocator not bumping: %#x %#x %#x", a1, a2, a3)
	}
	b.Halt()
	p := b.MustBuild()
	m := NewMemory(p)
	if m.Load(a3) != 7 || m.Load(a3+8) != 0 || m.Load(a3+16) != 9 {
		t.Errorf("AllocWords contents wrong: %d %d %d", m.Load(a3), m.Load(a3+8), m.Load(a3+16))
	}
	if m.Valid(a3 + 8) {
		t.Error("zero word should not be mapped")
	}
}

func TestMemoryLoadStoreAligned(t *testing.T) {
	m := NewMemory(&Program{})
	m.Store(0x1000, 42)
	if m.Load(0x1000) != 42 {
		t.Fatal("load after store")
	}
	// Unaligned access maps to containing word.
	if m.Load(0x1003) != 42 {
		t.Fatal("unaligned load should read containing word")
	}
	m.Store(0x1007, 99)
	if m.Load(0x1000) != 99 {
		t.Fatal("unaligned store should write containing word")
	}
	if m.Valid(0x2000) {
		t.Fatal("unmapped address reported valid")
	}
	if m.Load(0x2000) != 0 {
		t.Fatal("unmapped address should read zero")
	}
}

func TestMemorySnapshotSorted(t *testing.T) {
	m := NewMemory(&Program{})
	m.Store(0x3000, 3)
	m.Store(0x1000, 1)
	m.Store(0x2000, 2)
	m.Store(0x4000, 0) // zero values excluded
	snap := m.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("snapshot len = %d, want 3", len(snap))
	}
	for i := 1; i < len(snap); i++ {
		if snap[i].Addr <= snap[i-1].Addr {
			t.Fatal("snapshot not sorted")
		}
	}
}

func TestCloneContract(t *testing.T) {
	b := NewBuilder("c", 0x1000, 0x10000)
	b.Nop()
	b.Halt()
	a := b.AllocWords(5)
	p := b.MustBuild()
	c := p.Clone()
	// Code is deep: the simulator patches the live image in place.
	c.Code[0] = isa.Encode(isa.Inst{Op: isa.HALT})
	if isa.Decode(p.Code[0]).Op != isa.NOP {
		t.Error("Clone shares code")
	}
	// The data image is shared: runs read it only (their memory is a
	// copy-on-write view of it).
	if c.Image() != p.Image() || c.Image().Load(a) != 5 {
		t.Error("clone does not share the data image")
	}
	// The clone's run memory is still fully independent of the source's.
	m1, m2 := NewMemory(p), NewMemory(c)
	m1.Store(a, 7)
	if m2.Load(a) != 5 {
		t.Errorf("clone memories interfere: got %d, want 5", m2.Load(a))
	}
}

func TestWordAtBounds(t *testing.T) {
	b := NewBuilder("w", 0x1000, 0x10000)
	b.Nop()
	b.Halt()
	p := b.MustBuild()
	if _, ok := p.WordAt(0x0ff8); ok {
		t.Error("WordAt below base")
	}
	if _, ok := p.WordAt(p.CodeEnd()); ok {
		t.Error("WordAt at end")
	}
	if _, ok := p.WordAt(0x1004); ok {
		t.Error("WordAt unaligned")
	}
	if _, ok := p.WordAt(0x1008); !ok {
		t.Error("WordAt last instruction")
	}
}

func TestListing(t *testing.T) {
	b := NewBuilder("l", 0x1000, 0x10000)
	b.Ld(1, 2, 8)
	b.Halt()
	p := b.MustBuild()
	lst := p.Listing()
	if len(lst) != 2 {
		t.Fatalf("listing lines = %d", len(lst))
	}
	if !strings.Contains(lst[0], "ld r1, 8(r2)") {
		t.Errorf("listing[0] = %q", lst[0])
	}
}

func TestStoreAscendingPagesReusesTable(t *testing.T) {
	// A program image is seeded in ascending address order; the dense page
	// table must grow by doubling, not by a fresh table per new page.
	const n = 4096
	allocs := testing.AllocsPerRun(3, func() {
		m := &Memory{}
		for i := uint64(0); i < n; i++ {
			m.Store(i<<(memPageShift+3), i)
		}
	})
	// One allocation per page, plus the table doublings and the Memory.
	if limit := float64(n + 2*12); allocs > limit {
		t.Fatalf("%v allocations storing %d ascending pages, want <= %v", allocs, n, limit)
	}
}

func TestSetWordPanicsAfterShare(t *testing.T) {
	// Every way of sharing the image freezes it: SetWord panics and the
	// image keeps its seeded word.
	for name, share := range map[string]func(p *Program){
		"Clone":     func(p *Program) { p.Clone() },
		"Prebuild":  func(p *Program) { p.Prebuild() },
		"NewMemory": func(p *Program) { NewMemory(p) },
		"Image":     func(p *Program) { p.Image() },
	} {
		t.Run(name, func(t *testing.T) {
			p := &Program{Name: "seed"}
			p.SetWord(0x10000, 1)
			share(p)
			defer func() {
				if recover() == nil {
					t.Fatal("SetWord after sharing the image did not panic")
				}
				if got := p.Image().Load(0x10000); got != 1 {
					t.Fatalf("frozen image changed: word = %d, want 1", got)
				}
			}()
			p.SetWord(0x10000, 2)
		})
	}
}

func TestCloneIsFrozen(t *testing.T) {
	// A clone shares its source's image, so seeding through it would
	// change the source's memory too.
	p := &Program{Name: "seed"}
	p.SetWord(0x10000, 1)
	c := p.Clone()
	defer func() {
		if recover() == nil {
			t.Fatal("SetWord on a clone did not panic")
		}
	}()
	c.SetWord(0x10000, 2)
}
