package workloads

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"testing"

	"tridentsp/internal/checkpoint"
	"tridentsp/internal/core"
	"tridentsp/internal/isa"
	"tridentsp/internal/program"
)

func TestAllBenchmarksBuild(t *testing.T) {
	for _, bm := range All() {
		for _, s := range []Scale{ScaleTest, ScaleSmall, ScaleFull} {
			p := bm.Build(s)
			if p == nil || len(p.Code) == 0 {
				t.Fatalf("%s at scale %d: empty program", bm.Name, s)
			}
			if p.Name != bm.Name {
				t.Errorf("%s: program named %q", bm.Name, p.Name)
			}
			// Every instruction word must decode to a valid opcode.
			for i, w := range p.Code {
				if !isa.Decode(w).Op.Valid() {
					t.Fatalf("%s: invalid instruction at index %d", bm.Name, i)
				}
			}
		}
	}
}

func TestBenchmarksNeverReadScratchRegisters(t *testing.T) {
	// r30 is reserved for the optimizer's inserted dereference code and
	// r29 for value-specialization guards; no workload may read either
	// (writing would also be suspect).
	for _, bm := range All() {
		p := bm.Build(ScaleTest)
		for i, w := range p.Code {
			in := isa.Decode(w)
			for _, r := range readRegs(in) {
				if r == 29 || r == 30 {
					t.Fatalf("%s: instruction %d reads scratch r%d: %v", bm.Name, i, r, in)
				}
			}
		}
	}
}

// readRegs mirrors trace.Reads without importing it (dependency hygiene:
// workloads must stay a leaf package over isa/program).
func readRegs(in isa.Inst) []isa.Reg {
	switch in.Op.Class() {
	case isa.ClassALU, isa.ClassFP:
		if in.Op == isa.LDI {
			return nil
		}
		if in.Op.HasImm() || in.Op == isa.MOVE {
			return []isa.Reg{in.Ra}
		}
		return []isa.Reg{in.Ra, in.Rb}
	case isa.ClassLoad, isa.ClassPrefetch, isa.ClassBranch:
		return []isa.Reg{in.Ra}
	case isa.ClassStore:
		return []isa.Reg{in.Ra, in.Rb}
	case isa.ClassJump:
		if in.Op == isa.JMP {
			return []isa.Reg{in.Ra}
		}
	}
	return nil
}

func TestAllBenchmarksRunOnBaseline(t *testing.T) {
	for _, bm := range All() {
		bm := bm
		t.Run(bm.Name, func(t *testing.T) {
			p := bm.Build(ScaleTest)
			sys := core.NewSystem(core.BaselineConfig(core.HW8x8), p)
			res := sys.Run(60_000)
			if sys.Thread().Halted() {
				t.Fatalf("%s halted prematurely at %d instrs", bm.Name, res.OrigInstrs)
			}
			if res.OrigInstrs < 60_000 {
				t.Fatalf("%s: ran only %d instrs", bm.Name, res.OrigInstrs)
			}
			if res.Mem.Loads == 0 {
				t.Fatalf("%s: no loads executed", bm.Name)
			}
			if res.IPC() <= 0 || res.IPC() > 4 {
				t.Fatalf("%s: implausible IPC %.3f", bm.Name, res.IPC())
			}
		})
	}
}

func TestAllBenchmarksRunUnderSelfRepair(t *testing.T) {
	for _, bm := range All() {
		bm := bm
		t.Run(bm.Name, func(t *testing.T) {
			p := bm.Build(ScaleTest)
			sys := core.NewSystem(core.DefaultConfig(), p)
			res := sys.Run(120_000)
			if sys.Thread().Halted() {
				t.Fatalf("%s halted prematurely", bm.Name)
			}
			// The memory-bound kernels must form traces even in short
			// runs; the irregular ones may not, but must not crash.
			_ = res
		})
	}
}

func TestHotBenchmarksFormTraces(t *testing.T) {
	// The regular loop kernels must heat up and get traces quickly.
	for _, name := range []string{"swim", "art", "mcf", "mgrid", "facerec", "wupwise"} {
		bm, ok := ByName(name)
		if !ok {
			t.Fatalf("missing benchmark %s", name)
		}
		p := bm.Build(ScaleTest)
		sys := core.NewSystem(core.DefaultConfig(), p)
		res := sys.Run(150_000)
		if res.TracesFormed == 0 {
			t.Errorf("%s: no traces formed in 150k instrs", name)
		}
	}
}

func TestMcfChaseIsStridePredictable(t *testing.T) {
	// The arena chase must lead to prefetch insertion (the DLT sees the
	// allocation-order stride even though the code has no recurrence).
	bm, _ := ByName("mcf")
	p := bm.Build(ScaleSmall)
	cfg := core.DefaultConfig()
	cfg.HW = core.HWNone
	sys := core.NewSystem(cfg, p)
	res := sys.Run(1_000_000)
	if res.Insertions == 0 {
		t.Fatal("mcf: no prefetch insertions")
	}
	if res.Mem.PrefetchesIssued == 0 {
		t.Fatal("mcf: no prefetches executed")
	}
}

func TestParserLoadsMature(t *testing.T) {
	// parser's hash probes are unprefetchable: the optimizer must give up
	// on them rather than churn.
	bm, _ := ByName("parser")
	p := bm.Build(ScaleSmall)
	cfg := core.DefaultConfig()
	cfg.HW = core.HWNone
	sys := core.NewSystem(cfg, p)
	res := sys.Run(1_500_000)
	if res.TracesFormed == 0 {
		t.Skip("parser formed no traces at this scale")
	}
	if res.Repairs > 50 {
		t.Errorf("parser: %d repairs on unprefetchable loads", res.Repairs)
	}
}

func TestByName(t *testing.T) {
	if _, ok := ByName("mcf"); !ok {
		t.Fatal("mcf missing")
	}
	if _, ok := ByName("nonesuch"); ok {
		t.Fatal("unknown benchmark found")
	}
	if len(All()) != 14 {
		t.Fatalf("expected 14 benchmarks, have %d", len(All()))
	}
}

func TestDeterministicBuilds(t *testing.T) {
	// Two builds of the same benchmark must be bit-identical (experiments
	// rely on reproducibility).
	for _, bm := range All() {
		a, b := buildFresh(bm, ScaleTest), buildFresh(bm, ScaleTest)
		if len(a.Code) != len(b.Code) {
			t.Fatalf("%s: nondeterministic code size", bm.Name)
		}
		for i := range a.Code {
			if a.Code[i] != b.Code[i] {
				t.Fatalf("%s: nondeterministic code", bm.Name)
			}
		}
		if !bytes.Equal(imageState(a), imageState(b)) {
			t.Fatalf("%s: nondeterministic data", bm.Name)
		}
	}
}

func TestGapHandlerTableResolves(t *testing.T) {
	p := Gap(ScaleTest)
	// Every handler-table word must point inside the code segment at an
	// aligned instruction.
	found := 0
	for _, wv := range p.Image().Snapshot() {
		if v := wv.Val; v >= p.Base && v < p.CodeEnd() && v%isa.WordSize == 0 {
			found++
		}
	}
	if found < 8 {
		t.Fatalf("handler table incomplete: %d in-code pointers", found)
	}
}

// buildFresh builds bm at s from scratch rather than cloning the cached
// master, so two calls really are two builds.
func buildFresh(bm Benchmark, s Scale) *program.Program {
	buildMu.Lock()
	delete(buildCache, buildKey{bm.Name, s})
	buildMu.Unlock()
	return bm.Build(s)
}

// imageState returns the checkpoint encoding of p's initial data image:
// every mapped page's words and valid bits, so words seeded with zero
// count too.
func imageState(p *program.Program) []byte {
	e := checkpoint.NewEncoder()
	p.Image().SaveState(e)
	return e.Bytes()
}

// TestWorkloadImagesPinned pins every workload's initial data image, byte
// for byte, to the images the workloads had when each program still carried
// a separate word map that the paged image was built from. A change that
// alters seeding order, skips a zero-valued word or moves a table shows up
// here before it shows up as a shifted figure.
func TestWorkloadImagesPinned(t *testing.T) {
	want := map[Scale]map[string]string{
		ScaleTest: {
			"applu":   "616c06d8ce6505d874623c0bd283e1a0c3ce1b1ffb59d9f40aabe49225d96627",
			"art":     "89a03b22f9a559648a3b84b5808c3bd339d4aa129b252a61621db7850f370681",
			"dot":     "b63df99672ddac0ff99fc3a93a8d889d721f273741bf9e08e4862deb733b49b1",
			"equake":  "1830a230228f1a74c25cf19ef58f9ce5cf2968b0224b6d1719bee20a48972132",
			"facerec": "a16efd9356dc94c599a7f502a2a2a3decba7299c645fb1e9b394714ca30ad268",
			"fma3d":   "dc758afea3fcb3d3be7fcdff7e3e80f8eb42741229aadd62beb263425c938b0b",
			"galgel":  "a66092903631db6a445fe82e662514d94c9cc201061984faf82c4f5bd1b81b34",
			"gap":     "b7c64bff659716b983399022940af399b1f93340459896067baec149b6786652",
			"mcf":     "9724852f7e69fbbd9858750768f5fe4d1981d09afe45f9461be44d3596be9fcb",
			"mgrid":   "1eb9799dfe82d411901f9cf7b3056a9cd813444c4e173000c8ab4dfaf093a754",
			"parser":  "3cdada73f791f48bc63de7def1f26e0134969cf61d6a3eb268465be59f3f602c",
			"swim":    "c1a84385bb9a15b9e0d91dd1a8c341271ce68633738ee5106382ab6ff8ecaeb4",
			"vis":     "cbaf692a7fdb26bb5709e7cc033027752fd6a458d3207af53bbd46530062e2f2",
			"wupwise": "f05b29d3424465a8acb747e663ef5e3dd62595a14b18ae0563664abafd1d2b71",
		},
		ScaleFull: {
			"applu":   "aa0cce288104a69d746116c32e4b4263da3c73c3ccd4d95dca17585bf2ee35bc",
			"art":     "e6e190ef271e96828f24d77ccc49b431e91239595594886eb179306c6a433218",
			"dot":     "8d086d10c70d7f63c682cff3946f10b8c4192b2b268873be82b9cb146da8ff6e",
			"equake":  "dc47f6194de84c8964f2e4fce15c3630c4b88d7aa794758bac9dc7f743111392",
			"facerec": "868b9e29a3a1c4d7a84822601988d4420cc8469c0ef853551d3822317d3b58b8",
			"fma3d":   "0d058ec662c99e29d4d5dc5c00a47b17d1dc40eb34dd977be93e3d8605133ded",
			"galgel":  "946e43def189632746a9bbd994b0e84ca81056092a4e5d280057fdc5c68523c6",
			"gap":     "55caf94ad41d9b2a579d445ae74293c13179c4b144778d008d0547c2161a7c8d",
			"mcf":     "41afce9aea34dbcdef711218cc328cac1b2772a591e0248c7c9d6a35fe5db109",
			"mgrid":   "76b181f8afa57806c583fdb6b4267207cd269fd2dde74b528a6432cc522e0414",
			"parser":  "26efcf2c5aac24af7ac6bcfa03ab766c0a72810d64d088d0e2d436488173ccc6",
			"swim":    "9acdfdd5678ae287ec0b6f347b1a0c59f99509f8ae16a6987fc56042e81aa4a4",
			"vis":     "695233f6986d55a96449464b799c1dcb9be64866d1f8ad11f5f441456febfbfa",
			"wupwise": "4467a24c3ed0d7926a66552a9c8cc826945b99ae4bbf9e4ae2f293e5043e85f1",
		},
	}
	for s, byName := range want {
		for _, bm := range All() {
			got := fmt.Sprintf("%x", sha256.Sum256(imageState(bm.Build(s))))
			if got != byName[bm.Name] {
				t.Errorf("%s at scale %d: image sha256 %s, want %s", bm.Name, s, got, byName[bm.Name])
			}
		}
	}
}
