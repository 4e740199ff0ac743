package core

import (
	"fmt"
	"testing"

	"tridentsp/internal/chaos"
	"tridentsp/internal/isa"
	"tridentsp/internal/memsys"
	"tridentsp/internal/workloads"
)

// The fast path (fastpath.go, cpu.ExecCompiled) claims bit-identical machine
// behaviour to the reference one-step loop. These tests prove it by running
// every workload, a config ablation matrix, and every chaos preset twice —
// once per path — and requiring Results (a comparable struct: == is the
// exact check), the final PC, and the full register file to match exactly.

// diffRun executes the same benchmark twice, with the fast path enabled and
// disabled, and fails the test on any observable divergence.
func diffRun(t *testing.T, label string, cfg Config, bm workloads.Benchmark,
	sc workloads.Scale, limit uint64) {
	t.Helper()
	fast := cfg
	fast.DisableFastPath = false
	slow := cfg
	slow.DisableFastPath = true

	sysF := NewSystem(fast, bm.Build(sc))
	sysS := NewSystem(slow, bm.Build(sc))
	resF := sysF.Run(limit)
	resS := sysS.Run(limit)

	if resF != resS {
		t.Errorf("%s: Results diverged\nfast: %+v\nslow: %+v", label, resF, resS)
		return
	}
	if pcF, pcS := sysF.Thread().PC(), sysS.Thread().PC(); pcF != pcS {
		t.Errorf("%s: final PC diverged: fast %#x, slow %#x", label, pcF, pcS)
	}
	for r := isa.Reg(0); r < isa.NumRegs; r++ {
		if vF, vS := sysF.Thread().Reg(r), sysS.Thread().Reg(r); vF != vS {
			t.Errorf("%s: r%d diverged: fast %#x, slow %#x", label, r, vF, vS)
		}
	}
	// The memory system is where the fast path actually diverges in
	// mechanism (LoadFast probe, inline stores and prefetches, deferred
	// sweeps), so its counters are asserted explicitly: first the per-
	// outcome load classification — partial hits and prefetch-displacement
	// misses are where timing bugs would surface — then the whole Stats
	// struct (comparable, so == is the exact check).
	stF, stS := sysF.hier.Stats, sysS.hier.Stats
	for o := memsys.Outcome(0); int(o) < memsys.NumOutcomes; o++ {
		if stF.ByOutcome[o] != stS.ByOutcome[o] {
			t.Errorf("%s: %v loads diverged: fast %d, slow %d",
				label, o, stF.ByOutcome[o], stS.ByOutcome[o])
		}
	}
	if stF != stS {
		t.Errorf("%s: memsys.Stats diverged\nfast: %+v\nslow: %+v", label, stF, stS)
	}
}

func TestFastPathDifferentialAllWorkloads(t *testing.T) {
	for _, bm := range workloads.All() {
		bm := bm
		t.Run(bm.Name, func(t *testing.T) {
			diffRun(t, bm.Name, DefaultConfig(), bm, workloads.ScaleSmall, 200_000)
		})
	}
}

func TestFastPathDifferentialConfigMatrix(t *testing.T) {
	matrix := []struct {
		name string
		cfg  Config
	}{
		{"baseline-none", BaselineConfig(HWNone)},
		{"baseline-4x4", BaselineConfig(HW4x4)},
		{"baseline-8x8", BaselineConfig(HW8x8)},
		{"default", DefaultConfig()},
		{"sw-basic", func() Config { c := DefaultConfig(); c.SW = SWBasic; return c }()},
		{"sw-whole-object", func() Config { c := DefaultConfig(); c.SW = SWWholeObject; return c }()},
		{"sw-off-trident", func() Config { c := DefaultConfig(); c.SW = SWOff; return c }()},
		{"link-disabled", func() Config { c := DefaultConfig(); c.LinkTraces = false; return c }()},
		{"backout", func() Config {
			c := DefaultConfig()
			c.Backout = true
			c.BackoutMinEntries = 64
			c.BackoutRatio = 0.9
			return c
		}()},
		{"valspec", func() Config { c := DefaultConfig(); c.ValueSpecialize = true; return c }()},
		{"phase", func() Config {
			c := DefaultConfig()
			c.PhaseClearMature = true
			c.PhaseWindow = 20_000
			c.PhaseDelta = 0.1
			return c
		}()},
		{"estimate-init", func() Config { c := DefaultConfig(); c.InitFromEstimate = true; return c }()},
		{"no-deref", func() Config { c := DefaultConfig(); c.DerefPointers = false; return c }()},
		{"no-livelock", func() Config { c := DefaultConfig(); c.LivelockWindow = 0; return c }()},
	}
	for _, bench := range []string{"swim", "mcf", "art"} {
		bm, ok := workloads.ByName(bench)
		if !ok {
			t.Fatalf("unknown benchmark %q", bench)
		}
		for _, m := range matrix {
			m := m
			t.Run(bench+"/"+m.name, func(t *testing.T) {
				diffRun(t, bench+"/"+m.name, m.cfg, bm, workloads.ScaleSmall, 150_000)
			})
		}
	}
}

func TestFastPathDifferentialChaosPresets(t *testing.T) {
	for _, preset := range chaos.Presets() {
		preset := preset
		for _, bench := range []string{"swim", "mcf"} {
			bm, ok := workloads.ByName(bench)
			if !ok {
				t.Fatalf("unknown benchmark %q", bench)
			}
			t.Run(string(preset)+"/"+bench, func(t *testing.T) {
				sched, err := chaos.NewSchedule(preset, 1, 400_000)
				if err != nil {
					t.Fatal(err)
				}
				cfg := DefaultConfig()
				cfg.Backout = true
				cfg.PhaseClearMature = true
				cfg.Chaos = sched
				cfg.ChaosMonitorEvery = 20_000
				cfg.ChaosShadow = true
				diffRun(t, fmt.Sprintf("%s/%s", preset, bench), cfg, bm,
					workloads.ScaleSmall, 150_000)
			})
		}
	}
}

// TestFastPathResumableRuns guards the windowed-Run pattern the resilience
// experiment uses: repeated Run calls with growing limits must land on the
// same intermediate snapshots on both paths.
func TestFastPathResumableRuns(t *testing.T) {
	bm, _ := workloads.ByName("swim")
	sched, err := chaos.NewSchedule(chaos.PresetLatencyPhase, 1, 400_000)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Chaos = sched
	cfg.ChaosMonitorEvery = 20_000

	fast := cfg
	slow := cfg
	slow.DisableFastPath = true
	sysF := NewSystem(fast, bm.Build(workloads.ScaleSmall))
	sysS := NewSystem(slow, bm.Build(workloads.ScaleSmall))
	for target := uint64(10_000); target <= 150_000; target += 10_000 {
		resF := sysF.Run(target)
		resS := sysS.Run(target)
		if resF != resS {
			t.Fatalf("windowed run diverged at target %d\nfast: %+v\nslow: %+v",
				target, resF, resS)
		}
	}
}
