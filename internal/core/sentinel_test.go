package core

import (
	"testing"

	"tridentsp/internal/telemetry"
	"tridentsp/internal/workloads"
)

// The divergence sentinel (sentinel.go) claims three things: it is
// transparent on a healthy machine, it catches a genuine fast-path state
// corruption, and its response (rewind + demote) completes the run with
// the same results an uncorrupted machine produces.

// zeroSentinel clears the sentinel's own activity counters so results can
// be compared across machines that checked different numbers of windows
// (a tripped sentinel stops checking after it demotes).
func zeroSentinel(r Results) Results {
	r.SentinelChecks = 0
	r.SentinelTrips = 0
	return r
}

func sentinelConfigForTest() Config {
	cfg := DefaultConfig()
	cfg.SentinelEvery = 30_000
	cfg.SentinelWindow = 30_000
	cfg.Telemetry = &telemetry.Options{}
	return cfg
}

func TestSentinelNoFalsePositives(t *testing.T) {
	bm, _ := workloads.ByName("mcf")
	cfg := sentinelConfigForTest()

	armed := NewSystem(cfg, bm.Build(workloads.ScaleSmall))
	resArmed := armed.Run(200_000)
	if resArmed.SentinelChecks == 0 {
		t.Fatal("sentinel never checked a window")
	}
	if resArmed.SentinelTrips != 0 {
		t.Fatalf("sentinel tripped %d times on a healthy run", resArmed.SentinelTrips)
	}

	// Transparency: an armed sentinel must not perturb the run at all.
	off := cfg
	off.SentinelEvery, off.SentinelWindow = 0, 0
	plain := NewSystem(off, bm.Build(workloads.ScaleSmall))
	resPlain := plain.Run(200_000)
	if zeroSentinel(resArmed) != resPlain {
		t.Errorf("armed sentinel perturbed the run\narmed: %+v\nplain: %+v", resArmed, resPlain)
	}
}

func TestSentinelCatchesInjectedFault(t *testing.T) {
	bm, _ := workloads.ByName("mcf")
	cfg := sentinelConfigForTest()

	clean := NewSystem(cfg, bm.Build(workloads.ScaleSmall))
	resClean := clean.Run(200_000)

	faulty := NewSystem(cfg, bm.Build(workloads.ScaleSmall))
	// Mid-window corruption (windows open back to back at every multiple
	// of 30k): flip a bit in a register the workloads never touch, so the
	// corruption survives to the window-end digest.
	faulty.InjectFastPathFault(45_000, 20, 1<<7)
	resFaulty := faulty.Run(200_000)

	if resFaulty.SentinelTrips == 0 {
		t.Fatal("sentinel missed the injected fast-path corruption")
	}
	if resFaulty.Aborted != "" {
		t.Fatalf("healing aborted the run: %s", resFaulty.Aborted)
	}

	// Self-repair: the rewind discarded the corruption and the demoted
	// (reference-loop) remainder must land on the uncorrupted results.
	if zeroSentinel(resFaulty) != zeroSentinel(resClean) {
		t.Errorf("healed run diverged from clean run\nclean:  %+v\nhealed: %+v", resClean, resFaulty)
	}
	for r := 0; r < 32; r++ {
		if a, b := clean.Thread().Reg(isaReg(uint8(r))), faulty.Thread().Reg(isaReg(uint8(r))); a != b {
			t.Errorf("r%d diverged after healing: clean %#x, healed %#x", r, a, b)
		}
	}

	// The divergence must be on the telemetry record.
	var divergences int
	for _, ev := range faulty.Telemetry().EngineEvents() {
		if ev.Kind == telemetry.KindSentinelDivergence {
			divergences++
		}
	}
	if divergences == 0 {
		t.Error("no sentinel-divergence telemetry event was emitted")
	}
}

// TestSentinelCheckpointRoundTrip: an open sentinel window (snapshot in
// hand) survives a checkpoint/restore cycle and still verifies.
func TestSentinelCheckpointRoundTrip(t *testing.T) {
	bm, _ := workloads.ByName("mcf")
	cfg := sentinelConfigForTest()

	ref := NewSystem(cfg, bm.Build(workloads.ScaleSmall))
	resRef := ref.Run(150_000)

	resCkpt, sys := checkpointedRun(t, cfg, bm, 150_000, 40_000)
	compareSystems(t, "sentinel", resRef, resCkpt, ref, sys)
	if resCkpt.SentinelChecks == 0 {
		t.Fatal("sentinel never checked across the checkpointed run")
	}
}

// TestSentinelQuarantinesJIT: a sentinel trip on a machine running compiled
// chains must quarantine the fast path — fast path off, every compiled
// closure chain dropped eagerly — and the demoted remainder must still heal
// to the results of an uncorrupted machine.
func TestSentinelQuarantinesJIT(t *testing.T) {
	bm, _ := workloads.ByName("mcf")
	cfg := sentinelConfigForTest()

	clean := NewSystem(cfg, bm.Build(workloads.ScaleSmall))
	resClean := clean.Run(200_000)

	faulty := NewSystem(cfg, bm.Build(workloads.ScaleSmall))
	faulty.InjectFastPathFault(45_000, 20, 1<<7)
	resFaulty := faulty.Run(200_000)

	if resFaulty.SentinelTrips == 0 {
		t.Fatal("sentinel missed the injected corruption")
	}
	if faulty.tiers[tierJIT].instrs == 0 {
		t.Fatal("compiled chains never ran before the trip; quarantine test is vacuous")
	}
	if !faulty.cfg.DisableFastPath {
		t.Fatal("demotion left the fast path armed")
	}
	// Every compiled chain must be gone from both decoded images — the lazy
	// generation guard never runs once the fast path is off, so anything
	// still resident here is pinned for the rest of the run.
	if n := faulty.live.BlockStats().Resident; n != 0 {
		t.Fatalf("live image still holds %d compiled chains", n)
	}
	if n := faulty.cache.BlockStats().Resident; n != 0 {
		t.Fatalf("code cache still holds %d compiled chains", n)
	}

	if resFaulty.Aborted != "" {
		t.Fatalf("healing aborted the run: %s", resFaulty.Aborted)
	}
	if zeroSentinel(resFaulty) != zeroSentinel(resClean) {
		t.Errorf("healed run diverged from clean run\nclean:  %+v\nhealed: %+v",
			resClean, resFaulty)
	}
	for r := 0; r < 32; r++ {
		if a, b := clean.Thread().Reg(isaReg(uint8(r))), faulty.Thread().Reg(isaReg(uint8(r))); a != b {
			t.Errorf("r%d diverged after healing: clean %#x, healed %#x", r, a, b)
		}
	}
}
