package core

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzSelectorDeterminism is the arsenal selector's determinism oracle: the
// same fuzz-built hot loop runs under the full arsenal (HWSelector, with
// epochs small enough that probe rounds, exploit windows, and winner
// switches all fire inside the run) on three execution paths — slow path,
// compiled fast path, and a kill/resume run checkpointed mid-stream — and
// the selector's decision log must be identical on all of them, down to
// the cycle each switch fired. This is the contract DESIGN §16 states:
// switch points are a pure function of the committed load stream, never of
// the engine that executed it.
func FuzzSelectorDeterminism(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x66, 0x99, 0xb3})                        // load/store/prefetch
	f.Add(bytes.Repeat([]byte{0x67}, 24))                  // load-dense body
	f.Add(bytes.Repeat([]byte{0x9a, 0x08, 0xd1, 0x3f}, 8)) // store/ldnf/branch mix
	seq := make([]byte, 48)
	for i := range seq {
		seq[i] = byte(i * 53)
	}
	f.Add(seq)

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 192 {
			data = data[:192]
		}
		mk := func() Config {
			cfg := DefaultConfig()
			cfg.HW = HWSelector
			cfg.SelectorProbe = 300
			cfg.SelectorExploit = 2
			return cfg
		}
		slow := mk()
		slow.DisableFastPath = true
		fast := mk()

		sysS := NewSystem(slow, buildFuzzProgram(data))
		sysF := NewSystem(fast, buildFuzzProgram(data))
		resS := sysS.Run(30_000)
		resF := sysF.Run(30_000)

		// Kill/resume leg: the fast config runs half, quiesces, serializes,
		// and a freshly built machine restores and finishes.
		sysK := NewSystem(fast, buildFuzzProgram(data))
		resK := sysK.Run(15_000)
		if resK.Aborted == "" && !sysK.Thread().Halted() {
			if !sysK.Quiesce(1_000_000) {
				t.Fatalf("machine did not quiesce at %d instructions", sysK.OrigInstrs())
			}
			blob, err := sysK.SaveState()
			if err != nil {
				t.Fatalf("SaveState: %v", err)
			}
			fresh := NewSystem(fast, buildFuzzProgram(data))
			if err := fresh.RestoreState(blob); err != nil {
				t.Fatalf("RestoreState: %v", err)
			}
			sysK = fresh
		}
		resK = sysK.Run(30_000)

		ref := sysS.HWPref()
		for _, cmp := range []struct {
			name string
			sys  *System
			res  Results
		}{{"fast", sysF, resF}, {"kill-resume", sysK, resK}} {
			if cmp.res != resS {
				t.Fatalf("Results diverged\n%s: %+v\nslow: %+v", cmp.name, cmp.res, resS)
			}
			hwp := cmp.sys.HWPref()
			if got, want := hwp.DecisionCount(), ref.DecisionCount(); got != want {
				t.Fatalf("%s: decision count diverged: %d vs slow %d", cmp.name, got, want)
			}
			if got, want := hwp.Decisions(), ref.Decisions(); !reflect.DeepEqual(got, want) {
				for i := range want {
					if i < len(got) && got[i] != want[i] {
						t.Fatalf("%s: decision %d diverged:\n%+v\nvs slow %+v",
							cmp.name, i, got[i], want[i])
					}
				}
				t.Fatalf("%s: decision logs diverged", cmp.name)
			}
			if got, want := hwp.Residency(), ref.Residency(); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: residency diverged: %v vs slow %v", cmp.name, got, want)
			}
			if got, want := hwp.TotalStats(), ref.TotalStats(); got != want {
				t.Fatalf("%s: engine stats diverged: %+v vs slow %+v", cmp.name, got, want)
			}
		}
	})
}
