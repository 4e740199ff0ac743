package main

import (
	"strings"
	"testing"

	"tridentsp/internal/telemetry"
)

func evs() []telemetry.Event {
	return []telemetry.Event{
		{Seq: 0, Cycle: 10, Kind: telemetry.KindFastEnter, PC: 0x1000},
		{Seq: 1, Cycle: 90, Kind: telemetry.KindFastExit, PC: 0x1040,
			Aux: 10, Arg: int64(telemetry.FPNeedSlow), Arg2: 70},
		{Seq: 2, Cycle: 100, Kind: telemetry.KindPrefetchInsert, PC: 0x2000,
			Aux: 0x1040, Arg: 1, Arg2: 2},
		{Seq: 3, Cycle: 200, Kind: telemetry.KindPrefetchRepair, PC: 0x2000,
			Aux: 0x1040, Arg: 2, Arg2: 1},
		{Seq: 4, Cycle: 300, Kind: telemetry.KindPrefetchRepair, PC: 0x2000,
			Aux: 0x1040, Arg: 3, Arg2: 2},
		{Seq: 5, Cycle: 400, Kind: telemetry.KindPrefetchMature, PC: 0x2000,
			Aux: 0x1040, Arg: 3},
		{Seq: 6, Cycle: 410, Kind: telemetry.KindFastEnter, PC: 0x1000},
		{Seq: 7, Cycle: 500, Kind: telemetry.KindFastExit, PC: 0x1040,
			Aux: 410, Arg: int64(telemetry.FPLimit), Arg2: 80},
	}
}

func TestRepairTimelines(t *testing.T) {
	out := repairTimelines(evs())
	want := "  head 0x1040 load 0x2000: insert@100 d=1 | repair@200 1->2 | repair@300 2->3 | mature@400 d=3\n"
	if !strings.Contains(out, want) {
		t.Errorf("timeline missing:\nwant %q\ngot:\n%s", want, out)
	}
}

func TestFastPathResidency(t *testing.T) {
	out := fastPathResidency(evs())
	for _, want := range []string{"sessions: 2", "batched orig instrs: 150",
		"cycles in fast path: 170 / 500 (34.0%)"} {
		if !strings.Contains(out, want) {
			t.Errorf("residency missing %q:\n%s", want, out)
		}
	}
}

func TestTriggerHistogram(t *testing.T) {
	out := triggerHistogram(evs())
	for _, want := range []string{"need-slow", "limit", "50.0%"} {
		if !strings.Contains(out, want) {
			t.Errorf("histogram missing %q:\n%s", want, out)
		}
	}
}

func TestEmptyStreamSections(t *testing.T) {
	var sb strings.Builder
	summarize(&sb, nil)
	out := sb.String()
	for _, want := range []string{"(no prefetch events)", "(no fast-path events",
		"(no fast-path exits recorded)", "(no sampling events",
		"(no policy-switch events"} {
		if !strings.Contains(out, want) {
			t.Errorf("empty-stream output missing %q:\n%s", want, out)
		}
	}
}

func TestSamplingTimeline(t *testing.T) {
	events := []telemetry.Event{
		// Two detailed windows (the second phase-triggered) around one gap.
		{Seq: 0, Cycle: 50_000, Kind: telemetry.KindSampleDetail, PC: 0x100,
			Aux: 100_000, Arg: 100_000, Arg2: 0},
		{Seq: 1, Cycle: 60_000, Kind: telemetry.KindSampleFF, PC: 0x140,
			Aux: 950_000, Arg: 850_000, Arg2: 50_000},
		{Seq: 2, Cycle: 110_000, Kind: telemetry.KindSampleDetail, PC: 0x180,
			Aux: 1_050_000, Arg: 100_000, Arg2: 1},
	}
	out := samplingTimeline(events)
	for _, want := range []string{
		"detailed", "@100000", "ffwd", "@950000", "warm 50000", "phase",
		"residency: detailed 200000 (19.0%), fast-forward 850000 (of which warm 50000); 2 windows (1 phase-triggered), 1 gaps",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("sampling timeline missing %q:\n%s", want, out)
		}
	}
	// A serial stream carries no sample-spec marker and renders no
	// speculation line; a parallel stream's trailing marker adds exactly one.
	if strings.Contains(out, "speculation") {
		t.Errorf("speculation line without a sample-spec marker:\n%s", out)
	}
	spec := append(events, telemetry.Event{Seq: 3, Cycle: 110_000,
		Kind: telemetry.KindSampleSpec, Aux: 1_050_000, Arg: 3, Arg2: 8})
	out = samplingTimeline(spec)
	if want := "speculation: 3 windows executed and discarded (jobs=8)"; !strings.Contains(out, want) {
		t.Errorf("sampling timeline missing %q:\n%s", want, out)
	}
}

func TestPrefetchPolicy(t *testing.T) {
	// Two probe rounds over the four-backend arsenal: round one crowns
	// stride (backend 1), round two crowns ghb (backend 3) — one winner
	// change. The 40 loads before the first probe are the startup grace
	// window, attributed to backend 0.
	sw := func(seq uint64, backend, loads uint64, exploit int64) telemetry.Event {
		return telemetry.Event{Seq: seq, Cycle: int64(loads) * 10,
			Kind: telemetry.KindHWPrefSwitch, PC: backend, Aux: loads, Arg2: exploit}
	}
	events := []telemetry.Event{
		sw(0, 0, 40, 0), sw(1, 1, 50, 0), sw(2, 2, 60, 0), sw(3, 3, 70, 0),
		sw(4, 1, 80, 1), // exploit: stride wins round 1
		sw(5, 0, 120, 0), sw(6, 1, 130, 0), sw(7, 2, 140, 0), sw(8, 3, 150, 0),
		sw(9, 3, 160, 1), // exploit: ghb wins round 2
	}
	out := prefetchPolicy(events)
	for _, want := range []string{
		"next-line", "stride", "best-offset", "ghb",
		"37.5%", // next-line: 40 grace + 2x10 probe of 160 attributed loads
		"decisions: 10  winner changes: 1",
		"last switch at 160",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prefetch section missing %q:\n%s", want, out)
		}
	}
}

func TestTierResidency(t *testing.T) {
	blob := []byte(`{
  "counters": {},
  "gauges": {
    "tier_slow_instrs": 93000,
    "tier_slow_cycles": 32000,
    "tier_jit_instrs": 307000,
    "tier_jit_cycles": 100000,
    "jit_compiles": 37,
    "jit_revalidations": 24,
    "blockcache_rebuilds": 492,
    "blockcache_invalidations": 8
  },
  "histograms": {}
}`)
	out, err := tierResidency(blob)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"tier residency:", "reference loop", "jit chains",
		"307000", "76.8%", // jit instrs share of 400000
		"compiles=37", "revalidations=24", "rebuilds=492", "invalidations=8",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("tier section lacks %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "batch") {
		t.Errorf("tier section still renders a batch row:\n%s", out)
	}

	// A snapshot without tier gauges (old stream, or telemetry off) renders
	// the explicit empty marker instead of a zero table.
	out, err = tierResidency([]byte(`{"gauges": {}}`))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "no tier counters") {
		t.Errorf("empty snapshot not marked:\n%s", out)
	}

	if _, err := tierResidency([]byte("not json")); err == nil {
		t.Error("garbage metrics accepted")
	}
}
