// Command tracestats summarizes a telemetry event stream written by
// tridentsim -trace-out. It renders the three views the flat JSONL makes
// tedious to read by hand:
//
//   - per-load repair timelines — every insert → ±1 repair → mature
//     sequence the self-repairing optimizer ran, per (trace head, load);
//   - fast-path residency — how many cycles and original instructions the
//     compiled fast path retired, versus the whole run;
//   - the slow-path trigger histogram — why each fast-path session handed
//     control back to the reference one-step loop;
//   - the sampling timeline — for traces from tridentsim -sample, every
//     detailed window (with its phase label) and fast-forward gap, plus the
//     detailed/fast-forward residency split;
//   - the prefetch-policy breakdown — for traces from tridentsim
//     -hw selector, per-backend residency, probe counts, and exploit wins
//     reconstructed from the selector's switch events.
//
// With -metrics, a registry snapshot written by tridentsim -metrics-out adds
// a fourth view: per-tier residency (reference loop / compiled closure
// chains) and the compile/revalidate counters.
//
// Usage:
//
//	tridentsim -bench mcf -trace-out mcf.jsonl -metrics-out mcf.metrics.json
//	tracestats mcf.jsonl
//	tracestats -repairs mcf.jsonl                  # one section only
//	tracestats -metrics mcf.metrics.json mcf.jsonl # adds the tier section
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"tridentsp/internal/exp/render"
	"tridentsp/internal/hwpref"
	"tridentsp/internal/telemetry"
)

func main() {
	var (
		repairs   = flag.Bool("repairs", false, "print only the per-load repair timelines")
		residency = flag.Bool("residency", false, "print only the fast-path residency summary")
		triggers  = flag.Bool("triggers", false, "print only the slow-path trigger histogram")
		sampled   = flag.Bool("sampling", false, "print only the sampled-run interval timeline")
		prefetch  = flag.Bool("prefetch", false, "print only the prefetch-policy backend breakdown")
		metrics   = flag.String("metrics", "", "metrics registry JSON (tridentsim -metrics-out); adds the tier-residency section")
	)
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(),
			"usage: tracestats [-repairs|-residency|-triggers|-sampling|-prefetch] [-metrics METRICS.json] TRACE.jsonl\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}
	f, err := os.Open(flag.Arg(0))
	if err != nil {
		fmt.Fprintf(os.Stderr, "tracestats: %v\n", err)
		os.Exit(1)
	}
	events, err := telemetry.ParseJSONL(f)
	f.Close()
	if err != nil {
		fmt.Fprintf(os.Stderr, "tracestats: %v\n", err)
		os.Exit(1)
	}
	all := !*repairs && !*residency && !*triggers && !*sampled && !*prefetch
	if all || *repairs {
		fmt.Print(repairTimelines(events))
	}
	if all || *residency {
		fmt.Print(fastPathResidency(events))
	}
	if all || *triggers {
		fmt.Print(triggerHistogram(events))
	}
	if all || *sampled {
		fmt.Print(samplingTimeline(events))
	}
	if all || *prefetch {
		fmt.Print(prefetchPolicy(events))
	}
	if *metrics != "" {
		blob, err := os.ReadFile(*metrics)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tracestats: %v\n", err)
			os.Exit(1)
		}
		s, err := tierResidency(blob)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tracestats: %s: %v\n", *metrics, err)
			os.Exit(1)
		}
		fmt.Print(s)
	}
}

// tierResidency renders the engine counters from a metrics registry
// snapshot: weighted original instructions and cycles retired on the
// reference loop and through compiled chains, plus the compile/revalidate
// activity and the block-cache churn that drives it.
func tierResidency(metricsJSON []byte) (string, error) {
	var doc struct {
		Gauges map[string]float64 `json:"gauges"`
	}
	if err := json.Unmarshal(metricsJSON, &doc); err != nil {
		return "", err
	}
	g := doc.Gauges
	var sb strings.Builder
	sb.WriteString("tier residency:\n")
	tiers := []struct{ key, label string }{
		{"slow", "reference loop"},
		{"jit", "jit chains"},
	}
	var totInstrs, totCycles float64
	for _, t := range tiers {
		totInstrs += g["tier_"+t.key+"_instrs"]
		totCycles += g["tier_"+t.key+"_cycles"]
	}
	if totInstrs == 0 {
		sb.WriteString("  (no tier counters in the metrics snapshot)\n")
		return sb.String(), nil
	}
	widths := []int{-16, 14, 8, 14, 8}
	sb.WriteString("  " + render.Columns(" ", widths,
		"tier", "orig instrs", "", "cycles", "") + "\n")
	for _, t := range tiers {
		in, cy := g["tier_"+t.key+"_instrs"], g["tier_"+t.key+"_cycles"]
		ipct, cpct := 0.0, 0.0
		if totInstrs > 0 {
			ipct = 100 * in / totInstrs
		}
		if totCycles > 0 {
			cpct = 100 * cy / totCycles
		}
		sb.WriteString("  " + render.Columns(" ", widths, t.label,
			fmt.Sprintf("%.0f", in), fmt.Sprintf("%.1f%%", ipct),
			fmt.Sprintf("%.0f", cy), fmt.Sprintf("%.1f%%", cpct)) + "\n")
	}
	fmt.Fprintf(&sb, "  jit: compiles=%.0f revalidations=%.0f\n",
		g["jit_compiles"], g["jit_revalidations"])
	fmt.Fprintf(&sb, "  block cache: rebuilds=%.0f invalidations=%.0f\n",
		g["blockcache_rebuilds"], g["blockcache_invalidations"])
	return sb.String(), nil
}

// loadKey identifies one repaired load: the trace head it belongs to plus
// the load's original PC.
type loadKey struct {
	head, load uint64
}

// repairTimelines renders each load's insert → repair → mature history in
// event order. Insert events are keyed by the triggering load; repairs and
// matures carry the load PC directly.
func repairTimelines(events []telemetry.Event) string {
	steps := make(map[loadKey][]string)
	var order []loadKey
	note := func(k loadKey, s string) {
		if _, seen := steps[k]; !seen {
			order = append(order, k)
		}
		steps[k] = append(steps[k], s)
	}
	for _, e := range events {
		k := loadKey{head: e.Aux, load: e.PC}
		switch e.Kind {
		case telemetry.KindPrefetchInsert:
			note(k, fmt.Sprintf("insert@%d d=%d", e.Cycle, e.Arg))
		case telemetry.KindPrefetchRepair:
			note(k, fmt.Sprintf("repair@%d %d->%d", e.Cycle, e.Arg2, e.Arg))
		case telemetry.KindPrefetchMature:
			note(k, fmt.Sprintf("mature@%d d=%d", e.Cycle, e.Arg))
		}
	}
	var sb strings.Builder
	sb.WriteString("repair timelines:\n")
	if len(order) == 0 {
		sb.WriteString("  (no prefetch events)\n")
		return sb.String()
	}
	for _, k := range order {
		fmt.Fprintf(&sb, "  head %#x load %#x: %s\n",
			k.head, k.load, strings.Join(steps[k], " | "))
	}
	return sb.String()
}

// fastPathResidency sums the engine ring's fast-exit spans: cycles spent
// inside batching sessions and original instructions they retired, against
// the stream's last cycle. Engine events are ring-buffered, so on overflow
// the numbers cover the retained window (the stream's dropped count is not
// recorded per ring; the session count makes truncation visible).
func fastPathResidency(events []telemetry.Event) string {
	var (
		sessions   uint64
		spanCycles int64
		batched    int64
		lastCycle  int64
	)
	for _, e := range events {
		if e.Cycle > lastCycle {
			lastCycle = e.Cycle
		}
		if e.Kind != telemetry.KindFastExit {
			continue
		}
		sessions++
		if d := e.Cycle - int64(e.Aux); d > 0 {
			spanCycles += d
		}
		batched += e.Arg2
	}
	var sb strings.Builder
	sb.WriteString("fast-path residency:\n")
	if sessions == 0 {
		sb.WriteString("  (no fast-path events; slow path or engine ring empty)\n")
		return sb.String()
	}
	pct := 0.0
	if lastCycle > 0 {
		pct = 100 * float64(spanCycles) / float64(lastCycle)
	}
	fmt.Fprintf(&sb, "  sessions: %d  batched orig instrs: %d\n", sessions, batched)
	fmt.Fprintf(&sb, "  cycles in fast path: %d / %d (%.1f%%)\n", spanCycles, lastCycle, pct)
	return sb.String()
}

// triggerHistogram counts fast-exit events by exit reason.
func triggerHistogram(events []telemetry.Event) string {
	var counts [telemetry.NumFPReasons]uint64
	var total uint64
	for _, e := range events {
		if e.Kind != telemetry.KindFastExit {
			continue
		}
		if r := telemetry.FPReason(e.Arg); r < telemetry.NumFPReasons {
			counts[r]++
			total++
		}
	}
	var sb strings.Builder
	sb.WriteString("slow-path triggers:\n")
	if total == 0 {
		sb.WriteString("  (no fast-path exits recorded)\n")
		return sb.String()
	}
	type rc struct {
		reason telemetry.FPReason
		n      uint64
	}
	var rows []rc
	for r := telemetry.FPReason(0); r < telemetry.NumFPReasons; r++ {
		if counts[r] > 0 {
			rows = append(rows, rc{r, counts[r]})
		}
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].n != rows[j].n {
			return rows[i].n > rows[j].n
		}
		return rows[i].reason < rows[j].reason
	})
	widths := []int{-12, 10, 8}
	for _, r := range rows {
		sb.WriteString("  " + render.Columns(" ", widths,
			r.reason.String(), fmt.Sprintf("%d", r.n),
			fmt.Sprintf("%.1f%%", 100*float64(r.n)/float64(total))) + "\n")
	}
	return sb.String()
}

// samplingTimeline renders a sampled run's interval sequence from the
// scheduler's telemetry (DESIGN §14, §15): one line per detailed window —
// labelled "phase" when its signals triggered extra detail — and per
// fast-forward gap, then the detailed/fast-forward residency split. The
// scheduler merges per-chain streams in slot order before export, so the
// timeline reads as one serial schedule and is identical at every
// -sample-jobs; only the trailing speculation line (from the sample-spec
// summary marker) is jobs-dependent, since discarded speculation exists
// only when speculating. Sampling events are engine-class and ring-
// buffered, so on overflow the timeline covers the retained tail of the
// run.
func samplingTimeline(events []telemetry.Event) string {
	var sb strings.Builder
	sb.WriteString("sampling timeline:\n")
	var (
		lines         []string
		det, ff, warm int64
		windows, gaps int
		phases        int
		waste, sjobs  int64
		spec          bool
	)
	widths := []int{-10, 14, 12, 12}
	for _, e := range events {
		switch e.Kind {
		case telemetry.KindSampleDetail:
			windows++
			det += e.Arg
			note := ""
			if e.Arg2 == 1 {
				note = "phase"
				phases++
			}
			lines = append(lines, "  "+render.Columns(" ", widths, "detailed",
				fmt.Sprintf("@%d", e.Aux), fmt.Sprintf("%d", e.Arg), note))
		case telemetry.KindSampleFF:
			gaps++
			ff += e.Arg
			warm += e.Arg2
			lines = append(lines, "  "+render.Columns(" ", widths, "ffwd",
				fmt.Sprintf("@%d", e.Aux), fmt.Sprintf("%d", e.Arg),
				fmt.Sprintf("warm %d", e.Arg2)))
		case telemetry.KindSampleSpec:
			spec = true
			waste, sjobs = e.Arg, e.Arg2
		}
	}
	if windows+gaps == 0 {
		sb.WriteString("  (no sampling events; exact run or engine ring overflow)\n")
		return sb.String()
	}
	sb.WriteString("  " + render.Columns(" ", widths, "window", "progress", "instrs", "") + "\n")
	for _, l := range lines {
		sb.WriteString(l + "\n")
	}
	total := det + ff
	dpct := 0.0
	if total > 0 {
		dpct = 100 * float64(det) / float64(total)
	}
	fmt.Fprintf(&sb, "  residency: detailed %d (%.1f%%), fast-forward %d (of which warm %d); %d windows (%d phase-triggered), %d gaps\n",
		det, dpct, ff, warm, windows, phases, gaps)
	if spec {
		fmt.Fprintf(&sb, "  speculation: %d windows executed and discarded (jobs=%d)\n", waste, sjobs)
	}
	return sb.String()
}

// prefetchPolicy renders the arsenal selector's backend-residency breakdown
// (DESIGN §16) from its switch events: PC = backend index, Aux = committed
// loads at the switch, Arg2 = exploit flag. Loads between consecutive
// switches belong to the backend the earlier switch activated; the stretch
// before the first switch is the startup grace window, which runs backend 0.
// The tail past the last switch has unknown length (the stream does not
// carry the final load count), so the shares cover loads up to the last
// switch. Switch events are semantic-class, so the reconstruction sees the
// whole run, not a ring-buffered window.
func prefetchPolicy(events []telemetry.Event) string {
	var sb strings.Builder
	sb.WriteString("prefetch policy:\n")
	var decs []telemetry.Event
	for _, e := range events {
		if e.Kind == telemetry.KindHWPrefSwitch {
			decs = append(decs, e)
		}
	}
	if len(decs) == 0 {
		sb.WriteString("  (no policy-switch events; static prefetch config or selector never switched)\n")
		return sb.String()
	}
	var names []string
	for _, b := range hwpref.Arsenal(hwpref.DefaultConfig()) {
		names = append(names, b.Name())
	}
	name := func(i int) string {
		if i >= 0 && i < len(names) {
			return names[i]
		}
		return fmt.Sprintf("backend %d", i)
	}
	maxIdx := 0
	for _, d := range decs {
		if int(d.PC) > maxIdx {
			maxIdx = int(d.PC)
		}
	}
	resident := make([]uint64, maxIdx+1)
	probes := make([]uint64, maxIdx+1)
	wins := make([]uint64, maxIdx+1)
	prevLoads, prevBackend := uint64(0), 0 // startup grace runs backend 0
	switches, lastWin := 0, -1
	for _, d := range decs {
		if d.Aux >= prevLoads {
			resident[prevBackend] += d.Aux - prevLoads
		}
		prevLoads, prevBackend = d.Aux, int(d.PC)
		if d.Arg2 == 1 {
			if lastWin >= 0 && int(d.PC) != lastWin {
				switches++
			}
			lastWin = int(d.PC)
			wins[d.PC]++
		} else {
			probes[d.PC]++
		}
	}
	var total uint64
	for _, r := range resident {
		total += r
	}
	widths := []int{-12, 12, 8, 8, 8}
	sb.WriteString("  " + render.Columns(" ", widths,
		"backend", "loads", "", "probes", "wins") + "\n")
	for i := range resident {
		pct := 0.0
		if total > 0 {
			pct = 100 * float64(resident[i]) / float64(total)
		}
		sb.WriteString("  " + render.Columns(" ", widths, name(i),
			fmt.Sprintf("%d", resident[i]), fmt.Sprintf("%.1f%%", pct),
			fmt.Sprintf("%d", probes[i]), fmt.Sprintf("%d", wins[i])) + "\n")
	}
	fmt.Fprintf(&sb, "  decisions: %d  winner changes: %d  (loads counted through the last switch at %d)\n",
		len(decs), switches, prevLoads)
	return sb.String()
}

// summarize renders every section; split from main for tests.
func summarize(w io.Writer, events []telemetry.Event) {
	io.WriteString(w, repairTimelines(events))
	io.WriteString(w, fastPathResidency(events))
	io.WriteString(w, triggerHistogram(events))
	io.WriteString(w, samplingTimeline(events))
	io.WriteString(w, prefetchPolicy(events))
}
