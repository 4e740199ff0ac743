package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"time"
)

// fingerprint identifies the host, toolchain and code that produced a
// result, so records from different machines are never silently mixed.
type fingerprint struct {
	CPUModel   string `json:"cpu_model"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GOAMD64    string `json:"goamd64"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Modified   string `json:"vcs_modified"`
	ExeSHA256  string `json:"exe_sha256"`
	Seed       uint64 `json:"seed"`
}

func hostFingerprint(seed uint64, exeHash string) fingerprint {
	fp := fingerprint{
		CPUModel:   cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GOAMD64:    "n/a",
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
		Modified:   "unknown",
		ExeSHA256:  exeHash,
		Seed:       seed,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "GOAMD64":
				fp.GOAMD64 = s.Value
			case "vcs.revision":
				fp.Commit = s.Value
			case "vcs.modified":
				fp.Modified = s.Value
			}
		}
	}
	return fp
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// exeSHA256 hashes the running binary: the identity of the code under test,
// also where the checkout carries no commit.
func exeSHA256() (string, error) {
	path, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// rssBytes reads the resident set size; 0 when /proc is unavailable.
func rssBytes() uint64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0
	}
	pages, err := strconv.ParseUint(f[1], 10, 64)
	if err != nil {
		return 0
	}
	return pages * uint64(os.Getpagesize())
}

// rssSampler polls the resident set on its own goroutine until stop returns.
type rssSampler struct {
	mu   sync.Mutex
	peak uint64
	done chan struct{}
	wg   sync.WaitGroup
}

func startRSS(every time.Duration) *rssSampler {
	r := &rssSampler{done: make(chan struct{})}
	r.note()
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-r.done:
				return
			case <-t.C:
				r.note()
			}
		}
	}()
	return r
}

func (r *rssSampler) note() {
	v := rssBytes()
	r.mu.Lock()
	r.peak = max(r.peak, v)
	r.mu.Unlock()
}

// take returns the peak in bytes since the previous take and starts a new
// interval.
func (r *rssSampler) take() uint64 {
	r.note()
	r.mu.Lock()
	defer r.mu.Unlock()
	p := r.peak
	r.peak = 0
	return p
}

// stop ends sampling and waits for the sampling goroutine to exit.
func (r *rssSampler) stop() {
	close(r.done)
	r.wg.Wait()
}

// rtSnap is a runtime/metrics reading.
type rtSnap struct {
	allocObjs, allocBytes uint64
	gcCPU, totalCPU       float64
	pauseNs               uint64
}

var rtNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() rtSnap {
	samples := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		samples[i].Name = n
	}
	metrics.Read(samples)
	var s rtSnap
	if samples[0].Value.Kind() == metrics.KindUint64 {
		s.allocObjs = samples[0].Value.Uint64()
	}
	if samples[1].Value.Kind() == metrics.KindUint64 {
		s.allocBytes = samples[1].Value.Uint64()
	}
	if samples[2].Value.Kind() == metrics.KindFloat64 {
		s.gcCPU = samples[2].Value.Float64()
	}
	if samples[3].Value.Kind() == metrics.KindFloat64 {
		s.totalCPU = samples[3].Value.Float64()
	}
	// Stop-the-world pause totals are exact in MemStats; runtime/metrics
	// only offers a bucketed histogram of them.
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.pauseNs = ms.PauseTotalNs
	return s
}

// runtimeMetrics turns two readings around a timed region that simulated
// instrs original instructions into the runtime.* per-layer metrics.
func runtimeMetrics(a, b rtSnap, instrs uint64) map[string]float64 {
	mi := float64(instrs) / 1e6
	out := map[string]float64{
		"runtime.allocs_per_minstr":      float64(b.allocObjs-a.allocObjs) / mi,
		"runtime.alloc_bytes_per_minstr": float64(b.allocBytes-a.allocBytes) / mi,
		"runtime.gc_pause_ms":            float64(b.pauseNs-a.pauseNs) / 1e6,
	}
	if cpu := b.totalCPU - a.totalCPU; cpu > 0 {
		out["runtime.gc_cpu_frac"] = (b.gcCPU - a.gcCPU) / cpu
	} else {
		out["runtime.gc_cpu_frac"] = 0
	}
	return out
}
