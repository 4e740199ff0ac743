package exp

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"tridentsp/internal/core"
	"tridentsp/internal/workloads"
)

// The experiment suites are embarrassingly parallel: every (benchmark,
// config) run builds its own program image and core.System and shares no
// mutable state with any other run. The pool fans those runs across a
// bounded number of goroutines while the table is assembled on the calling
// goroutine in submission order, so the rendered output is byte-identical
// to the serial path at any job count.
//
// The pool is also the suite's fault boundary. A run that panics or blows
// its per-attempt deadline does not take the whole table generation down:
// the worker recovers, retries the task a bounded number of times, and if
// every attempt fails the task resolves to a zero value with the error on
// record. Figures render such runs as explicit holes ("—") and attach a
// failure manifest, so a partial table degrades visibly instead of
// crashing or silently lying.
//
// Retries run back to back: the work is deterministic, CPU-bound and
// in-process, so waiting between attempts buys nothing and would only hold
// the pool slot idle. A retry can succeed where its attempt failed only
// through the memo (a sampled run resumes its window schedule) or when the
// failure was a deadline the next attempt happens to meet.
//
// Rule: a task submitted to the pool must never wait on another task's
// future, or a single-job pool deadlocks (the waiter holds the only slot).
// Experiments with cross-run dependencies (Resilience's fault-free bases)
// resolve the dependency in a phase before submitting the dependent tasks.

// pool bounds concurrent simulator runs and records their failures.
type pool struct {
	sem     chan struct{}
	retries int
	timeout time.Duration
	// failures accumulates in wait order on the assembling goroutine —
	// deterministic at any job count, like the rows themselves.
	failures []Failure
}

// Failure is one permanently failed run in a table's manifest.
type Failure struct {
	Label    string
	Attempts int
	Err      string
}

// newPool creates a pool running at most o.Jobs tasks at once (<= 0 selects
// runtime.NumCPU()), giving each task o.Retries extra attempts and bounding
// each attempt to o.TaskTimeout (0 = no deadline).
func newPool(o Options) *pool {
	jobs := o.Jobs
	if jobs <= 0 {
		jobs = runtime.NumCPU()
	}
	return &pool{
		sem:     make(chan struct{}, jobs),
		retries: o.Retries,
		timeout: o.TaskTimeout,
	}
}

// manifest returns the failures recorded so far, in wait order.
func (p *pool) manifest() []Failure { return p.failures }

// outcome is a finished task: its value, the final error (nil on success),
// and how many attempts it took.
type outcome[T any] struct {
	v        T
	err      error
	attempts int
}

// task is a pending result. wait blocks until the task finishes and may be
// called repeatedly, but only from one goroutine (tables are assembled by
// the submitting goroutine).
type task[T any] struct {
	p     *pool
	label string
	ch    chan outcome[T]
	out   outcome[T]
	done  bool
}

// memo carries resumable progress across one task's retry attempts: sampled
// runs store their scheduler snapshot at every commit point, and the next
// attempt resumes the window schedule from it instead of restarting the
// run. The mutex matters because a timed-out attempt is abandoned, not
// killed — it may publish one last commit while the retry is already
// reading; the snapshot it writes is still a valid commit point (resuming
// from an older point only redoes work, never changes the result), so the
// race is benign by construction.
type memo struct {
	mu   sync.Mutex
	snap []byte
}

// store publishes a snapshot (nil-safe).
func (m *memo) store(b []byte) {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.snap = b
	m.mu.Unlock()
}

// load returns the latest snapshot, nil when none was stored (nil-safe).
func (m *memo) load() []byte {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.snap
}

// wait returns the task's value — the zero value when every attempt failed,
// in which case the failure is recorded in the pool's manifest (once, on
// the first wait).
func (t *task[T]) wait() T {
	if !t.done {
		t.out = <-t.ch
		t.done = true
		if t.out.err != nil {
			t.p.failures = append(t.p.failures, Failure{
				Label: t.label, Attempts: t.out.attempts, Err: t.out.err.Error(),
			})
		}
	}
	return t.out.v
}

// ok waits for the task and reports whether it produced a value.
func (t *task[T]) ok() bool {
	t.wait()
	return t.out.err == nil
}

// submit schedules fn and returns its future. Goroutines are spawned
// eagerly and gate on the pool's slots, so submission never blocks. The
// label names the run in the failure manifest.
func submit[T any](p *pool, label string, fn func() T) *task[T] {
	return submitStop(p, label, func(<-chan struct{}, *memo) T { return fn() })
}

// submitStop is submit for tasks that cooperate with the fault boundary:
// fn's stop channel closes when the attempt's deadline expires (nested
// window workers abort at the next safe point instead of burning CPU until
// process exit), and with retries enabled, its memo carries the scheduler
// snapshot across attempts so a retry resumes the window schedule rather
// than the whole run.
func submitStop[T any](p *pool, label string, fn func(stop <-chan struct{}, m *memo) T) *task[T] {
	t := &task[T]{p: p, label: label, ch: make(chan outcome[T], 1)}
	var m *memo
	if p.retries > 0 {
		m = &memo{}
	}
	go func() {
		p.sem <- struct{}{}
		defer func() { <-p.sem }()
		var out outcome[T]
		for n := 0; ; n++ {
			out.attempts = n + 1
			out.v, out.err = attempt(p, fn, m)
			if out.err == nil || n >= p.retries {
				break
			}
		}
		t.ch <- out
	}()
	return t
}

// attempt runs fn once behind the fault boundary: a panic becomes an error,
// and with a deadline set, an overlong run is reported as a timeout and
// abandoned — its stop channel is closed so cooperating tasks (sampled
// runs' window chains) wind down at their next boundary, while pure-compute
// exact runs are simply left to finish and be discarded.
func attempt[T any](p *pool, fn func(stop <-chan struct{}, m *memo) T, m *memo) (T, error) {
	stop := make(chan struct{})
	resc := make(chan outcome[T], 1)
	go func() {
		var o outcome[T]
		defer func() {
			if r := recover(); r != nil {
				o.err = fmt.Errorf("panic: %v", r)
			}
			resc <- o
		}()
		o.v = fn(stop, m)
	}()
	if p.timeout <= 0 {
		o := <-resc
		return o.v, o.err
	}
	timer := time.NewTimer(p.timeout)
	defer timer.Stop()
	select {
	case o := <-resc:
		return o.v, o.err
	case <-timer.C:
		close(stop)
		var zero T
		return zero, fmt.Errorf("timed out after %v", p.timeout)
	}
}

// submitRun schedules one benchmark under one configuration.
func (p *pool) submitRun(bm workloads.Benchmark, cfg core.Config, o Options) *task[core.Results] {
	label := fmt.Sprintf("%s %s/%s", bm.Name, cfg.HW, cfg.SW)
	return submitStop(p, label, func(stop <-chan struct{}, m *memo) core.Results {
		return run(bm, cfg, o, stop, m)
	})
}

// allOK waits for every listed run (recording any failures in wait order)
// and reports whether they all succeeded. Figures call it per row or per
// cell to decide between real values and holes.
func allOK(ts ...*task[core.Results]) bool {
	ok := true
	for _, t := range ts {
		if !t.ok() {
			ok = false
		}
	}
	return ok
}
