package trident

import "tridentsp/internal/telemetry"

// EventKind distinguishes the hardware optimization events.
type EventKind uint8

// Event kinds.
const (
	// EventHotTrace asks the optimizer to form and link a new hot trace.
	EventHotTrace EventKind = iota
	// EventDelinquentLoad asks the optimizer to insert or repair software
	// prefetching in an existing trace.
	EventDelinquentLoad
	// EventInvariantLoad asks the optimizer to value-specialize a trace
	// around a quasi-invariant load (the prior Trident work's
	// optimization, available as an extension).
	EventInvariantLoad
)

// String names the kind.
func (k EventKind) String() string {
	switch k {
	case EventHotTrace:
		return "hot-trace"
	case EventInvariantLoad:
		return "invariant-load"
	}
	return "delinquent-load"
}

// Event is one hardware-raised optimization request.
type Event struct {
	Kind   EventKind
	Raised int64 // cycle the hardware raised it

	// Hot-trace payload.
	Hot HotTrace

	// Delinquent-load payload.
	LoadPC  uint64
	TraceID int
}

// Queue is the bounded event queue between the monitoring hardware and the
// helper thread. Events raised while the queue is full are dropped (the
// hardware will re-raise them; the DLT and watch-table flags already
// throttle duplicates).
type Queue struct {
	events []Event
	cap    int
	tracer *telemetry.Tracer

	// Stats.
	Raised  uint64
	Dropped uint64
}

// NewQueue builds a queue holding at most capacity events.
func NewQueue(capacity int) *Queue {
	if capacity <= 0 {
		capacity = 1
	}
	return &Queue{cap: capacity}
}

// SetTracer attaches a telemetry tracer; dropped events are recorded
// through it. A nil tracer (the default) is free.
func (q *Queue) SetTracer(tr *telemetry.Tracer) { q.tracer = tr }

// Push enqueues an event, reporting whether it was accepted.
func (q *Queue) Push(e Event) bool {
	q.Raised++
	if len(q.events) >= q.cap {
		q.Dropped++
		pc := e.LoadPC
		if pc == 0 {
			pc = e.Hot.StartPC
		}
		q.tracer.Emit(telemetry.KindEventDropped, e.Raised, pc, 0, int64(e.Kind), 0)
		return false
	}
	q.events = append(q.events, e)
	return true
}

// Pop dequeues the oldest event.
func (q *Queue) Pop() (Event, bool) {
	if len(q.events) == 0 {
		return Event{}, false
	}
	e := q.events[0]
	q.events = q.events[1:]
	return e, true
}

// Len returns the queued event count.
func (q *Queue) Len() int { return len(q.events) }

// CostModel charges helper-thread cycles per optimization action. The
// paper's optimizer is real C code whose execution is simulated in detail;
// here its cost is a calibrated linear model, which is what the §5.1
// overhead accounting needs.
type CostModel struct {
	// StartupLatency is the helper-thread spawn cost (§4.3: 2000 cycles).
	StartupLatency int64
	// FormBase/FormPerInst price hot-trace formation and base
	// optimization.
	FormBase, FormPerInst int64
	// InsertBase/InsertPerLoad price prefetch insertion (a new trace
	// version is generated).
	InsertBase, InsertPerLoad int64
	// RepairCost prices one prefetch-distance repair (in-place patch; the
	// paper stresses this is much cheaper than regeneration).
	RepairCost int64
}

// DefaultCostModel returns the calibrated costs.
func DefaultCostModel() CostModel {
	return CostModel{
		StartupLatency: 2000,
		FormBase:       600,
		FormPerInst:    40,
		InsertBase:     500,
		InsertPerLoad:  80,
		RepairCost:     150,
	}
}

// Helper models the optimization helper thread occupying the spare
// hardware context: busy intervals, startup latency, and the occupancy
// statistics behind Figures 3 and the §5.1 overhead numbers.
type Helper struct {
	cost      CostModel
	busyUntil int64
	tracer    *telemetry.Tracer

	// Stats.
	Invocations  uint64
	ActiveCycles int64
	Preemptions  uint64
}

// NewHelper builds the scheduler.
func NewHelper(cost CostModel) *Helper {
	return &Helper{cost: cost}
}

// SetTracer attaches a telemetry tracer; each invocation is recorded as a
// helper-run span. A nil tracer (the default) is free.
func (h *Helper) SetTracer(tr *telemetry.Tracer) { h.tracer = tr }

// Busy reports whether the helper context is occupied at the given cycle.
func (h *Helper) Busy(now int64) bool { return now < h.busyUntil }

// BusyUntil returns the cycle the current invocation finishes (0 if never
// invoked).
func (h *Helper) BusyUntil() int64 { return h.busyUntil }

// Begin schedules an invocation of workCycles of optimization work starting
// at now, returning the completion cycle at which the optimization's
// effects become visible. The caller must not Begin while Busy.
func (h *Helper) Begin(now, workCycles int64) int64 {
	total := h.cost.StartupLatency + workCycles
	h.busyUntil = now + total
	h.ActiveCycles += total
	h.Invocations++
	h.tracer.Emit(telemetry.KindHelperRun, now, 0, 0, total, 0)
	return h.busyUntil
}

// Preempt makes the helper context unavailable until the given cycle (fault
// injection: the OS steals the spare hardware context). Unlike Begin it
// counts no invocation and no active cycles — the helper does nothing, it
// just cannot run. A preemption that ends before the current invocation
// would finish anyway has no effect.
func (h *Helper) Preempt(until int64) {
	if h.busyUntil >= until {
		return
	}
	h.busyUntil = until
	h.Preemptions++
}
