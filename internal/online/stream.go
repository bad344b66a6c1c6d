package online

import (
	"context"
	"fmt"
	"math"

	"sdem/internal/faults"
	"sdem/internal/power"
	"sdem/internal/schedule"
	"sdem/internal/sim"
	"sdem/internal/task"
	"sdem/internal/telemetry"
	"sdem/internal/telemetry/series"
	"sdem/internal/workload"
)

// StreamOptions tunes a streaming SDEM-ON run.
type StreamOptions struct {
	// Cores is the physical core count (required, > 0).
	Cores int
	// MaxVirtual stops admitting new arrivals once the stream has
	// advanced that many seconds of virtual time past the first release
	// (0 = no bound; the source must then be finite).
	MaxVirtual float64
	// MaxJobs stops admitting after that many arrivals (0 = no bound).
	MaxJobs int64
	// Faults, when non-nil, perturbs each arriving job (workload
	// overruns, late releases) and classifies the resulting misses.
	Faults *faults.Streamer
	// NoProcrastinate and PlanAlphaZero select the engine variants of
	// Options.
	NoProcrastinate bool
	PlanAlphaZero   bool
	// Telemetry, when non-nil, records the same sdem.solver.online.* and
	// sdem.sim.* series as the batch engine, plus
	// sdem.solver.online.stream_virtual_s (a gauge of progress a live
	// scrape can watch).
	Telemetry *telemetry.Recorder
	// Series, when non-nil, is advanced on virtual time at every
	// planning-batch boundary and fed the per-retirement response sketch
	// (sdem.stream.response_s) plus the per-batch mean energy per
	// completed job (sdem.stream.energy_per_job_j). The caller owns the
	// collector and calls Finish on it after the run.
	Series *series.Collector
	// Ctx, when non-nil, is polled at every arrival boundary.
	Ctx context.Context
}

// arrivalHeap reorders perturbed arrivals by (release, deadline, ID): a
// late-release fault can push a job past later upstream arrivals, and the
// engine must still admit in time order. Ties break like
// task.Set.SortByRelease, so a recording run keeps its jobs — and reports
// its misses — in release order. Delays are bounded by each job's window, so
// the heap stays as small as the overlap — O(active), never O(stream).
//
// It is a hand-rolled typed binary heap rather than a container/heap
// implementation: heap.Push and heap.Pop traffic in `any`, which boxes
// every task on push AND on pop — two heap allocations per
// arrival on the engine's hottest path. The typed min-heap keeps the
// identical order with zero allocations past the backing
// array's high-water growth.
type arrivalHeap []task.Task

func (h arrivalHeap) less(i, j int) bool {
	a, b := &h[i], &h[j]
	//lint:allow floatcmp: heap ordering must be exact to stay deterministic
	if a.Release != b.Release {
		return a.Release < b.Release
	}
	if a.Deadline < b.Deadline || b.Deadline < a.Deadline {
		return a.Deadline < b.Deadline
	}
	return a.ID < b.ID
}

// push inserts a and restores the heap invariant (sift-up).
func (h *arrivalHeap) push(a task.Task) {
	//lint:allow hotalloc: appends into the reused heap backing; it grows to the high-water overlap size once
	*h = append(*h, a)
	s := *h
	for i := len(s) - 1; i > 0; {
		p := (i - 1) / 2
		if !s.less(i, p) {
			break
		}
		s[i], s[p] = s[p], s[i]
		i = p
	}
}

// pop removes and returns the minimum element (sift-down).
func (h *arrivalHeap) pop() task.Task {
	s := *h
	n := len(s) - 1
	top := s[0]
	s[0] = s[n]
	s[n] = task.Task{}
	*h = s[:n]
	s = s[:n]
	for i := 0; ; {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && s.less(r, l) {
			m = r
		}
		if !s.less(m, i) {
			break
		}
		s[i], s[m] = s[m], s[i]
		i = m
	}
	return top
}

// setSource is the in-memory workload.Source of a batch run: the task
// set in release order.
type setSource struct {
	tasks task.Set
	next  int
}

func (s *setSource) Next() (task.Task, bool) {
	if s.next == len(s.tasks) {
		return task.Task{}, false
	}
	s.next++
	return s.tasks[s.next-1], true
}

// ScheduleStream runs the incremental SDEM-ON engine over an unbounded
// arrival source in O(active-set) memory: jobs are admitted from the
// source one arrival at a time, planned and executed by the same arrival
// loop as Schedule into a metering sim.Executor that accounts energy
// incrementally, and retired on completion. This is the soak engine —
// days of virtual time under fault injection with live telemetry, no
// materialized task set or schedule.
func ScheduleStream(src workload.Source, sys power.System, opts StreamOptions) (*sim.StreamSummary, error) {
	var rt Runtime
	return rt.RunStream(src, sys, opts)
}

// RunStream is ScheduleStream on a retained Runtime (see Schedule vs
// Runtime.Schedule).
func (rt *Runtime) RunStream(src workload.Source, sys power.System, opts StreamOptions) (*sim.StreamSummary, error) {
	ex, err := sim.NewStream(sys, opts.Cores)
	if err != nil {
		return nil, err
	}
	ex.SetTelemetry(opts.Telemetry, scheduler(opts.PlanAlphaZero))
	// A miss is explained when the job itself was perturbed (replayed
	// from its deterministic fault draw) or when the executor squeezed it
	// behind a full machine — a queueing consequence of overload bursts
	// or of perturbed jobs hogging cores, possibly chained through clean
	// jobs that absorbed the delay. A sporadic source over enough virtual
	// time will overload any finite machine occasionally, so squeezed
	// misses are expected physics, not bugs. A miss on an undisturbed,
	// never-squeezed job means the planner itself scheduled it wrong: an
	// engine bug, and the soak gate fails on it.
	fs := opts.Faults
	ex.SetMissClassifier(func(j *sim.Job) bool {
		if j.Squeezed {
			return true
		}
		return fs != nil && !fs.Sample(j.Task).None()
	})
	if opts.Series != nil {
		ex.SetRetireHook(func(_ *sim.Job, resp float64) {
			opts.Series.Observe("sdem.stream.response_s", resp)
		})
	}
	if err := rt.drive(ex, src, opts); err != nil {
		return nil, err
	}
	return ex.Finish(), nil
}

// scheduler names the engine variant in the executor's "sched" label.
func scheduler(planAlphaZero bool) string {
	if planAlphaZero {
		return "sdem-on-z"
	}
	return "sdem-on"
}

// drive is SDEM-ON's arrival loop, shared by batch and streaming runs:
// pull arrivals from src (perturbed by opts.Faults and reordered by
// release), admit each planning instant's arrivals into ex, re-plan the
// active set and execute until the next arrival. A recording executor
// keeps the whole run for an audit; a metering one retires jobs as they
// complete and is sealed at every batch boundary.
func (rt *Runtime) drive(ex *sim.Executor, src workload.Source, opts StreamOptions) error {
	tel := opts.Telemetry
	sys := ex.System()
	// Windowed energy-per-job observations accumulate between batch
	// seals: the sketch sees the mean energy of each batch's newly
	// completed jobs.
	var meteredE float64
	var meteredN int64

	rt.reset()
	cores := ex.Cores()
	if cap(rt.busyUntil) < cores {
		rt.busyUntil = make([]float64, cores)
	}
	busy := rt.busyUntil[:cores]
	clear(busy)

	planOpts := Options{
		NoProcrastinate: opts.NoProcrastinate,
		PlanAlphaZero:   opts.PlanAlphaZero,
		Telemetry:       tel,
	}

	var (
		pending arrivalHeap
		drawn   int64
		started bool
		first   float64
		arrival int64
	)
	perturb := func(t task.Task) task.Task {
		if opts.Faults == nil {
			return t
		}
		f := opts.Faults.Sample(t)
		if f.None() {
			return t
		}
		t.Workload *= f.WorkFactor
		t.Release += f.ReleaseDelay
		if t.Release >= t.Deadline {
			// Keep the job admissible (Validate rejects an empty window
			// with work): a sliver-window arrival still exercises the
			// urgent path and counts as an explained miss.
			t.Release = t.Deadline - schedule.Tol
		}
		return t
	}

	upstream, hasUp := src.Next()
	for {
		// Cooperative cancellation checkpoint, once per arrival: the
		// per-arrival re-plan below is the expensive unit of work.
		if opts.Ctx != nil {
			if err := opts.Ctx.Err(); err != nil {
				return fmt.Errorf("online: cancelled at arrival %d: %w", arrival, err)
			}
		}
		// Feed the reorder heap until its minimum is safe to emit: once
		// the upstream release passes the heap minimum, no future task —
		// delays are non-negative — can arrive earlier. Admission ends for
		// good at the job or virtual-time bound.
		for hasUp && (len(pending) == 0 || upstream.Release <= pending[0].Release) {
			if opts.MaxJobs > 0 && drawn >= opts.MaxJobs ||
				started && opts.MaxVirtual > 0 && upstream.Release-first > opts.MaxVirtual {
				hasUp = false
				break
			}
			pending.push(perturb(upstream))
			drawn++
			upstream, hasUp = src.Next()
		}
		if len(pending) == 0 && ex.Active() == 0 {
			break // drained: no arrivals left and nothing running
		}

		// The next planning instant: the earliest pending arrival, or a
		// final drain pass over whatever is still active.
		now := ex.Now()
		if len(pending) > 0 {
			now = pending[0].Release
		}
		opts.Series.Advance(now)
		for len(pending) > 0 && pending[0].Release <= now+schedule.Tol {
			t := pending.pop()
			if err := t.Validate(); err != nil {
				return fmt.Errorf("online: admitting task %d: %w", t.ID, err)
			}
			j, err := ex.Admit(t)
			if err != nil {
				return fmt.Errorf("online: admitting task %d: %w", t.ID, err)
			}
			arrival++
			if !started {
				started = true
				first = t.Release
			}
			if !j.Done {
				rt.insertActive(j)
			}
		}
		next := math.Inf(1)
		if len(pending) > 0 {
			next = pending[0].Release
		} else if hasUp {
			next = upstream.Release
		}
		if len(rt.active) > 0 {
			plans, wake, err := rt.plan(now, next, sys, planOpts)
			if err != nil {
				return err
			}
			if wake < next {
				if err := execute(ex, busy, plans, wake, next); err != nil {
					return err
				}
			}
			// A metering executor recycles completed jobs at admission:
			// none may stay behind in the active set.
			rt.sweepDone()
		}
		ex.Seal(next)
		if tel != nil && !ex.Recording() {
			tel.Gauge("sdem.solver.online.stream_virtual_s", ex.Now()-first)
		}
		if opts.Series != nil {
			if e, n := ex.EnergySoFar(), ex.Completed(); n > meteredN {
				opts.Series.Observe("sdem.stream.energy_per_job_j", (e-meteredE)/float64(n-meteredN))
				meteredE, meteredN = e, n
			}
		}
		if math.IsInf(next, 1) {
			// No arrival left: the pass executed everything plannable;
			// anything still active is unschedulable (zero window at +Inf
			// horizon) and retires as a miss at the end of the run.
			break
		}
	}
	return nil
}
