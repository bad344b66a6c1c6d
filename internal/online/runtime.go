package online

import (
	"fmt"
	"math"
	"sort"

	"sdem/internal/commonrelease"
	"sdem/internal/power"
	"sdem/internal/schedule"
	"sdem/internal/sim"
	"sdem/internal/task"
	"sdem/internal/telemetry"
)

// Runtime is the SDEM-ON engine: one arrival loop (drive) and one
// planner (plan) shared by batch, streaming and resilient runs. Instead
// of rescanning every job and re-solving from scratch on every arrival,
// it maintains:
//
//   - an EDF-ordered active set updated as arrivals are admitted
//     (O(log active) insert, O(active) sweep) instead of an O(jobs)
//     rescan + sort per arrival;
//   - a retained commonrelease.Solver whose normalization/scan/audit
//     scratch persists across re-plans, with an ends-only solve that
//     skips building and auditing the per-plan solution schedule;
//   - a plan-delta memo: normalization subtracts the release before any
//     arithmetic, so a re-plan whose (deadline − now, remaining) bit
//     pattern exactly matches the previous solve reuses its relative
//     ends verbatim (periodic workloads hit this every hyperperiod);
//   - a sleep certificate: when a cheap per-job bound already proves
//     every planned start lands at or past the next arrival, the solve
//     is skipped entirely — procrastination would sleep through it.
//
// Every path is bit-compatible with the full-rescan reference kept as
// the test oracle: the equivalence property tests assert byte-identical
// sim.Result on fault-free and fault-injected deterministic workloads.
//
// A Runtime is not safe for concurrent use, but is reusable: retaining
// one across Schedule calls (as sdemd does via a sync.Pool) re-plans
// allocation-free once its buffers reach the high-water instance size.
type Runtime struct {
	solver commonrelease.Solver

	active    []*sim.Job // EDF order: (deadline, ID)
	virtual   task.Set   // common-release instance of the current re-plan
	vjobs     []*sim.Job // vjobs[i] is the job behind virtual[i]
	urgent    []*sim.Job
	plans     []Plan
	busyUntil []float64

	// Plan-delta memo: the (window, workload) bit pattern of the last
	// solved instance and its relative ends.
	memoKey  []uint64
	memoEnds []float64
	keyBuf   []uint64
	memoOK   bool
}

// Schedule runs SDEM-ON over the task set and returns the audited
// result: the arrival loop of RunStream over the set in release order,
// into a recording sim.Executor whose schedule spans the set.
func (rt *Runtime) Schedule(tasks task.Set, sys power.System, opts Options) (*sim.Result, error) {
	ex, sorted, err := sim.NewBatch(tasks, sys, opts.Cores)
	if err != nil {
		return nil, err
	}
	ex.SetTelemetry(opts.Telemetry, scheduler(opts.PlanAlphaZero))
	err = rt.drive(ex, &setSource{tasks: sorted}, StreamOptions{
		NoProcrastinate: opts.NoProcrastinate,
		PlanAlphaZero:   opts.PlanAlphaZero,
		Telemetry:       opts.Telemetry,
		Ctx:             opts.Ctx,
	})
	if err != nil {
		return nil, err
	}
	return ex.Result(), nil
}

// Replan solves the common-release instance formed by the unfinished
// jobs among jobs released by now (up to Tol) — remaining workloads,
// original deadlines — and returns their plans in EDF order. It is the
// arrival loop's planner, exported so the resilient runtime's recovery
// chain can re-plan mid-execution after a fault. Infeasibility surfaces
// as an error wrapping schedule.ErrInfeasible. Every call solves afresh:
// the plan-delta memo serves consecutive arrivals of one loop, and a
// recovery's telemetry counts one full solve per re-plan.
func (rt *Runtime) Replan(jobs []*sim.Job, now float64, sys power.System, opts Options) ([]Plan, error) {
	rt.memoOK = false
	rt.active = rt.active[:0]
	for _, j := range jobs {
		if !j.Done && j.Task.Release <= now+schedule.Tol {
			rt.insertActive(j)
		}
	}
	if len(rt.active) == 0 {
		return nil, nil
	}
	plans, _, err := rt.plan(now, math.Inf(1), sys, opts)
	return plans, err
}

// reset clears all per-run state while keeping the backing buffers.
func (rt *Runtime) reset() {
	rt.active = rt.active[:0]
	rt.virtual = rt.virtual[:0]
	rt.vjobs = rt.vjobs[:0]
	rt.urgent = rt.urgent[:0]
	rt.plans = rt.plans[:0]
	rt.memoOK = false
}

// insertActive inserts j into the (deadline, ID)-ordered active set.
// The key is a total order (IDs are unique), so the resulting sequence
// is exactly what a stable EDF sort of the released jobs produces.
func (rt *Runtime) insertActive(j *sim.Job) {
	lo, hi := 0, len(rt.active)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		a := rt.active[mid]
		//lint:allow floatcmp: order tie-breaking must be exact to keep the comparator transitive
		if a.Task.Deadline < j.Task.Deadline ||
			//lint:allow floatcmp: see above
			(a.Task.Deadline == j.Task.Deadline && a.Task.ID < j.Task.ID) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	//lint:allow hotalloc: appends into the reused active backing; it grows only to the run's high-water active count
	rt.active = append(rt.active, nil)
	copy(rt.active[lo+1:], rt.active[lo:])
	rt.active[lo] = j
}

// sweepDone drops completed jobs from the active set in place.
func (rt *Runtime) sweepDone() {
	w := 0
	for _, j := range rt.active {
		if !j.Done {
			rt.active[w] = j
			w++
		}
	}
	for i := w; i < len(rt.active); i++ {
		rt.active[i] = nil
	}
	rt.active = rt.active[:w]
}

// plan re-plans the active set at now — all unfinished work as one
// common-release instance, solved with the §4 schemes — and returns the
// per-job plans in EDF order plus the wake time: the earliest latest
// execution point d_j − p_j over the planned jobs (now itself when any job
// is urgent or procrastination is disabled). When the sleep certificate
// proves every start lands at or past next it skips the solve and returns
// no plans with wake = next. It mirrors the float evaluation order of the
// full-rescan reference exactly.
//
//sdem:hotpath
func (rt *Runtime) plan(now, next float64, sys power.System, opts Options) ([]Plan, float64, error) {
	tel := opts.Telemetry
	tel.Count("sdem.solver.online.plans", 1)
	tel.Observe("sdem.solver.online.active_jobs", float64(len(rt.active)))
	planSys := sys
	if opts.PlanAlphaZero {
		planSys.Core.Static = 0
		planSys.Core.BreakEven = 0
	}
	rt.virtual = rt.virtual[:0]
	rt.vjobs = rt.vjobs[:0]
	rt.urgent = rt.urgent[:0]
	for _, j := range rt.active {
		window := j.Task.Deadline - now
		if window <= 0 || (sys.Core.SpeedMax > 0 && j.Remaining/window > sys.Core.SpeedMax) {
			// Already beyond salvation at a stretched speed: race
			// immediately; the executor records the miss if it is one.
			//lint:allow hotalloc: appends into the reused urgent backing; it grows only to the run's high-water urgent count
			rt.urgent = append(rt.urgent, j)
			continue
		}
		//lint:allow hotalloc: appends into the reused virtual/vjobs backings
		rt.virtual = append(rt.virtual, task.Task{
			ID:       j.Task.ID,
			Release:  now,
			Deadline: j.Task.Deadline,
			Workload: j.Remaining,
		})
		rt.vjobs = append(rt.vjobs, j)
	}

	if len(rt.urgent) == 0 && !opts.NoProcrastinate && rt.certifySleep(now, next, sys, planSys) {
		// The certificate proves a full solve would compute wake ≥ next
		// and execute nothing: sleep through to the next arrival without
		// solving.
		tel.Count("sdem.solver.online.skipped_solves", 1)
		if tel != nil {
			tel.Instant("sleep-certificate", "online", now, 0,
				telemetry.Int("active", int64(len(rt.active))),
				telemetry.Num("until", next))
		}
		return nil, next, nil
	}

	plans := rt.plans[:0]
	wake := math.Inf(1)
	if len(rt.virtual) > 0 {
		ends, err := rt.planEnds(now, planSys, tel)
		if err != nil {
			return nil, 0, err
		}
		for i, vt := range rt.virtual {
			// Replay the reference build + Normalize + ends-map
			// extraction bit-for-bit: the task's segment is [now, now+endRel], kept
			// only when its float duration exceeds Tol/10, and a task
			// with no kept segment reads 0 from the ends map.
			var endAbs float64
			if endRel := ends[i]; endRel > 0 {
				if abs := now + endRel; abs-now > schedule.Tol/10 {
					endAbs = abs
				}
			}
			p := endAbs - now
			if p <= 0 { // defensive: plan must give every task time
				p = vt.Workload / raceSpeed(vt.Workload, vt.Release, vt.Deadline, now, sys)
			}
			//lint:allow hotalloc: appends into the reused plans backing
			plans = append(plans, Plan{Job: rt.vjobs[i], P: p, Speed: vt.Workload / p})
			wake = math.Min(wake, vt.Deadline-p)
		}
	}
	for _, j := range rt.urgent {
		s := raceSpeed(j.Remaining, j.Task.Release, j.Task.Deadline, now, sys)
		//lint:allow hotalloc: appends into the reused plans backing
		plans = append(plans, Plan{Job: j, P: j.Remaining / s, Speed: s, Urgent: true})
		wake = now
	}
	rt.plans = plans
	if len(rt.virtual) > 0 && len(rt.urgent) > 0 {
		// Each run is already EDF (both come from the active set); only
		// their concatenation needs sorting. Sorting the retained field
		// keeps the sort.Interface conversion off the heap.
		sort.Stable((*plansEDF)(&rt.plans))
	}
	tel.Count("sdem.solver.online.urgent_jobs", int64(len(rt.urgent)))
	if wake < now {
		wake = now
	}
	if tel != nil && !math.IsInf(wake, 1) {
		tel.Observe("sdem.solver.online.procrastination_s", wake-now)
		tel.Instant("plan", "online", now, 0,
			telemetry.Int("active", int64(len(rt.active))),
			telemetry.Int("urgent", int64(len(rt.urgent))),
			telemetry.Num("wake", wake))
	}
	if opts.NoProcrastinate {
		wake = now
	}
	return rt.plans, wake, nil
}

// certifySleep reports whether, without solving, every planned start is
// provably at or past next, so a full solve would execute nothing
// before the next arrival. Soundness: any plan's execution time p is
// either (now + endRel) − now for some endRel ≤ max natural completion
// (the busy length never exceeds it, and float addition/subtraction of a
// constant is monotone), or — when the segment rounds away — exactly the
// defensive race value, which is recomputed here per job. Both wake
// bounds must clear next. The caller has already excluded urgent jobs
// and NoProcrastinate.
func (rt *Runtime) certifySleep(now, next float64, sys, planSys power.System) bool {
	if math.IsInf(next, 1) || len(rt.virtual) == 0 {
		return false
	}
	var horizon float64
	for _, vt := range rt.virtual {
		horizon = math.Max(horizon, vt.Deadline-vt.Release)
	}
	sm := planSys.Core.CriticalSpeedRaw()
	var cmax float64
	for _, vt := range rt.virtual {
		cmax = math.Max(cmax, commonrelease.NaturalCompletionAt(sm, vt, planSys, horizon))
	}
	bound := (now + cmax) - now // ≥ any solved plan's p
	for _, vt := range rt.virtual {
		if vt.Deadline-bound < next {
			return false
		}
		pDef := vt.Workload / raceSpeed(vt.Workload, vt.Release, vt.Deadline, now, sys)
		if vt.Deadline-pDef < next {
			return false
		}
	}
	return true
}

// planEnds returns the relative completion ends of the current virtual
// instance, reusing the previous solve when the instance's (window,
// workload) bit pattern is unchanged. Normalization subtracts the
// release before any arithmetic, so an exact key match guarantees
// bit-identical ends at any absolute time — the memo compares the full
// key, never a hash, to rule out collisions.
func (rt *Runtime) planEnds(now float64, planSys power.System, tel *telemetry.Recorder) ([]float64, error) {
	key := rt.keyBuf[:0]
	for _, vt := range rt.virtual {
		//lint:allow hotalloc: appends into the reused key backing
		key = append(key, math.Float64bits(vt.Deadline-vt.Release), math.Float64bits(vt.Workload))
	}
	rt.keyBuf = key
	if rt.memoOK && len(key) == len(rt.memoKey) {
		same := true
		for i := range key {
			if key[i] != rt.memoKey[i] {
				same = false
				break
			}
		}
		if same {
			tel.Count("sdem.solver.online.plan_reuse", 1)
			return rt.memoEnds, nil
		}
	}
	ends, err := rt.solver.PlanEndsRel(rt.virtual, planSys, tel)
	if err != nil {
		rt.memoOK = false
		return nil, fmt.Errorf("online: planning at t=%g: %w", now, err)
	}
	//lint:allow hotalloc: appends into the reused memo backings
	rt.memoKey = append(rt.memoKey[:0], key...)
	//lint:allow hotalloc: appends into the reused memo backings
	rt.memoEnds = append(rt.memoEnds[:0], ends...)
	rt.memoOK = true
	return rt.memoEnds, nil
}
