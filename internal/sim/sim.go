// Package sim provides the online-scheduling substrate shared by the
// SDEM-ON heuristic, the baseline policies and the resilient runtime:
// one executor that admits jobs, executes the segments a policy emits
// (tracking remaining workloads, completions and deadline misses), and
// retires finished jobs.
//
// An executor runs in one of two modes, fixed at construction. A
// recording run (NewRecording) keeps every job and appends every segment
// to a caller-given schedule, which Result audits — the bounded batch
// runs. A metering run (NewStream) retires jobs as soon as they complete
// and accounts energy incrementally with a schedule.Meter, so days of
// virtual time run in memory proportional to the peak active set.
// Either way every policy's output is validated by the same machinery.
package sim

import (
	"fmt"
	"math"

	"sdem/internal/numeric"
	"sdem/internal/power"
	"sdem/internal/schedule"
	"sdem/internal/task"
	"sdem/internal/telemetry"
)

// workTol is the relative remaining-workload tolerance below which a job
// counts as complete.
const workTol = 1e-9

// gridTol, scaled by speed·|t|, is the work the float time lattice cannot
// resolve at coordinate t (a few ULPs, ≈ 4.5 × 2.2e-16): runSegment folds
// it into the completion tolerance so rounded segment arithmetic at large
// virtual times cannot strand a job with an unschedulable leftover.
const gridTol = 1e-15

// Job is a task instance being executed online.
type Job struct {
	Task task.Task
	// Remaining is the workload (cycles) not yet executed.
	Remaining float64
	// Core is the core the job is pinned to, or -1 before first
	// execution (§3 forbids migration, so the first Run fixes it).
	Core int
	// Done marks completion.
	Done bool
	// Completed is the completion time (meaningful once Done).
	Completed float64
	// Squeezed records that queueing delay forced the executor to defer
	// this job past a re-plan or compress/race it after a late start: a
	// subsequent miss is queueing-induced (cores full), not a planning
	// error. The soak harness uses it to classify misses.
	Squeezed bool
	// missed marks that some segment finished past the deadline or the
	// job could not complete at all.
	missed bool
}

// SpeedLimiter models an execution-time speed perturbation (e.g. thermal
// throttling): given the commanded segment it returns the speed the core
// actually achieves. The limiter may assume the commanded speed is
// constant over [t0, t1]; callers that need sub-segment resolution split
// segments at perturbation boundaries before calling Run.
type SpeedLimiter func(core int, t0, t1, speed float64) float64

// Executor runs the jobs of one online run. The zero value is not
// usable; call NewRecording or NewStream. An Executor is not safe for
// concurrent use.
type Executor struct {
	sys     power.System
	cores   int
	jobs    map[int]*Job // recording: every admitted job; metering: active jobs only
	limiter SpeedLimiter
	now     float64
	started bool
	start   float64
	// maxDeadline is the latest admitted deadline: a metering run's
	// horizon closes at max(maxDeadline, now).
	maxDeadline float64
	active      int // admitted, unfinished jobs

	tel      *telemetry.Recorder
	telLabel string

	// Recording mode (sched != nil): every job is kept, in admission
	// order, and every segment lands in sched.
	sched *schedule.Schedule
	kept  []*Job
	slab  []Job // unused job storage: one allocation serves many jobs

	// Metering mode (sched == nil): energy is accounted by meter, which
	// opens at the first admitted release; completed jobs are recycled.
	meter *schedule.Meter
	free  []*Job

	// classify, when non-nil, reports whether a missed job's miss is
	// explained by an injected perturbation (the soak harness installs a
	// fault-sampler closure); unexplained misses indicate engine bugs.
	classify func(*Job) bool

	// onRetire, when non-nil, observes every completed job as it retires
	// (the windowed-series wiring feeds response-time sketches through
	// it). The *Job is recycled immediately after the call returns and
	// must not be retained.
	onRetire func(j *Job, response float64)

	// lastMetered tracks the high-water Running() energy already flushed
	// to the sdem.sim.metered_j series at Seal boundaries.
	lastMetered float64

	admitted, completed     int64
	missed, explainedMisses int64
	maxActive               int
	sumResp, maxResp        float64
	sumLax                  float64
}

// NewRecording prepares a recording run. Every admitted job is kept and
// every executed segment is appended to sched, whose core count, horizon
// and sleep policies the caller chooses; the horizon end still grows if
// execution runs past it. jobs is a capacity hint for the number of
// admissions.
func NewRecording(sys power.System, sched *schedule.Schedule, jobs int) (*Executor, error) {
	if err := sys.Validate(); err != nil {
		return nil, err
	}
	return &Executor{
		sys:   sys,
		cores: sched.NumCores,
		jobs:  make(map[int]*Job, jobs),
		now:   sched.Start,
		sched: sched,
		kept:  make([]*Job, 0, jobs),
		slab:  make([]Job, jobs),
	}, nil
}

// NewBatch prepares the recording run of a bounded task set: it validates
// the set and spans the schedule over it on cores cores (0 = one per
// task) under the default SleepBreakEven policies. It returns the set in
// release order, the order to admit it in.
func NewBatch(tasks task.Set, sys power.System, cores int) (*Executor, task.Set, error) {
	if err := tasks.Validate(); err != nil {
		return nil, nil, err
	}
	if cores <= 0 {
		cores = len(tasks)
	}
	start, end := tasks.Span()
	ex, err := NewRecording(sys, schedule.New(cores, start, end), len(tasks))
	if err != nil {
		return nil, nil, err
	}
	sorted := tasks.Clone()
	sorted.SortByRelease()
	return ex, sorted, nil
}

// NewStream prepares a metering run on cores physical cores. Energy is
// metered under the SleepBreakEven policies (the SDEM convention).
func NewStream(sys power.System, cores int) (*Executor, error) {
	if err := sys.Validate(); err != nil {
		return nil, err
	}
	if cores <= 0 {
		return nil, fmt.Errorf("sim: streaming run needs an explicit core count, got %d", cores)
	}
	return &Executor{
		sys:   sys,
		cores: cores,
		jobs:  make(map[int]*Job, 64),
	}, nil
}

// Recording reports whether the executor keeps a schedule (NewRecording)
// rather than a meter (NewStream).
func (e *Executor) Recording() bool { return e.sched != nil }

// System returns the platform model.
func (e *Executor) System() power.System { return e.sys }

// Cores returns the physical core count of the run.
func (e *Executor) Cores() int { return e.cores }

// Now returns the latest time any segment has been emitted up to.
func (e *Executor) Now() float64 { return e.now }

// Active returns the number of admitted, unfinished jobs.
func (e *Executor) Active() int { return e.active }

// Job returns the job of the given task ID, or nil. A metering run
// retires completed jobs, so only active ones are found there.
func (e *Executor) Job(id int) *Job { return e.jobs[id] }

// SetTelemetry attaches a telemetry recorder; who names the policy
// driving the executor and becomes the "sched" label on every
// sdem.sim.* metric (empty for unlabeled). A nil recorder disables
// instrumentation.
func (e *Executor) SetTelemetry(tel *telemetry.Recorder, who string) {
	e.tel = tel
	e.telLabel = ""
	if who != "" {
		e.telLabel = "sched=" + who
	}
}

// SetSpeedLimiter installs an execution-time speed perturbation applied
// to every subsequent Run. A nil limiter removes it.
func (e *Executor) SetSpeedLimiter(f SpeedLimiter) { e.limiter = f }

// SetMissClassifier installs the explained-miss predicate of a metering
// run (see the classify field). It must be set before the first miss
// retires.
func (e *Executor) SetMissClassifier(f func(*Job) bool) { e.classify = f }

// SetRetireHook installs the per-completion observer of a metering run
// (see the onRetire field). A nil hook removes it.
func (e *Executor) SetRetireHook(f func(j *Job, response float64)) { e.onRetire = f }

// Completed returns the number of jobs a metering run retired so far.
func (e *Executor) Completed() int64 { return e.completed }

// EnergySoFar returns a metering run's running energy total — monotone
// non-decreasing across Seal boundaries, 0 before the first admission.
func (e *Executor) EnergySoFar() float64 {
	if e.meter == nil {
		return 0
	}
	return e.meter.Running()
}

// Admit registers a newly arrived task instance and returns its job. A
// zero-workload task is born complete. Admit does not validate the task:
// callers validate their inputs, and a fault-perturbed task whose
// release was pushed past its deadline is still executable (it can only
// miss).
func (e *Executor) Admit(t task.Task) (*Job, error) {
	if _, dup := e.jobs[t.ID]; dup {
		return nil, fmt.Errorf("sim: duplicate active task ID %d", t.ID)
	}
	if !e.started {
		e.started = true
		e.start = t.Release
		if e.sched == nil {
			e.now = t.Release
			e.meter = schedule.NewMeter(e.cores, t.Release, e.sys, schedule.SleepBreakEven, schedule.SleepBreakEven)
		}
	}
	if t.Deadline > e.maxDeadline {
		e.maxDeadline = t.Deadline
	}
	j := e.newJob()
	*j = Job{Task: t, Remaining: t.Workload, Core: -1, Done: numeric.IsZero(t.Workload, 0)}
	if e.sched != nil {
		e.jobs[t.ID] = j
		e.kept = append(e.kept, j)
		if !j.Done {
			e.active++
		}
		return j, nil
	}
	if j.Done {
		e.free = append(e.free, j)
		return j, nil
	}
	e.jobs[t.ID] = j
	e.active++
	e.admitted++
	e.tel.CountL("sdem.sim.admitted", e.telLabel, 1)
	if e.active > e.maxActive {
		e.maxActive = e.active
	}
	return j, nil
}

// newJob hands out job storage: a recycled job in a metering run, the
// next slab slot in a recording run.
func (e *Executor) newJob() *Job {
	if e.sched != nil {
		if len(e.slab) == 0 {
			e.slab = make([]Job, len(e.kept)+1)
		}
		j := &e.slab[0]
		e.slab = e.slab[1:]
		return j
	}
	if n := len(e.free); n > 0 {
		j := e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		return j
	}
	return &Job{} // recycled: allocation stops once the active set reaches its high-water size
}

// Run executes the job on the given core from t0 to t1 at the given
// speed, emitting a segment and decrementing the remaining workload. The
// executed work is capped at the job's remaining amount (the segment is
// shortened accordingly). It returns the actual segment end time. Every
// planned segment of every online run lands here.
//
//sdem:hotpath
func (e *Executor) Run(taskID, core int, t0, t1, speed float64) (float64, error) {
	j, ok := e.jobs[taskID]
	switch {
	case !ok:
		return 0, fmt.Errorf("sim: unknown task %d", taskID)
	case j.Done:
		return 0, fmt.Errorf("sim: task %d already complete", taskID)
	case t1 <= t0 || speed <= 0:
		return 0, fmt.Errorf("sim: bad segment [%g,%g] speed %g for task %d", t0, t1, speed, taskID)
	case t0 < j.Task.Release-schedule.Tol:
		return 0, fmt.Errorf("sim: task %d started at %g before release %g", taskID, t0, j.Task.Release)
	case core < 0 || core >= e.cores:
		return 0, fmt.Errorf("sim: core %d out of range", core)
	case j.Core >= 0 && j.Core != core:
		return 0, fmt.Errorf("sim: task %d would migrate from core %d to %d", taskID, j.Core, core)
	}
	t1, speed, capped, throttled := runSegment(j, e.sys, e.limiter, core, t0, t1, speed)
	if capped {
		e.tel.CountL("sdem.sim.speed_caps", e.telLabel, 1)
	}
	if throttled {
		e.tel.CountL("sdem.sim.throttles", e.telLabel, 1)
	}
	seg := schedule.Segment{TaskID: taskID, Start: t0, End: t1, Speed: speed}
	if e.sched != nil {
		e.sched.Add(core, seg)
	} else if err := e.meter.Add(core, seg); err != nil {
		return 0, err
	}
	e.tel.CountL("sdem.sim.segments", e.telLabel, 1)
	e.tel.ObserveL("sdem.sim.segment_s", e.telLabel, t1-t0)
	if t1 > e.now {
		e.now = t1
	}
	if j.Done {
		e.active--
		if e.sched == nil {
			e.retire(j)
		}
	}
	return t1, nil
}

// runSegment is the execution core of Run: it caps the commanded speed
// at s_up, applies the limiter, executes work, detects completion —
// preserving the caller's end time when it is the exact completion point
// up to Tol, so replaying a planned segment reproduces it bit-for-bit —
// and flags deadline misses. It returns the actual segment end and speed
// plus whether the speed was capped or throttled (for telemetry).
//
//sdem:hotpath
func runSegment(j *Job, sys power.System, limiter SpeedLimiter, core int, t0, t1, speed float64) (end, actual float64, capped, throttled bool) {
	if sys.Core.SpeedMax > 0 && speed > sys.Core.SpeedMax {
		speed = sys.Core.SpeedMax // silently cap: the miss detector judges the result
		capped = true
	}
	if limiter != nil {
		if eff := limiter(core, t0, t1, speed); eff > 0 && eff < speed {
			speed = eff // the achieved speed is what the audit charges
			throttled = true
		}
	}
	j.Core = core
	work := speed * (t1 - t0)
	// The float time lattice cannot represent durations below one ULP of
	// the coordinate, so at large virtual times a truncated segment can
	// strand a leftover of up to a few ULPs' worth of work (speed·ulp(t1)):
	// any follow-up segment short enough to carry it rounds to zero length
	// and is never executable. Fold that grid quantum into the completion
	// tolerance so the leftover completes here, on the segment that made it.
	gridSlack := speed * math.Abs(t1) * gridTol
	if work >= j.Remaining-workTol*math.Max(1, j.Task.Workload)-gridSlack {
		if exact := t0 + j.Remaining/speed; math.Abs(exact-t1) > schedule.Tol {
			t1 = exact
		}
		work = j.Remaining
		j.Done = true
		j.Completed = t1
	}
	j.Remaining -= work
	if j.Done && t1 > j.Task.Deadline+schedule.Tol {
		j.missed = true
	}
	return t1, speed, capped, throttled
}

// Seal forwards a planning-batch boundary to a metering run's meter: no
// future segment will start before next, and the energy finalized by the
// seal is flushed to the sdem.sim.metered_j float series so windowed
// telemetry sees energy accrue during the run instead of only at Finish.
// A recording run has nothing to seal.
func (e *Executor) Seal(next float64) {
	if e.meter == nil {
		return
	}
	e.meter.Seal(next)
	if e.tel != nil {
		if cur := e.meter.Running(); cur > e.lastMetered {
			e.tel.AddL("sdem.sim.metered_j", e.telLabel, cur-e.lastMetered)
			e.lastMetered = cur
		}
	}
}

// retire accumulates a metering run's finished job and recycles it.
func (e *Executor) retire(j *Job) {
	delete(e.jobs, j.Task.ID)
	e.completed++
	e.tel.CountL("sdem.sim.completions", e.telLabel, 1)
	resp := j.Completed - j.Task.Release
	if e.onRetire != nil {
		e.onRetire(j, resp)
	}
	e.sumResp += resp
	e.maxResp = math.Max(e.maxResp, resp)
	e.sumLax += j.Task.Deadline - j.Completed
	if j.missed {
		e.recordMiss(j)
	}
	e.free = append(e.free, j)
}

func (e *Executor) recordMiss(j *Job) {
	e.missed++
	if e.classify != nil {
		if e.classify(j) {
			e.explainedMisses++
		} else {
			e.tel.CountL("sdem.sim.unexplained_misses", e.telLabel, 1)
		}
	}
	e.tel.CountL("sdem.sim.misses", e.telLabel, 1)
}

// Metrics summarizes the timeliness of an online run.
type Metrics struct {
	// MeanResponse and MaxResponse are completion − release statistics
	// over completed jobs (seconds).
	MeanResponse, MaxResponse float64
	// MeanLaxity is the average deadline − completion slack of completed
	// jobs; negative contributions come from late completions.
	MeanLaxity float64
	// Completed counts finished jobs.
	Completed int
}

// StreamSummary is the outcome of a metering run: a Result's aggregates
// without the O(jobs) schedule and per-miss slices.
type StreamSummary struct {
	// Admitted and Completed count jobs with non-zero workload.
	Admitted, Completed int64
	// Misses counts late or unfinished jobs; ExplainedMisses of those
	// were attributed to injected faults by the classifier (equal to
	// Misses when no classifier is installed and misses are expected).
	Misses, ExplainedMisses int64
	// Energy is the metered total; Breakdown itemizes it.
	Energy    float64
	Breakdown schedule.Breakdown
	// Metrics summarizes response times over completed jobs.
	Metrics Metrics
	// Start and End delimit the metered virtual-time horizon.
	Start, End float64
	// MaxActive is the peak concurrently-active job count.
	MaxActive int
}

// UnexplainedMisses returns the misses the classifier could not
// attribute to an injected perturbation.
func (s *StreamSummary) UnexplainedMisses() int64 { return s.Misses - s.ExplainedMisses }

// Finish closes a metering run: every still-active job retires as an
// unfinished miss (only counts change, so their order is immaterial),
// the meter's horizon closes at the later of the last admitted deadline
// and the latest execution, and the summary is returned.
func (e *Executor) Finish() *StreamSummary {
	for id, j := range e.jobs {
		e.recordMiss(j)
		delete(e.jobs, id)
	}
	e.active = 0
	end := math.Max(e.maxDeadline, e.now)
	var b schedule.Breakdown
	if e.meter != nil {
		b = e.meter.Finish(end)
	}
	m := Metrics{Completed: int(e.completed)}
	if e.completed > 0 {
		m.MeanResponse = e.sumResp / float64(e.completed)
		m.MaxResponse = e.maxResp
		m.MeanLaxity = e.sumLax / float64(e.completed)
	}
	return &StreamSummary{
		Admitted:        e.admitted,
		Completed:       e.completed,
		Misses:          e.missed,
		ExplainedMisses: e.explainedMisses,
		Energy:          b.Total(),
		Breakdown:       b,
		Metrics:         m,
		Start:           e.start,
		End:             end,
		MaxActive:       e.maxActive,
	}
}

// Result is the outcome of a recording run.
type Result struct {
	// Schedule is the assembled schedule; its policies default to
	// SleepBreakEven and callers adjust them per baseline semantics.
	Schedule *schedule.Schedule
	// Misses lists task IDs that completed late or never completed.
	Misses []int
	// MissDetails describes each miss: lateness for late completions,
	// undelivered cycles for jobs that never finished. The executor that
	// produced the run classifies them (planned vs fault-induced).
	MissDetails []schedule.Miss
	// Energy is the audited total under the schedule's sleep policies.
	Energy float64
	// Breakdown itemizes the audit.
	Breakdown schedule.Breakdown
	// Metrics summarizes response times.
	Metrics Metrics
}

// Result closes a recording run: it normalizes and audits the schedule
// and reports misses and metrics over the kept jobs in admission order.
// Policies on the schedule may be adjusted afterwards via Reaudit.
func (e *Executor) Result() *Result {
	e.sched.Normalize()
	var misses []int
	var details []schedule.Miss
	for _, j := range e.kept {
		if !j.Done || j.missed {
			misses = append(misses, j.Task.ID)
			m := schedule.Miss{TaskID: j.Task.ID, Deadline: j.Task.Deadline}
			if j.Done {
				m.CompletedAt = j.Completed
				m.Lateness = j.Completed - j.Task.Deadline
			} else {
				m.Remaining = j.Remaining
			}
			details = append(details, m)
		}
	}
	// Extend the horizon if execution ran past the last deadline (only
	// possible for missed schedules).
	if e.now > e.sched.End {
		e.sched.End = e.now
	}
	var m Metrics
	for _, j := range e.kept {
		if !j.Done || numeric.IsZero(j.Task.Workload, 0) {
			continue
		}
		resp := j.Completed - j.Task.Release
		m.MeanResponse += resp
		m.MaxResponse = math.Max(m.MaxResponse, resp)
		m.MeanLaxity += j.Task.Deadline - j.Completed
		m.Completed++
	}
	if m.Completed > 0 {
		m.MeanResponse /= float64(m.Completed)
		m.MeanLaxity /= float64(m.Completed)
	}
	b := schedule.Audit(e.sched, e.sys)
	if e.tel != nil {
		e.recordFinish(b, misses, m)
	}
	return &Result{
		Schedule:    e.sched,
		Misses:      misses,
		MissDetails: details,
		Energy:      b.Total(),
		Breakdown:   b,
		Metrics:     m,
	}
}

// Reaudit recomputes a result's energy under different sleep policies,
// returning a copy. Use it to account one schedule under the MBKP
// (never-sleep) and MBKPS (always-sleep) conventions.
func (r *Result) Reaudit(sys power.System, corePolicy, memPolicy schedule.SleepPolicy) *Result { //lint:allow auditcheck: clones an already-normalized schedule for reaccounting
	clone := *r.Schedule
	clone.CorePolicy = corePolicy
	clone.MemoryPolicy = memPolicy
	b := schedule.Audit(&clone, sys)
	return &Result{
		Schedule:    &clone,
		Misses:      r.Misses,
		MissDetails: r.MissDetails,
		Energy:      b.Total(),
		Breakdown:   b,
		Metrics:     r.Metrics,
	}
}
