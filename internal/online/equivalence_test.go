package online

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"sdem/internal/commonrelease"
	"sdem/internal/faults"
	"sdem/internal/parallel"
	"sdem/internal/power"
	"sdem/internal/schedule"
	"sdem/internal/sim"
	"sdem/internal/task"
	"sdem/internal/telemetry"
	"sdem/internal/workload"
)

// ScheduleRescan is the reference SDEM-ON implementation and the
// equivalence oracle of the engine: it admits every job up front and, at
// every distinct release, rescans all of them for the released unfinished
// ones (in EDF order) and re-solves the common-release instance from
// scratch with the full §4 solver (PlanAt). It is O(n²) in arrivals; the
// property tests assert Schedule produces a bit-identical sim.Result.
func ScheduleRescan(tasks task.Set, sys power.System, opts Options) (*sim.Result, error) {
	ex, jobs, err := admitAll(tasks, sys, opts.Cores)
	if err != nil {
		return nil, err
	}
	busyUntil := make([]float64, ex.Cores())
	for k, j := range jobs {
		now, next := j.Task.Release, math.Inf(1)
		if k > 0 && now == jobs[k-1].Task.Release {
			continue // one re-plan per distinct release
		}
		for _, later := range jobs[k:] {
			if later.Task.Release > now {
				next = later.Task.Release
				break
			}
		}
		// A job is released exactly at its release time, as the arrival
		// loop admits an in-order source.
		var active []*sim.Job
		for _, j := range jobs {
			if !j.Done && j.Task.Release <= now {
				active = append(active, j)
			}
		}
		sort.SliceStable(active, func(a, b int) bool {
			if active[a].Task.Deadline != active[b].Task.Deadline {
				return active[a].Task.Deadline < active[b].Task.Deadline
			}
			return active[a].Task.ID < active[b].Task.ID
		})
		if len(active) == 0 {
			continue
		}
		plans, wake, err := PlanAt(sys, active, now, opts.PlanAlphaZero)
		if err != nil {
			return nil, err
		}
		if opts.NoProcrastinate {
			wake = now
		}
		if wake < next { // otherwise keep sleeping; the next arrival re-plans
			sort.Stable((*plansEDF)(&plans))
			if err := execute(ex, busyUntil, plans, wake, next); err != nil {
				return nil, err
			}
		}
	}
	return ex.Result(), nil
}

// admitAll admits the whole task set, in release order, into the
// recording run of sim.NewBatch.
func admitAll(tasks task.Set, sys power.System, cores int) (*sim.Executor, []*sim.Job, error) {
	ex, sorted, err := sim.NewBatch(tasks, sys, cores)
	if err != nil {
		return nil, nil, err
	}
	jobs := make([]*sim.Job, len(sorted))
	for i, t := range sorted {
		if jobs[i], err = ex.Admit(t); err != nil {
			return nil, nil, err
		}
	}
	return ex, jobs, nil
}

// PlanAt solves the common-release instance formed by the given unfinished
// jobs at time now — remaining workloads, original deadlines — with the
// full §4 solver and an ends map over its schedule, and returns the
// per-job plans plus the wake time (the earliest latest execution point
// d_j − p_j over the planned jobs; now itself when any job is urgent).
func PlanAt(sys power.System, active []*sim.Job, now float64, alphaZero bool) ([]Plan, float64, error) {
	planSys := sys
	if alphaZero {
		planSys.Core.Static = 0
		planSys.Core.BreakEven = 0
	}
	var virtual task.Set
	var vjobs, urgent []*sim.Job
	for _, j := range active {
		window := j.Task.Deadline - now
		if window <= 0 || (sys.Core.SpeedMax > 0 && j.Remaining/window > sys.Core.SpeedMax) {
			urgent = append(urgent, j)
			continue
		}
		virtual = append(virtual, task.Task{ID: j.Task.ID, Release: now, Deadline: j.Task.Deadline, Workload: j.Remaining})
		vjobs = append(vjobs, j)
	}
	var plans []Plan
	wake := math.Inf(1)
	if len(virtual) > 0 {
		sol, err := commonrelease.Solve(virtual, planSys)
		if err != nil {
			return nil, 0, fmt.Errorf("online: planning at t=%g: %w", now, err)
		}
		ends := make(map[int]float64, len(virtual))
		for _, segs := range sol.Schedule.Cores {
			for _, sg := range segs {
				ends[sg.TaskID] = math.Max(ends[sg.TaskID], sg.End)
			}
		}
		for i, vt := range virtual {
			p := ends[vt.ID] - now
			if p <= 0 { // defensive: plan must give every task time
				p = vt.Workload / raceSpeed(vt.Workload, vt.Release, vt.Deadline, now, sys)
			}
			plans = append(plans, Plan{Job: vjobs[i], P: p, Speed: vt.Workload / p})
			wake = math.Min(wake, vt.Deadline-p)
		}
	}
	for _, j := range urgent {
		s := raceSpeed(j.Remaining, j.Task.Release, j.Task.Deadline, now, sys)
		plans = append(plans, Plan{Job: j, P: j.Remaining / s, Speed: s, Urgent: true})
		wake = now
	}
	return plans, math.Max(wake, now), nil
}

// perturb applies the task-level faults of a plan (workload overruns,
// late releases) to a copy of the task set, so both engines consume the
// same perturbed inputs — the path on which the urgent/race branches and
// deadline misses actually fire.
func perturb(tasks task.Set, plan faults.Plan) task.Set {
	out := tasks.Clone()
	byID := make(map[int]int, len(out))
	for i, t := range out {
		byID[t.ID] = i
	}
	for _, f := range plan.Faults {
		i, ok := byID[f.TaskID]
		if !ok {
			continue
		}
		switch f.Kind {
		case faults.Overrun:
			out[i].Workload *= f.Factor
		case faults.LateRelease:
			out[i].Release += f.Delay
			if out[i].Release >= out[i].Deadline {
				// Keep the task validatable; the shrunken window still
				// exercises the urgent path.
				out[i].Release = out[i].Deadline - 1e-6
			}
		}
	}
	return out
}

// equivalenceWorkloads yields the deterministic workload/system/options
// grid the byte-identity property is checked over: the fig7 sporadic
// synthetic sets, the fig6 DSP benchmark sets, and fault-perturbed
// variants of both, across scheme dispatch and engine options.
func equivalenceWorkloads(t *testing.T) []struct {
	name  string
	tasks task.Set
	sys   power.System
	opts  Options
} {
	t.Helper()
	overhead := power.DefaultSystem() // ξ_m > 0: overhead scheme
	static := power.DefaultSystem()
	static.Core.BreakEven = 0
	static.Memory.BreakEven = 0 // α > 0: with-static scheme
	alphaZero := static
	alphaZero.Core.Static = 0 // α = 0 scheme
	unbounded := static
	unbounded.Core.SpeedMax = 0 // raceSpeed stretch paths

	var out []struct {
		name  string
		tasks task.Set
		sys   power.System
		opts  Options
	}
	add := func(name string, tasks task.Set, sys power.System, opts Options) {
		out = append(out, struct {
			name  string
			tasks task.Set
			sys   power.System
			opts  Options
		}{name, tasks, sys, opts})
	}

	for seed := int64(1); seed <= 6; seed++ {
		// fig7-style sporadic synthetic workload.
		syn, err := workload.Synthetic(workload.SyntheticConfig{N: 40, MaxInterArrival: power.Milliseconds(120)}, seed)
		if err != nil {
			t.Fatal(err)
		}
		add(fmt.Sprintf("fig7/seed=%d/overhead", seed), syn, overhead, Options{Cores: 8})
		add(fmt.Sprintf("fig7/seed=%d/static", seed), syn, static, Options{Cores: 4})
		add(fmt.Sprintf("fig7/seed=%d/alpha0", seed), syn, alphaZero, Options{Cores: 8, PlanAlphaZero: true})
		add(fmt.Sprintf("fig7/seed=%d/noproc", seed), syn, overhead, Options{Cores: 8, NoProcrastinate: true})

		// fig6-style DSP benchmark workload.
		bench, err := workload.Benchmark(workload.BenchmarkConfig{N: 30, Kernel: workload.KernelMixed, U: 0.4}, seed)
		if err != nil {
			t.Fatal(err)
		}
		add(fmt.Sprintf("fig6/seed=%d/overhead", seed), bench, overhead, Options{Cores: 8})
		add(fmt.Sprintf("fig6/seed=%d/static", seed), bench, static, Options{Cores: 8})

		// Fault-perturbed variants: overruns and late releases push jobs
		// into the urgent/slackless branches and produce misses, under a
		// core shortage to stress the execute queueing path.
		plan := faults.Generate(faults.Config{Intensity: 0.6}, syn, overhead, seed)
		hot := perturb(syn, plan)
		add(fmt.Sprintf("fig7-faulty/seed=%d/overhead", seed), hot, overhead, Options{Cores: 2})
		add(fmt.Sprintf("fig7-faulty/seed=%d/static", seed), hot, static, Options{Cores: 1})
		add(fmt.Sprintf("fig7-faulty/seed=%d/unbounded", seed), hot, unbounded, Options{Cores: 2})
	}
	return out
}

// TestScheduleMatchesRescan is the equivalence property: the incremental
// engine's sim.Result is identical — schedule bits, misses, energy,
// metrics — to the legacy full-rescan oracle on every deterministic
// workload, fault-free and fault-perturbed.
func TestScheduleMatchesRescan(t *testing.T) {
	for _, c := range equivalenceWorkloads(t) {
		inc, err := Schedule(c.tasks, c.sys, c.opts)
		if err != nil {
			t.Fatalf("%s: incremental: %v", c.name, err)
		}
		ref, err := ScheduleRescan(c.tasks, c.sys, c.opts)
		if err != nil {
			t.Fatalf("%s: rescan: %v", c.name, err)
		}
		if !reflect.DeepEqual(inc, ref) {
			t.Errorf("%s: incremental result diverges from rescan oracle\nincremental: energy=%x misses=%v segs=%d\nrescan:      energy=%x misses=%v segs=%d",
				c.name, math.Float64bits(inc.Energy), inc.Misses, countSegs(inc),
				math.Float64bits(ref.Energy), ref.Misses, countSegs(ref))
		}
	}
}

func countSegs(r *sim.Result) int {
	n := 0
	for _, c := range r.Schedule.Cores {
		n += len(c)
	}
	return n
}

// FuzzScheduleMatchesOracle is the differential form of the equivalence
// property: on fuzzed sets of up to eight tasks, fault-free or perturbed
// by a fault plan of the given intensity, on one to three cores, with
// variant bit 0 disabling procrastination and bit 1 selecting α = 0
// planning, Schedule must return exactly the rescan oracle's result. Bit
// i of ties spaces task i's release less than schedule.Tol after task
// i−1's: the seam where a loop that admits arrivals up to Tol early
// plans a different active set than a rescan at every distinct release.
func FuzzScheduleMatchesOracle(f *testing.F) {
	f.Add(int64(1), uint8(5), uint8(1), 0.0, uint8(0), uint8(0))
	f.Add(int64(2), uint8(7), uint8(0), 0.6, uint8(0), uint8(2))
	f.Add(int64(3), uint8(7), uint8(2), 0.0, uint8(0xaa), uint8(0))
	f.Add(int64(4), uint8(6), uint8(1), 0.8, uint8(0xfe), uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, n, cores uint8, intensity float64, ties, variant uint8) {
		if math.IsNaN(intensity) || math.IsInf(intensity, 0) {
			intensity = 0
		}
		sys := power.DefaultSystem()
		r := rand.New(rand.NewSource(seed))
		tasks := make(task.Set, int(n%8)+1)
		var rel float64
		for i := range tasks {
			if i > 0 && ties>>uint(i)&1 != 0 {
				rel += schedule.Tol * r.Float64()
			} else {
				rel += r.Float64() * 0.05
			}
			window := 0.01 + r.Float64()*0.1
			tasks[i] = task.Task{ID: i, Release: rel, Deadline: rel + window, Workload: 1e5 + r.Float64()*5e6}
		}
		if intensity > 0 {
			tasks = perturb(tasks, faults.Generate(faults.Config{Intensity: intensity}, tasks, sys, seed))
		}
		opts := Options{Cores: int(cores%3) + 1, NoProcrastinate: variant&1 != 0, PlanAlphaZero: variant&2 != 0}
		got, gotErr := Schedule(tasks, sys, opts)
		want, wantErr := ScheduleRescan(tasks, sys, opts)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("engine error %v, oracle error %v", gotErr, wantErr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("engine result diverges from rescan oracle\nengine: energy=%x misses=%v segs=%d\noracle: energy=%x misses=%v segs=%d",
				math.Float64bits(got.Energy), got.Misses, countSegs(got),
				math.Float64bits(want.Energy), want.Misses, countSegs(want))
		}
	})
}

// TestScheduleWorkerCountInvariant runs the equivalence grid through
// parallel.Map at several worker counts and requires identical
// fingerprints, so the engines stay deterministic under the sweep pool.
func TestScheduleWorkerCountInvariant(t *testing.T) {
	cases := equivalenceWorkloads(t)
	run := func(workers int) []uint64 {
		out, err := parallel.Map(context.Background(), workers, len(cases), func(_ context.Context, i int) (uint64, error) {
			c := cases[i]
			res, err := Schedule(c.tasks, c.sys, c.opts)
			if err != nil {
				return 0, err
			}
			return math.Float64bits(res.Energy) ^ uint64(len(res.Misses))<<1 ^ uint64(countSegs(res)), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	seq := run(1)
	for _, workers := range []int{2, 4, 8} {
		if got := run(workers); !reflect.DeepEqual(got, seq) {
			t.Errorf("workers=%d: fingerprints diverge from sequential", workers)
		}
	}
}

// TestPlanReuseAndSkipFire pins the incremental engine's two elision
// paths open on a workload built to hit them: a strictly periodic task
// (identical window/workload bits every period, one job active at a
// time) must reuse the previous solve, and a pair of arrivals closer
// together than the first job's procrastinated wake must skip the solve
// outright. Equivalence on these workloads is covered by the property
// test; this test proves the fast paths actually run.
func TestPlanReuseAndSkipFire(t *testing.T) {
	sys := power.DefaultSystem()

	periodic := make(task.Set, 0, 12)
	for i := 0; i < 12; i++ {
		rel := float64(i) * 0.2
		periodic = append(periodic, task.Task{ID: i, Release: rel, Deadline: rel + 0.1, Workload: 3e6})
	}
	tel := telemetry.New()
	if _, err := Schedule(periodic, sys, Options{Cores: 2, Telemetry: tel}); err != nil {
		t.Fatal(err)
	}
	if got := counter(tel, "sdem.solver.online.plan_reuse"); got < 5 {
		t.Errorf("periodic workload reused %d plans, want ≥ 5", got)
	}
	if inc, ref := mustRun(t, Schedule, periodic, sys), mustRun(t, ScheduleRescan, periodic, sys); !reflect.DeepEqual(inc, ref) {
		t.Error("periodic workload: memo path diverges from oracle")
	}

	// Two bursts 1 ms apart, each job with a 100 ms window: the first
	// plan procrastinates far past the second arrival.
	burst := task.Set{
		{ID: 0, Release: 0, Deadline: 0.1, Workload: 2e6},
		{ID: 1, Release: 0.001, Deadline: 0.101, Workload: 2e6},
	}
	tel = telemetry.New()
	if _, err := Schedule(burst, sys, Options{Cores: 2, Telemetry: tel}); err != nil {
		t.Fatal(err)
	}
	if got := counter(tel, "sdem.solver.online.skipped_solves"); got < 1 {
		t.Errorf("burst workload skipped %d solves, want ≥ 1", got)
	}
	if inc, ref := mustRun(t, Schedule, burst, sys), mustRun(t, ScheduleRescan, burst, sys); !reflect.DeepEqual(inc, ref) {
		t.Error("burst workload: skip path diverges from oracle")
	}
}

func mustRun(t *testing.T, f func(task.Set, power.System, Options) (*sim.Result, error), tasks task.Set, sys power.System) *sim.Result {
	t.Helper()
	res, err := f(tasks, sys, Options{Cores: 2})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func counter(tel *telemetry.Recorder, name string) int64 {
	var total int64
	for _, c := range tel.Snapshot().Counters {
		if c.Name == name {
			total += c.Value
		}
	}
	return total
}

// TestExecuteSlacklessRacesAtMax is the regression test for the late-job
// speed fix: when queueing delay pushes a job's start to or past its
// deadline, execute must race it at s_up instead of keeping the stale
// planned speed (which would stretch the overrun far past the deadline).
func TestExecuteSlacklessRacesAtMax(t *testing.T) {
	sys := power.DefaultSystem()
	tasks := task.Set{{ID: 1, Release: 0, Deadline: 0.05, Workload: 4e6}}
	ex, _, err := admitAll(tasks, sys, 1)
	if err != nil {
		t.Fatal(err)
	}
	// The single core is busy until after the deadline, so the planned
	// (p, speed) pair is stale by the time the job starts.
	busy := []float64{0.06}
	plans := []Plan{{Job: ex.Job(1), P: 0.04, Speed: 1e8}}
	if err := execute(ex, busy, plans, 0, math.Inf(1)); err != nil {
		t.Fatal(err)
	}
	segs := segmentsOf(ex)
	if len(segs) != 1 {
		t.Fatalf("want 1 segment, got %d", len(segs))
	}
	if got, want := segs[0].Speed, sys.Core.SpeedMax; got != want {
		t.Errorf("slackless start ran at %g, want race speed s_up = %g", got, want)
	}
}

// TestExecuteSlacklessUnboundedSpeed covers the same regression on a
// platform without a speed cap: the race speed must be a finite stretch
// over the job's own window, not the stale plan or a sentinel.
func TestExecuteSlacklessUnboundedSpeed(t *testing.T) {
	sys := power.DefaultSystem()
	sys.Core.SpeedMax = 0
	sys.Core.BreakEven = 0
	sys.Memory.BreakEven = 0
	tasks := task.Set{{ID: 1, Release: 0, Deadline: 0.05, Workload: 4e6}}
	ex, _, err := admitAll(tasks, sys, 1)
	if err != nil {
		t.Fatal(err)
	}
	busy := []float64{0.06}
	plans := []Plan{{Job: ex.Job(1), P: 0.04, Speed: 1e8}}
	if err := execute(ex, busy, plans, 0, math.Inf(1)); err != nil {
		t.Fatal(err)
	}
	segs := segmentsOf(ex)
	if len(segs) != 1 {
		t.Fatalf("want 1 segment, got %d", len(segs))
	}
	want := 4e6 / 0.05 // workload over the full release→deadline window
	if got := segs[0].Speed; got != want {
		t.Errorf("slackless start on uncapped core ran at %g, want window stretch %g", got, want)
	}
}

// TestPlanAtUrgentNoSpeedCap is the regression test for the 1e12
// sentinel leak: with SpeedMax == 0, an urgent job's plan used to carry
// effectiveMax's infinite-cap sentinel as its speed (and a near-zero P).
// The plan must instead race at a finite stretch over the job's window,
// in the reference planner and in the engine's Replan alike.
func TestPlanAtUrgentNoSpeedCap(t *testing.T) {
	sys := power.DefaultSystem()
	sys.Core.SpeedMax = 0
	sys.Core.BreakEven = 0
	sys.Memory.BreakEven = 0
	tasks := task.Set{{ID: 1, Release: 0, Deadline: 0.01, Workload: 1e6}}
	_, jobs, err := admitAll(tasks, sys, 1)
	if err != nil {
		t.Fatal(err)
	}
	now := 0.02 // past the deadline: the job is urgent with window ≤ 0
	plans, wake, err := PlanAt(sys, jobs, now, false)
	if err != nil {
		t.Fatal(err)
	}
	if wake != now {
		t.Errorf("urgent wake = %g, want now = %g", wake, now)
	}
	var rt Runtime
	engine, err := rt.Replan(jobs, now, sys, Options{})
	if err != nil {
		t.Fatal(err)
	}
	wantSpeed := 1e6 / 0.01 // workload over the release→deadline window
	for name, plans := range map[string][]Plan{"PlanAt": plans, "Replan": engine} {
		if len(plans) != 1 || !plans[0].Urgent {
			t.Fatalf("%s: want 1 urgent plan, got %+v", name, plans)
		}
		if got := plans[0].Speed; got != wantSpeed {
			t.Errorf("%s: urgent plan speed = %g, want %g (sentinel must not leak)", name, got, wantSpeed)
		}
		if got, want := plans[0].P, 0.01; got != want {
			t.Errorf("%s: urgent plan P = %g, want %g", name, got, want)
		}
	}
}

// segmentsOf audits the recording run and returns all segments across
// cores.
func segmentsOf(ex *sim.Executor) []schedule.Segment {
	var segs []schedule.Segment
	for _, c := range ex.Result().Schedule.Cores {
		segs = append(segs, c...)
	}
	return segs
}
