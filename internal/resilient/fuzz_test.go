package resilient

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"sdem/internal/faults"
	"sdem/internal/online"
	"sdem/internal/power"
	"sdem/internal/schedule"
	"sdem/internal/task"
)

// fuzzTasks derives a valid task set deterministically from a seed:
// sporadic releases, windows and workloads well inside the feasible
// range of the default platform.
func fuzzTasks(seed int64, n int) task.Set {
	r := rand.New(rand.NewSource(seed))
	set := make(task.Set, n)
	var rel float64
	for i := range set {
		rel += r.Float64() * 0.05
		window := 0.01 + r.Float64()*0.1
		set[i] = task.Task{
			ID:       i,
			Release:  rel,
			Deadline: rel + window,
			Workload: 1e5 + r.Float64()*5e6,
		}
	}
	return set
}

// FuzzExecute round-trips random schedules through random fault plans and
// checks the executor's invariants: no panic, a finite non-negative
// audited energy, every miss reported exactly once with a class, a
// structurally valid output schedule, and bit-identical replay under the
// empty plan.
func FuzzExecute(f *testing.F) {
	f.Add(int64(1), uint8(3), 0.5, uint8(7))
	f.Add(int64(42), uint8(1), 1.0, uint8(0))
	f.Add(int64(7), uint8(6), 0.0, uint8(5))
	f.Add(int64(99), uint8(8), 0.9, uint8(2))

	f.Fuzz(func(t *testing.T, seed int64, n uint8, intensity float64, polBits uint8) {
		if math.IsNaN(intensity) || math.IsInf(intensity, 0) {
			intensity = 0
		}
		tasks := fuzzTasks(seed, int(n%8)+1)
		sys := power.DefaultSystem()
		onl, err := online.Schedule(tasks, sys, online.Options{Cores: 2})
		if err != nil {
			t.Skip("online scheduler rejected the instance")
		}
		plan := faults.Generate(faults.Config{Intensity: intensity}, tasks, sys, seed)
		pol := Policy{
			SpeedBoost: polBits&1 != 0,
			Replan:     polBits&2 != 0,
			Race:       polBits&4 != 0,
		}
		res, err := Execute(onl.Schedule, tasks, sys, plan, pol)
		if err != nil {
			t.Fatalf("Execute: %v", err)
		}

		if math.IsNaN(res.Energy) || math.IsInf(res.Energy, 0) || res.Energy < 0 {
			t.Fatalf("bad audited energy %g", res.Energy)
		}
		if res.SpuriousWakeEnergy < 0 || res.WakeStallEnergy < 0 {
			t.Fatalf("negative fault energy: spurious %g stall %g", res.SpuriousWakeEnergy, res.WakeStallEnergy)
		}

		// Every miss the executor recorded is classified exactly once.
		if got, want := len(res.PlannedMisses)+len(res.FaultMisses), len(res.Sim.Misses); got != want {
			t.Fatalf("%d misses classified, executor recorded %d", got, want)
		}
		for _, m := range append(append([]schedule.Miss{}, res.PlannedMisses...), res.FaultMisses...) {
			if m.Lateness <= 0 && m.Remaining <= 0 {
				t.Fatalf("miss %+v reports neither lateness nor undelivered work", m)
			}
		}

		// The output schedule must stay structurally sound: only
		// deadline/delivery violations (the reported misses) are
		// tolerable; overlap or migration would be executor bugs.
		err = res.Sim.Schedule.Validate(tasks, schedule.ValidateOptions{SpeedMax: sys.Core.SpeedMax})
		if err != nil && !errorsIsAny(err, schedule.ErrDeadlineMiss, schedule.ErrInfeasible) {
			t.Fatalf("structurally invalid output: %v", err)
		}

		// The empty plan must reproduce the input exactly, whatever the
		// policy.
		clean, err := Execute(onl.Schedule, tasks, sys, faults.Plan{}, pol)
		if err != nil {
			t.Fatalf("fault-free Execute: %v", err)
		}
		if !reflect.DeepEqual(clean.Sim.Schedule.Cores, onl.Schedule.Cores) {
			t.Fatalf("fault-free replay altered the schedule")
		}
	})
}
