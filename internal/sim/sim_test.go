package sim

import (
	"math"
	"testing"

	"sdem/internal/power"
	"sdem/internal/schedule"
	"sdem/internal/task"
)

func testSystem() power.System {
	return power.DefaultSystem()
}

// record admits the task set, in release order, into the recording run
// of NewBatch.
func record(t *testing.T, tasks task.Set, sys power.System, cores int) *Executor {
	t.Helper()
	ex, sorted, err := NewBatch(tasks, sys, cores)
	if err != nil {
		t.Fatal(err)
	}
	for _, tk := range sorted {
		if _, err := ex.Admit(tk); err != nil {
			t.Fatal(err)
		}
	}
	return ex
}

func TestPoolLifecycle(t *testing.T) {
	tasks := task.Set{
		{ID: 2, Release: 0.1, Deadline: 0.3, Workload: 1e8},
		{ID: 1, Release: 0, Deadline: 0.2, Workload: 1e8},
	}
	ex := record(t, tasks, testSystem(), 2)
	if got := ex.Active(); got != 2 {
		t.Errorf("Active = %d, want 2", got)
	}

	// Execute task 1 fully, task 2 partially then fully.
	end, err := ex.Run(1, 0, 0, 0.2, 1e9)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(end, 0.1, 1e-9) { // 1e8 cycles at 1e9 Hz = 0.1 s
		t.Errorf("task 1 end = %g, want 0.1", end)
	}
	if j := ex.Job(1); !j.Done || j.Remaining != 0 {
		t.Errorf("task 1 not complete: %+v", j)
	}
	if _, err := ex.Run(2, 1, 0.1, 0.15, 1e9); err != nil {
		t.Fatal(err)
	}
	if j := ex.Job(2); j.Done || !almostEq(j.Remaining, 0.5e8, 1e-9) {
		t.Errorf("task 2 remaining = %g, want 5e7", j.Remaining)
	}
	if _, err := ex.Run(2, 1, 0.2, 0.3, 1e9); err != nil {
		t.Fatal(err)
	}
	if got := ex.Active(); got != 0 {
		t.Errorf("Active = %d after both completions, want 0", got)
	}
	res := ex.Result()
	if len(res.Misses) != 0 {
		t.Errorf("unexpected misses: %v", res.Misses)
	}
	if err := res.Schedule.Validate(tasks, schedule.ValidateOptions{SpeedMax: testSystem().Core.SpeedMax}); err != nil {
		t.Errorf("schedule invalid: %v", err)
	}
	if res.Energy <= 0 {
		t.Error("energy must be positive")
	}
}

func TestPoolRejectsBadRuns(t *testing.T) {
	tasks := task.Set{{ID: 1, Release: 0.1, Deadline: 1, Workload: 1e8}}
	ex := record(t, tasks, testSystem(), 2)
	cases := []struct {
		name          string
		id, core      int
		t0, t1, speed float64
	}{
		{"unknown task", 9, 0, 0.1, 0.2, 1e9},
		{"before release", 1, 0, 0, 0.2, 1e9},
		{"bad interval", 1, 0, 0.3, 0.2, 1e9},
		{"zero speed", 1, 0, 0.1, 0.2, 0},
		{"core out of range", 1, 5, 0.1, 0.2, 1e9},
	}
	for _, tc := range cases {
		if _, err := ex.Run(tc.id, tc.core, tc.t0, tc.t1, tc.speed); err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
	// Migration.
	if _, err := ex.Run(1, 0, 0.1, 0.11, 1e9); err != nil {
		t.Fatal(err)
	}
	if _, err := ex.Run(1, 1, 0.2, 0.21, 1e9); err == nil {
		t.Error("migration must be rejected")
	}
	// Double completion.
	if _, err := ex.Run(1, 0, 0.3, 1, 1e9); err != nil {
		t.Fatal(err)
	}
	if _, err := ex.Run(1, 0, 0.9, 1, 1e9); err == nil {
		t.Error("running a completed task must be rejected")
	}
}

func TestMissDetection(t *testing.T) {
	tasks := task.Set{
		{ID: 1, Release: 0, Deadline: 0.1, Workload: 1e8},
		{ID: 2, Release: 0, Deadline: 0.1, Workload: 1e8},
	}
	ex := record(t, tasks, testSystem(), 2)
	// Task 1 completes late; task 2 never completes.
	if _, err := ex.Run(1, 0, 0.05, 0.2, 1e9); err != nil {
		t.Fatal(err)
	}
	res := ex.Result()
	if len(res.Misses) != 2 {
		t.Errorf("misses = %v, want both tasks", res.Misses)
	}
	// Horizon must stretch to cover the late segment.
	if res.Schedule.End < 0.15 {
		t.Errorf("horizon end = %g, want ≥ 0.15", res.Schedule.End)
	}
}

func TestSpeedCapSilentClamp(t *testing.T) {
	sys := testSystem()
	tasks := task.Set{{ID: 1, Release: 0, Deadline: 1, Workload: 1e8}}
	ex := record(t, tasks, sys, 1)
	// Ask for an impossible speed; the ex caps it at s_up, so less work
	// is done than requested.
	if _, err := ex.Run(1, 0, 0, 0.01, 1e10); err != nil {
		t.Fatal(err)
	}
	want := sys.Core.SpeedMax * 0.01
	if j := ex.Job(1); !almostEq(j.Remaining, 1e8-want, 1e-9) {
		t.Errorf("remaining = %g, want %g", j.Remaining, 1e8-want)
	}
}

func TestReaudit(t *testing.T) {
	sys := testSystem()
	tasks := task.Set{{ID: 1, Release: 0, Deadline: 1, Workload: 1e8}}
	ex := record(t, tasks, sys, 1)
	if _, err := ex.Run(1, 0, 0, 1, 1e8); err != nil {
		t.Fatal(err)
	}
	res := ex.Result()
	never := res.Reaudit(sys, schedule.SleepNever, schedule.SleepNever)
	if never.Energy < res.Energy {
		t.Errorf("never-sleep (%g) should not beat break-even (%g)", never.Energy, res.Energy)
	}
	if res.Schedule.MemoryPolicy == never.Schedule.MemoryPolicy {
		t.Error("Reaudit must not mutate the original schedule")
	}
}

func TestZeroWorkloadTasksAreBorn_Done(t *testing.T) {
	tasks := task.Set{{ID: 1, Release: 0, Deadline: 1, Workload: 0}}
	ex := record(t, tasks, testSystem(), 1)
	if j := ex.Job(1); !j.Done {
		t.Error("zero-workload job must be born complete")
	}
	if res := ex.Result(); len(res.Misses) != 0 {
		t.Errorf("zero-workload run: misses %v", res.Misses)
	}
}

func almostEq(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

func TestMetrics(t *testing.T) {
	tasks := task.Set{
		{ID: 1, Release: 0, Deadline: 0.5, Workload: 1e8},
		{ID: 2, Release: 0.1, Deadline: 0.6, Workload: 1e8},
	}
	ex := record(t, tasks, testSystem(), 2)
	if _, err := ex.Run(1, 0, 0.1, 0.3, 1e9); err != nil { // completes at 0.2
		t.Fatal(err)
	}
	if _, err := ex.Run(2, 1, 0.2, 0.5, 1e9); err != nil { // completes at 0.3
		t.Fatal(err)
	}
	res := ex.Result()
	m := res.Metrics
	if m.Completed != 2 {
		t.Fatalf("completed = %d", m.Completed)
	}
	if !almostEq(m.MeanResponse, 0.2, 1e-9) { // (0.2 + 0.2)/2
		t.Errorf("mean response = %g, want 0.2", m.MeanResponse)
	}
	if !almostEq(m.MaxResponse, 0.2, 1e-9) {
		t.Errorf("max response = %g, want 0.2", m.MaxResponse)
	}
	if !almostEq(m.MeanLaxity, 0.3, 1e-9) { // (0.3 + 0.3)/2
		t.Errorf("mean laxity = %g, want 0.3", m.MeanLaxity)
	}
	// Reaudit preserves metrics.
	if re := res.Reaudit(testSystem(), schedule.SleepNever, schedule.SleepNever); re.Metrics != m {
		t.Error("Reaudit must carry metrics through")
	}
}
