package resilient_test

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sdem/internal/baseline"
	"sdem/internal/faults"
	"sdem/internal/online"
	"sdem/internal/power"
	"sdem/internal/resilient"
	"sdem/internal/telemetry"
	"sdem/internal/workload"
)

var update = flag.Bool("update", false, "rewrite the telemetry golden")

// execTelemetryPrefixes are the metric families the executors and the
// online planner own: the golden pins exactly these, so a change to the
// solver's own sdem.solver.cr.* tallies does not churn it.
var execTelemetryPrefixes = []string{"sdem.sim.", "sdem.solver.online.", "sdem.resilient."}

// execTelemetryCats are the trace categories the same layers emit.
var execTelemetryCats = []string{`"cat":"sim"`, `"cat":"online"`, `"cat":"resilient"`}

// dumpExecTelemetry renders the recorder's executor-owned metrics and
// trace events under a section header.
func dumpExecTelemetry(t *testing.T, b *strings.Builder, title string, tel *telemetry.Recorder) {
	t.Helper()
	b.WriteString("== " + title + " ==\n")
	var buf bytes.Buffer
	if err := tel.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(buf.String(), "\n") {
		fields := strings.Fields(line)
		if len(fields) < 2 {
			continue
		}
		for _, p := range execTelemetryPrefixes {
			if strings.HasPrefix(fields[1], p) {
				b.WriteString(line + "\n")
				break
			}
		}
	}
	buf.Reset()
	if err := tel.WriteTraceJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(buf.String(), "\n") {
		for _, c := range execTelemetryCats {
			if strings.Contains(line, c) {
				b.WriteString(line + "\n")
				break
			}
		}
	}
}

// TestExecutorTelemetryGolden pins the sdem.sim.*, sdem.solver.online.*
// and sdem.resilient.* series and trace events that an SDEM-ON
// simulate, an MBKP baseline run, a fault-free and a faulted resilient
// replay, and a faulted streaming run record on a fixed instance. These
// series reach sdemd's /metrics and experiments -metrics-out, so an
// executor change that renames, relabels or re-values any of them fails
// here. Regenerate with -update after an intended change.
func TestExecutorTelemetryGolden(t *testing.T) {
	sys := power.DefaultSystem()
	tasks, err := workload.Synthetic(workload.SyntheticConfig{N: 12, MaxInterArrival: power.Milliseconds(60)}, 5)
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder

	tel := telemetry.New()
	onl, err := online.Schedule(tasks, sys, online.Options{Cores: 2, Telemetry: tel})
	if err != nil {
		t.Fatal(err)
	}
	dumpExecTelemetry(t, &out, "sdem-on simulate", tel)

	tel = telemetry.New()
	if _, err := baseline.MBKPTel(tasks, sys, 2, tel); err != nil {
		t.Fatal(err)
	}
	dumpExecTelemetry(t, &out, "mbkp", tel)

	tel = telemetry.New()
	pol := resilient.DefaultPolicy()
	pol.Telemetry = tel
	if _, err := resilient.Execute(onl.Schedule, tasks, sys, faults.Plan{}, pol); err != nil {
		t.Fatal(err)
	}
	dumpExecTelemetry(t, &out, "resilient fault-free", tel)

	// Without the local boost every detection reaches the re-planner.
	tel = telemetry.New()
	pol = resilient.Policy{Replan: true, Race: true, Telemetry: tel}
	plan := faults.Generate(faults.Config{Intensity: 0.8}, tasks, sys, 3)
	res, err := resilient.Execute(onl.Schedule, tasks, sys, plan, pol)
	if err != nil {
		t.Fatal(err)
	}
	var replans int
	for _, r := range res.Recoveries {
		if r.Action == resilient.ActionReplan {
			replans++
		}
	}
	if replans == 0 {
		t.Fatalf("faulted replay took no re-plan recovery (%d recoveries): the golden would not cover the planner", len(res.Recoveries))
	}
	dumpExecTelemetry(t, &out, "resilient faulted", tel)

	tel = telemetry.New()
	src, err := workload.SporadicStream(workload.SyntheticConfig{MaxInterArrival: power.Milliseconds(60)}, 5, 40)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := online.ScheduleStream(src, sys, online.StreamOptions{
		Cores: 2, Faults: faults.NewStreamer(faults.Config{Intensity: 0.6}, 9), Telemetry: tel,
	}); err != nil {
		t.Fatal(err)
	}
	dumpExecTelemetry(t, &out, "sdem-on stream", tel)

	path := filepath.Join("testdata", "executor_telemetry.golden")
	got := []byte(out.String())
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to regenerate): %v", err)
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := range gl {
		if i >= len(wl) || gl[i] != wl[i] {
			t.Fatalf("executor telemetry differs from %s at line %d:\n got: %s", path, i+1, gl[i])
		}
	}
	if len(gl) != len(wl) {
		t.Fatalf("executor telemetry has %d lines, %s has %d", len(gl), path, len(wl))
	}
}
