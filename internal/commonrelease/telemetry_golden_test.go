package commonrelease_test

import (
	"bytes"
	"flag"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"sdem/internal/agreeable"
	"sdem/internal/commonrelease"
	"sdem/internal/power"
	"sdem/internal/task"
	"sdem/internal/telemetry"
)

var update = flag.Bool("update", false, "rewrite the solver telemetry golden")

// solverTelemetryPrefixes are the metric families the §4/§7
// common-release and §5/§7 agreeable solvers own.
var solverTelemetryPrefixes = []string{"sdem.solver.cr.", "sdem.solver.agr."}

// dumpSolverTelemetry renders the recorder's solver-owned metrics and
// "solver" trace events under a section header, followed by the exact
// bits of the values the solve returned.
func dumpSolverTelemetry(t *testing.T, b *strings.Builder, title string, tel *telemetry.Recorder, results ...float64) {
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
		for _, p := range solverTelemetryPrefixes {
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
		if strings.Contains(line, `"cat":"solver"`) {
			b.WriteString(line + "\n")
		}
	}
	b.WriteString("result")
	for _, v := range results {
		b.WriteString(" " + strconv.FormatFloat(v, 'x', -1, 64))
	}
	b.WriteString("\n")
}

// goldenCommonRelease is a fixed 9-task common-release instance with
// spread windows, so the §7 scan crosses several convex pieces and the
// speed cap binds on some of them.
func goldenCommonRelease() task.Set {
	r := rand.New(rand.NewSource(13))
	s := make(task.Set, 9)
	for i := range s {
		s[i] = task.Task{
			ID:       i,
			Deadline: power.Milliseconds(5 + r.Float64()*115),
			Workload: 1e6 + r.Float64()*6e6,
		}
	}
	s[4].Workload = 0 // a zero-workload task is scheduled nowhere
	return s
}

// goldenAgreeable is a fixed 5-task agreeable instance: releases ascend
// and deadlines never decrease.
func goldenAgreeable() task.Set {
	r := rand.New(rand.NewSource(7))
	s := make(task.Set, 5)
	var rel, dPrev float64
	for i := range s {
		rel += r.Float64() * power.Milliseconds(30)
		d := rel + power.Milliseconds(10+r.Float64()*110)
		if d < dPrev {
			d = dPrev
		}
		dPrev = d
		s[i] = task.Task{ID: i, Release: rel, Deadline: d, Workload: 2e6 + r.Float64()*3e6}
	}
	return s
}

// TestSolverTelemetryGolden pins the sdem.solver.cr.* and
// sdem.solver.agr.* series, the solver trace instants and the exact
// result bits of fixed §4, §7 and agreeable solves. The per-solve
// objective-evaluation counts live here, so a change to the probe
// sequence or to how the solvers tally it fails this test, as does any
// change in a chosen busy length or energy by a single bit. Regenerate
// with -update after an intended change.
func TestSolverTelemetryGolden(t *testing.T) {
	free := power.DefaultSystem()
	free.Core.BreakEven, free.Memory.BreakEven = 0, 0
	overhead := power.DefaultSystem()
	cr, agr := goldenCommonRelease(), goldenAgreeable()
	var out strings.Builder

	tel := telemetry.New()
	sol, err := commonrelease.SolveAlphaZeroTel(cr, free, tel)
	if err != nil {
		t.Fatal(err)
	}
	dumpSolverTelemetry(t, &out, "cr alpha-zero", tel, sol.BusyLen, sol.Energy)

	tel = telemetry.New()
	if sol, err = commonrelease.SolveWithStaticTel(cr, free, tel); err != nil {
		t.Fatal(err)
	}
	dumpSolverTelemetry(t, &out, "cr with-static", tel, sol.BusyLen, sol.Energy)

	tel = telemetry.New()
	if sol, err = commonrelease.SolveWithOverheadTel(cr, overhead, tel); err != nil {
		t.Fatal(err)
	}
	dumpSolverTelemetry(t, &out, "cr overhead", tel, sol.BusyLen, sol.Energy)

	// A retained solver re-planning a shrinking instance, as SDEM-ON does
	// on every arrival.
	tel = telemetry.New()
	var sv commonrelease.Solver
	var ends []float64
	for n := len(cr); n >= 3; n -= 3 {
		e, err := sv.PlanEndsRel(cr[:n], overhead, tel)
		if err != nil {
			t.Fatal(err)
		}
		ends = append(ends, e...)
	}
	dumpSolverTelemetry(t, &out, "cr retained overhead", tel, ends...)

	tel = telemetry.New()
	asol, err := agreeable.SolveAlphaZeroTel(agr, free, tel)
	if err != nil {
		t.Fatal(err)
	}
	dumpSolverTelemetry(t, &out, "agr alpha-zero", tel, asol.Energy)

	tel = telemetry.New()
	if asol, err = agreeable.SolveWithStaticTel(agr, free, tel); err != nil {
		t.Fatal(err)
	}
	dumpSolverTelemetry(t, &out, "agr with-static", tel, asol.Energy)

	tel = telemetry.New()
	if asol, err = agreeable.SolveWithOverheadTel(agr, overhead, tel); err != nil {
		t.Fatal(err)
	}
	var busy []float64
	for _, b := range asol.Blocks {
		busy = append(busy, b.BusyStart, b.BusyEnd, b.Cost)
	}
	dumpSolverTelemetry(t, &out, "agr overhead", tel, append(busy, asol.Energy)...)

	path := filepath.Join("testdata", "solver_telemetry.golden")
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
			t.Fatalf("solver telemetry differs from %s at line %d:\n got: %s", path, i+1, gl[i])
		}
	}
	if len(gl) != len(wl) {
		t.Fatalf("solver telemetry has %d lines, %s has %d", len(gl), path, len(wl))
	}
}
