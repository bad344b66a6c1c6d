// Telemetry instrumentation of a recording run: per-component energy
// attribution, sleep/wake accounting, and trace emission of the as-run
// schedule on virtual time.
package sim

import (
	"strconv"

	"sdem/internal/schedule"
	"sdem/internal/telemetry"
)

// EnergyBreakdown is the public per-component energy attribution of a
// run: the four ledgers the paper's trade-off argument is made of.
// Components always sum to the audited total (asserted in tests within
// numeric tolerance).
type EnergyBreakdown struct {
	// Dynamic is the speed-dependent core execution energy (Σ β·s^λ·t).
	Dynamic float64
	// CoreStatic is core leakage over execution and unslept idle.
	CoreStatic float64
	// MemoryStatic is memory leakage over busy and unslept idle time.
	MemoryStatic float64
	// Transition aggregates all mode-change overheads: core and memory
	// sleep transitions plus DVS switch energy.
	Transition float64
}

// Total returns the sum of the components.
func (e EnergyBreakdown) Total() float64 {
	return e.Dynamic + e.CoreStatic + e.MemoryStatic + e.Transition
}

// ComponentBreakdown folds the audit's itemized ledger into the
// four-way public attribution.
func ComponentBreakdown(b schedule.Breakdown) EnergyBreakdown {
	return EnergyBreakdown{
		Dynamic:      b.CoreDynamic,
		CoreStatic:   b.CoreStatic,
		MemoryStatic: b.MemoryStatic,
		Transition:   b.CoreTransition + b.MemoryTransition + b.CoreSwitch,
	}
}

// EnergyBreakdown returns the run's per-component energy attribution
// under the schedule's audited sleep policies.
func (r *Result) EnergyBreakdown() EnergyBreakdown {
	return ComponentBreakdown(r.Breakdown)
}

// label joins the executor's scheduler label with an extra "k=v" pair,
// keeping keys in alphabetical order (component < sched).
func (e *Executor) label(extra string) string {
	if e.telLabel == "" {
		return extra
	}
	if extra == "" {
		return e.telLabel
	}
	return extra + "," + e.telLabel
}

// recordFinish charges the audited run into the recorder and emits the
// as-run schedule as a trace. Called from Result only when telemetry is
// attached, so the disabled path pays nothing beyond one nil check.
func (e *Executor) recordFinish(b schedule.Breakdown, misses []int, m Metrics) {
	tel, l := e.tel, e.telLabel

	// Per-component energy attribution (satellite of the audit ledger).
	c := ComponentBreakdown(b)
	tel.AddL("sdem.sim.energy_j", e.label("component=dynamic"), c.Dynamic)
	tel.AddL("sdem.sim.energy_j", e.label("component=core_static"), c.CoreStatic)
	tel.AddL("sdem.sim.energy_j", e.label("component=memory_static"), c.MemoryStatic)
	tel.AddL("sdem.sim.energy_j", e.label("component=transition"), c.Transition)

	// Sleep/wake and switching event counts, straight from the audit.
	tel.CountL("sdem.sim.core_sleeps", l, int64(b.CoreSleeps))
	tel.CountL("sdem.sim.memory_sleeps", l, int64(b.MemorySleeps))
	tel.CountL("sdem.sim.speed_switches", l, int64(b.SpeedSwitches))
	tel.AddL("sdem.sim.memory_sleep_s", l, b.MemorySleep)
	tel.CountL("sdem.sim.misses", l, int64(len(misses)))
	tel.CountL("sdem.sim.runs", l, 1)
	if m.Completed > 0 {
		tel.ObserveL("sdem.sim.response_s", l, m.MeanResponse)
	}

	e.emitTrace(misses)
}

// emitTrace renders the normalized schedule as trace spans on virtual
// time. Lane convention: tid 0 is the memory, tid k+1 is core k. Idle
// gaps are classified exactly as the audit charges them (sleep vs.
// idle-active) via the schedule's policies.
func (e *Executor) emitTrace(misses []int) {
	s := e.sched
	for c, segs := range s.Cores {
		tid := c + 1
		for _, sg := range segs {
			e.tel.Span("task "+strconv.Itoa(sg.TaskID), "sim", sg.Start, sg.End, tid,
				telemetry.Int("task", int64(sg.TaskID)),
				telemetry.Num("speed", sg.Speed))
		}
		if len(segs) == 0 {
			continue
		}
		for _, g := range schedule.Gaps(schedule.BusyIntervals(segs), s.Start, s.End) {
			name := "core idle"
			if s.CorePolicy.Sleeps(g.Len(), e.sys.Core.Static, e.sys.Core.BreakEven) {
				name = "core sleep"
			}
			e.tel.Span(name, "sim", g.Start, g.End, tid)
		}
	}
	busy := s.MemoryBusy()
	for _, iv := range busy {
		e.tel.Span("memory active", "sim", iv.Start, iv.End, 0)
	}
	for _, g := range schedule.Gaps(busy, s.Start, s.End) {
		name := "memory idle"
		if s.MemoryPolicy.Sleeps(g.Len(), e.sys.Memory.Static, e.sys.Memory.BreakEven) {
			name = "memory sleep"
		}
		e.tel.Span(name, "sim", g.Start, g.End, 0)
	}
	for _, id := range misses {
		j := e.jobs[id]
		tid := 0
		if j.Core >= 0 {
			tid = j.Core + 1
		}
		// A late completion is stamped when it happened; a job that never
		// finished, at its deadline.
		at := j.Task.Deadline
		if j.Done {
			at = j.Completed
		}
		e.tel.Instant("deadline miss", "sim", at, tid, telemetry.Int("task", int64(id)))
	}
}
