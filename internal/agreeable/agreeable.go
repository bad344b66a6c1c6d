// Package agreeable implements the optimal SDEM schemes of §5 of the paper
// for agreeable-deadline task sets (later release ⇒ later-or-equal
// deadline), plus the §7 transition-overhead extension.
//
// Structure (§5.1/§5.2): an optimal schedule partitions the deadline-sorted
// tasks into contiguous blocks (Lemma 4), each block executing inside one
// memory busy interval [s', e']. A dynamic program over prefixes picks the
// partition; a local solver finds each block's optimal busy interval.
//
// Local solver: the paper enumerates (i, j) boundary pairs and runs the
// five-step iterative classification of Algorithm 1. This package exploits
// a strictly stronger observation: once the busy interval [s', e'] is
// fixed, each task independently runs at its window-clamped critical speed
// inside avail_k = min(d_k, e') − max(r_k, s'), and its minimal core
// energy is a convex non-increasing function of avail_k. Since avail_k is
// concave in (s', e'), the total block energy
//
//	E(s', e') = α_m·(e' − s') + Σ_k coreE_k(avail_k)
//
// is jointly convex, so a nested golden-section search over the (s', e')
// box finds the exact optimum that the (i, j)/Algorithm-1 scheme
// converges to. The literal (i, j) enumeration is retained in
// BlockCostPairs as an independent cross-check used by the tests.
package agreeable

import (
	"context"
	"errors"
	"fmt"
	"math"

	"sdem/internal/numeric"
	"sdem/internal/power"
	"sdem/internal/schedule"
	"sdem/internal/task"
	"sdem/internal/telemetry"
)

// relTol is the package's relative speed/feasibility tolerance; it matches
// schedule.Tol (1e-9) by value. The 2-D searches and their convergence
// checks run on the tighter derived scales relTol/100 and relTol/1000.
const relTol = 1e-9

// ErrNotAgreeable is returned when the task set violates the
// agreeable-deadline property.
var ErrNotAgreeable = errors.New("agreeable: task set is not agreeable")

// Block describes one scheduling block of the solution: a contiguous run
// of deadline-ordered tasks sharing a single memory busy interval.
type Block struct {
	// From and To are inclusive indices into the deadline-sorted positive
	// workload task list.
	From, To int
	// BusyStart and BusyEnd delimit the block's memory busy interval.
	BusyStart, BusyEnd float64
	// Cost is the block-local objective value used by the DP.
	Cost float64
}

// Solution is an optimal agreeable-deadline schedule.
type Solution struct {
	// Schedule is the constructed schedule over [min release, max
	// deadline].
	Schedule *schedule.Schedule
	// Blocks is the optimal block partition in time order.
	Blocks []Block
	// Energy is the audited system-wide energy of Schedule.
	Energy float64
}

// mode selects the core model of the block-local objective.
type mode int

const (
	modeAlphaZero mode = iota // §5.1: α = 0
	modeStatic                // §5.2: α ≠ 0, free transitions
	modeOverhead              // §7: α ≠ 0 with break-even times
)

// solver carries the normalized instance.
type solver struct {
	sys   power.System
	tasks []task.Task // deadline-sorted, positive workloads
	zeros task.Set
	start float64 // min release
	end   float64 // max deadline
	mode  mode
	// stretched[k] is true in overhead mode when task k's core cannot
	// profitably sleep (its idle tail would be shorter than ξ), so it
	// stretches to fill its available window (constrained critical speed
	// semantics of §7).
	stretched []bool
	// sm is the core's unconstrained critical speed CriticalSpeedRaw(),
	// one fractional power per solve instead of one per probed task.
	sm float64
	// evals tallies blockEnergy probes; blockSolve flushes it to
	// telemetry once per block instead of once per probe.
	evals int64
	tel   *telemetry.Recorder
	// ctx, when non-nil, is polled at DP row boundaries so a caller's
	// deadline budget can abandon an expensive solve cooperatively.
	ctx context.Context
}

func newSolver(tasks task.Set, sys power.System, m mode) (*solver, error) {
	if err := tasks.Validate(); err != nil {
		return nil, err
	}
	if err := sys.Validate(); err != nil {
		return nil, err
	}
	if !tasks.IsAgreeable() {
		return nil, ErrNotAgreeable
	}
	if !tasks.Feasible(sys.Core.SpeedMax) {
		return nil, fmt.Errorf("agreeable: some task exceeds s_up even at filled speed")
	}
	s := &solver{sys: sys, mode: m}
	if m == modeAlphaZero {
		s.sys.Core.Static = 0
	}
	if m != modeOverhead {
		s.sys.Core.BreakEven = 0
		s.sys.Memory.BreakEven = 0
	}
	s.sm = s.sys.Core.CriticalSpeedRaw()
	if len(tasks) == 0 {
		return s, nil
	}
	sorted := tasks.Clone()
	sorted.SortByDeadline()
	s.start, s.end = sorted.Span()
	for _, t := range sorted {
		if numeric.IsZero(t.Workload, 0) {
			s.zeros = append(s.zeros, t)
			continue
		}
		s.tasks = append(s.tasks, t)
	}
	if m == modeOverhead {
		horizon := s.end - s.start
		s.stretched = make([]bool, len(s.tasks))
		for k, t := range s.tasks {
			sc := s.sys.Core.ConstrainedCriticalSpeedAt(s.sm, t.FilledSpeed(), t.Workload, horizon)
			s0 := s.sys.Core.ClampSpeed(s.sm, t.FilledSpeed())
			// ConstrainedCriticalSpeed returns the filled speed when the
			// idle tail left by racing is below the core break-even.
			s.stretched[k] = sc < s0-(relTol/1000)*s0
		}
	}
	return s, nil
}

// coreEnergy returns the minimal core energy of task k given an available
// execution window of length avail, together with the chosen speed. It is
// +Inf when avail cannot accommodate the task even at s_up.
func (s *solver) coreEnergy(k int, avail float64) (float64, float64) {
	t := s.tasks[k]
	w := t.Workload
	if avail <= 0 {
		return math.Inf(1), 0
	}
	filled := w / avail
	if s.sys.Core.SpeedMax > 0 {
		if filled > s.sys.Core.SpeedMax*(1+relTol) {
			return math.Inf(1), 0
		}
		// Clamp boundary noise so an optimum sitting exactly on the cap
		// evaluates to a finite, validator-clean speed.
		if filled > s.sys.Core.SpeedMax {
			filled = s.sys.Core.SpeedMax
		}
	}
	core := s.sys.Core
	var speed float64
	switch {
	case s.mode == modeAlphaZero:
		speed = filled
	case s.mode == modeOverhead && s.stretched[k]:
		// The core cannot sleep: its static power is sunk, so only the
		// dynamic term matters and stretching is optimal.
		speed = filled
	default:
		speed = core.ClampSpeed(s.sm, filled)
	}
	exec := w / speed
	e := core.Dynamic(speed) * exec
	if s.mode != modeAlphaZero && !(s.mode == modeOverhead && s.stretched[k]) {
		e += core.Static * exec
	}
	return e, speed
}

// blockEnergy evaluates the block-local objective for tasks [from..to]
// with busy interval [bs, be]. It is the innermost kernel of the O(n²)
// block DP: every 2-D golden-section probe lands here.
//
//sdem:hotpath
func (s *solver) blockEnergy(from, to int, bs, be float64) float64 {
	s.evals++
	if be <= bs {
		return math.Inf(1)
	}
	e := s.sys.Memory.Static * (be - bs)
	for k := from; k <= to; k++ {
		t := s.tasks[k]
		avail := math.Min(t.Deadline, be) - math.Max(t.Release, bs)
		ce, _ := s.coreEnergy(k, avail)
		if math.IsInf(ce, 1) {
			return math.Inf(1)
		}
		e += ce
	}
	return e
}

// blockSolve finds the optimal busy interval for tasks [from..to] by 2-D
// convex minimization over (s', e'). The DP memoizes it per (from, to),
// but that is still O(n²) solves per scheme.
//
//sdem:hotpath
func (s *solver) blockSolve(from, to int) Block {
	s.tel.Count("sdem.solver.agr.block_solves", 1)
	first, last := s.tasks[from], s.tasks[to]
	box := numeric.Box{
		X0: first.Release, X1: first.Deadline,
		Y0: last.Release, Y1: last.Deadline,
	}
	//lint:allow hotalloc: the objective closure allocates once per block solve and is amortized over its ~3.2k 2-D probes
	bs, be, cost := numeric.MinimizeConvex2D(func(x, y float64) float64 {
		return s.blockEnergy(from, to, x, y)
	}, box, relTol/1000)
	s.tel.Count("sdem.solver.agr.objective_evals", s.evals)
	s.evals = 0
	return Block{From: from, To: to, BusyStart: bs, BusyEnd: be, Cost: cost}
}

// dp runs the prefix dynamic program of §5.1.2/§5.2.2 and returns the
// optimal block partition. blockExtra is added per block (α_m·ξ_m in the
// §7 DP).
func (s *solver) dp(blockExtra float64) []Block {
	n := len(s.tasks)
	if n == 0 {
		return nil
	}
	// Memoized block costs.
	blocks := make([][]Block, n)
	for i := range blocks {
		blocks[i] = make([]Block, n)
		for j := range blocks[i] {
			blocks[i][j].Cost = math.NaN()
		}
	}
	get := func(i, j int) Block {
		if math.IsNaN(blocks[i][j].Cost) {
			blocks[i][j] = s.blockSolve(i, j)
		}
		return blocks[i][j]
	}
	opt := make([]float64, n+1)
	choice := make([]int, n+1)
	for q := 1; q <= n; q++ {
		// Cooperative cancellation checkpoint: one poll per DP row keeps
		// the overhead off the O(n²) cell loop while bounding the work
		// after cancellation to a single row of cheap memo lookups.
		if s.ctx != nil && s.ctx.Err() != nil {
			return nil // solve surfaces the context error
		}
		opt[q] = math.Inf(1)
		for p := 0; p < q; p++ {
			s.tel.Count("sdem.solver.agr.dp_cells", 1)
			if c := opt[p] + get(p, q-1).Cost + blockExtra; c < opt[q] {
				opt[q] = c
				choice[q] = p
			}
		}
	}
	var out []Block
	for q := n; q > 0; q = choice[q] {
		out = append(out, get(choice[q], q-1))
	}
	// Reverse into time order.
	for i, j := 0, len(out)-1; i < j; i, j = i+1, j-1 {
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// buildSchedule lays out the blocks: within a block each task starts at
// the beginning of its available window and runs at its chosen speed.
func (s *solver) buildSchedule(blocks []Block) *schedule.Schedule {
	sched := schedule.New(len(s.tasks), s.start, s.end)
	for _, b := range blocks {
		for k := b.From; k <= b.To; k++ {
			t := s.tasks[k]
			begin := math.Max(t.Release, b.BusyStart)
			avail := math.Min(t.Deadline, b.BusyEnd) - begin
			_, speed := s.coreEnergy(k, avail)
			if speed <= 0 {
				speed = t.Workload / avail
			}
			sched.Add(k, schedule.Segment{
				TaskID: t.ID,
				Start:  begin,
				End:    begin + t.Workload/speed,
				Speed:  speed,
			})
		}
	}
	sched.Normalize()
	return sched
}

func (s *solver) solve(scheme string, blockExtra float64) (*Solution, error) {
	blocks := s.dp(blockExtra)
	if s.ctx != nil {
		if err := s.ctx.Err(); err != nil {
			return nil, fmt.Errorf("agreeable: solve cancelled: %w", err)
		}
	}
	sched := s.buildSchedule(blocks)
	energy := schedule.Audit(sched, s.sys).Total()
	if s.mode == modeOverhead {
		// The DP's block objective values memory compression as if the
		// freed time always slept, but gaps below ξ_m save nothing
		// (Table 3's Δ = 0 row). Audit the no-compression alternative —
		// every task at its constrained natural speed from its window
		// start — and keep the cheaper schedule. Blocks still report the
		// DP's partition.
		if fb := s.buildNaturalFallback(); fb != nil {
			if e := schedule.Audit(fb, s.sys).Total(); e < energy {
				sched, energy = fb, e
				s.tel.Count("sdem.solver.agr.fallback_used", 1)
			}
		}
	}
	if s.tel != nil {
		s.tel.CountL("sdem.solver.agr.solves", "scheme="+scheme, 1)
		s.tel.Count("sdem.solver.agr.blocks", int64(len(blocks)))
		s.tel.Instant("agr solve "+scheme, "solver", s.start, 0,
			telemetry.Int("blocks", int64(len(blocks))),
			telemetry.Int("tasks", int64(len(s.tasks))),
			telemetry.Num("energy_j", energy))
	}
	return &Solution{
		Schedule: sched,
		Blocks:   blocks,
		Energy:   energy,
	}, nil
}

// buildNaturalFallback places every task at its window start running at
// the speed coreEnergy would choose for the full window (the constrained
// critical speed in overhead mode).
func (s *solver) buildNaturalFallback() *schedule.Schedule {
	sched := schedule.New(len(s.tasks), s.start, s.end)
	for k, t := range s.tasks {
		_, speed := s.coreEnergy(k, t.Window())
		if speed <= 0 {
			return nil
		}
		sched.Add(k, schedule.Segment{
			TaskID: t.ID,
			Start:  t.Release,
			End:    t.Release + t.Workload/speed,
			Speed:  speed,
		})
	}
	sched.Normalize()
	return sched
}

// SolveAlphaZero solves §5.1: agreeable deadlines, negligible core static
// power, free transitions. The returned schedule is optimal.
func SolveAlphaZero(tasks task.Set, sys power.System) (*Solution, error) {
	return SolveAlphaZeroTel(tasks, sys, nil)
}

// SolveAlphaZeroTel is SolveAlphaZero with telemetry attached; a nil
// recorder is the uninstrumented path.
func SolveAlphaZeroTel(tasks task.Set, sys power.System, tel *telemetry.Recorder) (*Solution, error) {
	s, err := newSolver(tasks, sys, modeAlphaZero)
	if err != nil {
		return nil, err
	}
	s.tel = tel
	return s.solve("alpha_zero", 0)
}

// SolveWithStatic solves §5.2: agreeable deadlines, non-negligible core
// static power, free transitions. The returned schedule is optimal.
func SolveWithStatic(tasks task.Set, sys power.System) (*Solution, error) {
	return SolveWithStaticTel(tasks, sys, nil)
}

// SolveWithStaticTel is SolveWithStatic with telemetry attached; a nil
// recorder is the uninstrumented path.
func SolveWithStaticTel(tasks task.Set, sys power.System, tel *telemetry.Recorder) (*Solution, error) {
	s, err := newSolver(tasks, sys, modeStatic)
	if err != nil {
		return nil, err
	}
	s.tel = tel
	return s.solve("static", 0)
}

// SolveWithOverhead solves the §7 agreeable-deadline problem with mode
// transition overhead: the block-local solver keeps the §5 structure with
// constrained critical speeds, and the DP charges one memory transition
// α_m·ξ_m per block.
func SolveWithOverhead(tasks task.Set, sys power.System) (*Solution, error) {
	return SolveWithOverheadTel(tasks, sys, nil)
}

// SolveWithOverheadTel is SolveWithOverhead with telemetry attached; a
// nil recorder is the uninstrumented path.
func SolveWithOverheadTel(tasks task.Set, sys power.System, tel *telemetry.Recorder) (*Solution, error) {
	s, err := newSolver(tasks, sys, modeOverhead)
	if err != nil {
		return nil, err
	}
	s.tel = tel
	return s.solve("overhead", sys.Memory.TransitionEnergy())
}

// Solve dispatches to the appropriate §5/§7 scheme based on the system
// model, mirroring Table 1.
func Solve(tasks task.Set, sys power.System) (*Solution, error) {
	return SolveTel(tasks, sys, nil)
}

// SolveTel is Solve with telemetry attached; a nil recorder is the
// uninstrumented path.
func SolveTel(tasks task.Set, sys power.System, tel *telemetry.Recorder) (*Solution, error) {
	return SolveCtx(nil, tasks, sys, tel)
}

// SolveCtx is SolveTel with a cooperative-cancellation context: the DP
// polls ctx at row boundaries and abandons the solve with ctx's error
// once it is done. A nil ctx never cancels — SolveTel delegates here
// with one.
func SolveCtx(ctx context.Context, tasks task.Set, sys power.System, tel *telemetry.Recorder) (*Solution, error) {
	var (
		m      mode
		scheme string
		extra  float64
	)
	switch {
	case sys.Core.BreakEven > 0 || sys.Memory.BreakEven > 0:
		m, scheme, extra = modeOverhead, "overhead", sys.Memory.TransitionEnergy()
	case sys.Core.Static > 0:
		m, scheme = modeStatic, "static"
	default:
		m, scheme = modeAlphaZero, "alpha_zero"
	}
	s, err := newSolver(tasks, sys, m)
	if err != nil {
		return nil, err
	}
	s.tel = tel
	s.ctx = ctx
	return s.solve(scheme, extra)
}

// TaskType is the §5.2 classification of Table 2.
type TaskType int

const (
	// TypeI tasks execute at their critical speed s₀, strictly inside
	// the busy interval.
	TypeI TaskType = iota
	// TypeII tasks are aligned with the busy interval and execute within
	// [s₀, s₁].
	TypeII
)

// Classification reports the Table 2 structure of a single-block optimum.
type Classification struct {
	// Types[k] classifies the k-th deadline-sorted positive-workload
	// task.
	Types []TaskType
	// Speeds[k] is its execution speed.
	Speeds []float64
	// BusyStart and BusyEnd delimit the block's busy interval.
	BusyStart, BusyEnd float64
}

// ClassifyBlock solves the single-block §5.2 problem for the whole task
// set and classifies every task per Table 2: Type-I tasks run at s₀
// inside the interval, Type-II tasks align with it at speeds within
// [s₀, s₁]. It exists to make the paper's structural claim checkable.
func ClassifyBlock(tasks task.Set, sys power.System) (*Classification, error) {
	s, err := newSolver(tasks, sys, modeStatic)
	if err != nil {
		return nil, err
	}
	if len(s.tasks) == 0 {
		return &Classification{}, nil
	}
	blk := s.blockSolve(0, len(s.tasks)-1)
	out := &Classification{
		Types:     make([]TaskType, len(s.tasks)),
		Speeds:    make([]float64, len(s.tasks)),
		BusyStart: blk.BusyStart,
		BusyEnd:   blk.BusyEnd,
	}
	for k, t := range s.tasks {
		avail := math.Min(t.Deadline, blk.BusyEnd) - math.Max(t.Release, blk.BusyStart)
		_, speed := s.coreEnergy(k, avail)
		out.Speeds[k] = speed
		exec := t.Workload / speed
		if exec < avail*(1-relTol) {
			out.Types[k] = TypeI // shorter than its aligned span: runs at s₀
		} else {
			out.Types[k] = TypeII
		}
	}
	return out, nil
}
