package commonrelease

import (
	"math"
	"sort"

	"sdem/internal/numeric"
	"sdem/internal/power"
	"sdem/internal/schedule"
	"sdem/internal/task"
	"sdem/internal/telemetry"
)

// SolveWithOverhead solves the §7 common-release problem with
// non-negligible mode-transition overhead (ξ ≠ 0 and/or ξ_m ≠ 0).
//
// Tasks not aligned to the memory busy interval run at the constrained
// critical speed s_c of §7; aligned tasks finish together at busy length L.
// The audited energy E(L) is convex between the structural breakpoints —
// the natural completions c_j (where the aligned set changes) and
// d_max − ξ_m, d_max − ξ (where the memory / aligned-core idle tail
// crosses its break-even time, flipping the sleep decision of
// SleepBreakEven accounting) — so the solver minimizes each smooth piece
// by golden-section search and keeps the best. This subsumes every row of
// the paper's Table 3: the candidates Δ = Δ_mi, Δ = ξ and Δ = 0 are all
// piece boundaries or interior minima of some piece.
func SolveWithOverhead(tasks task.Set, sys power.System) (*Solution, error) {
	return SolveWithOverheadTel(tasks, sys, nil)
}

// overheadHorizon is the §7 maximal interval max_j (d_j − r_j) over the
// absolute task set; the constrained critical speed s_c depends on it.
func overheadHorizon(tasks task.Set) float64 {
	var horizon float64
	for _, t := range tasks {
		horizon = math.Max(horizon, t.Deadline-t.Release)
	}
	return horizon
}

// overheadMode picks the §7 natural-speed rule: a leak-free core never
// benefits from finishing early, so stretching to the filled speed is
// individually optimal; otherwise tasks run at the horizon-constrained
// critical speed s_c.
func overheadMode(sys power.System) naturalMode {
	if numeric.IsZero(sys.Core.Static, 0) {
		return naturalFilled
	}
	return naturalConstrained
}

// SolveWithOverheadTel is SolveWithOverhead with telemetry attached; a
// nil recorder is the uninstrumented path. It counts the golden-section
// objective evaluations and the convex pieces minimized.
func SolveWithOverheadTel(tasks task.Set, sys power.System, tel *telemetry.Recorder) (*Solution, error) {
	in, err := normalize(tasks, sys, overheadMode(sys), overheadHorizon(tasks), tel)
	if err != nil {
		return nil, err
	}
	if len(in.tasks) == 0 {
		return in.empty(), nil
	}
	bestL, caseIdx := in.overheadScan()
	sol := in.solution(bestL, caseIdx)
	in.record("overhead", sol)
	return sol, nil
}

// capFor is the smallest feasible busy length when the aligned set is
// that of busy length L: tasks i..n are aligned and need w/L ≤ s_up.
func (in *instance) capFor(L float64) float64 {
	i := lowerBound(in.c, L) // first c_j ≥ L
	if in.sys.Core.SpeedMax <= 0 {
		return 0
	}
	return in.sufMaxW[i] / in.sys.Core.SpeedMax
}

// lowerBound is sort.SearchFloat64s(c, x) — the first index i with
// c[i] ≥ x, or len(c) — with the predicate inlined: the same bisection
// and the same index for every x (NaN included), without a closure call
// per step. The golden-section objective runs it on every probe.
func lowerBound(c []float64, x float64) int {
	i, j := 0, len(c)
	for i < j {
		h := int(uint(i+j) >> 1)
		if !(c[h] >= x) {
			i = h + 1
		} else {
			j = h
		}
	}
	return i
}

// evalOverhead is the golden-section objective: the audited energy of the
// busy-length-L candidate, +Inf outside the feasible region. It prices
// the candidate in closed form (prepOverheadEval's tables) instead of
// building and auditing a schedule — the audit-based energyOf stays as
// the oracle the overhead tests pin the closed form against. It tallies
// itself in in.evals; overheadScan flushes the tally to telemetry once.
func (in *instance) evalOverhead(L float64) float64 {
	in.evals++
	if L <= 0 {
		return math.Inf(1)
	}
	if L < in.capFor(L)-schedule.Tol {
		return math.Inf(1)
	}
	return in.energyClosed(L)
}

// prepOverheadEval fills the prefix/suffix tables energyClosed reads:
// for the first aligned index i, every non-aligned task contributes a
// fixed dynamic + static + idle-tail cost (prefDyn, prefFix), and the
// aligned suffix contributes through Σ w^λ (sufPow). O(n) once per scan,
// into retained buffers.
func (in *instance) prepOverheadEval() {
	n := len(in.tasks)
	core := in.sys.Core
	if cap(in.sufPow) < n+1 {
		//lint:allow hotalloc: the closed-form table backings grow to the high-water instance size once
		in.sufPow = make([]float64, n+1)
		//lint:allow hotalloc: see above
		in.prefDyn = make([]float64, n+1)
		//lint:allow hotalloc: see above
		in.prefFix = make([]float64, n+1)
	}
	in.sufPow, in.prefDyn, in.prefFix = in.sufPow[:n+1], in.prefDyn[:n+1], in.prefFix[:n+1]
	in.sufPow[n] = 0
	for i := n - 1; i >= 0; i-- {
		in.sufPow[i] = in.sufPow[i+1] + numeric.Pow(in.tasks[i].Workload, core.Lambda)
	}
	in.prefDyn[0], in.prefFix[0] = 0, 0
	for i, t := range in.tasks {
		c := in.c[i]
		in.prefDyn[i+1] = in.prefDyn[i] + core.Beta*numeric.Pow(t.Workload, core.Lambda)*numeric.Pow(c, 1-core.Lambda)
		in.prefFix[i+1] = in.prefFix[i] + core.Static*c +
			schedule.SleepBreakEven.GapEnergy(in.horizon-c, core.Static, core.BreakEven)
	}
}

// energyClosed is the audited energy of the busy-length-L candidate in
// closed form: tasks with natural completion ≥ L−Tol align to [0, L]
// (the same boundary buildInto draws), each non-aligned core runs [0,
// c_j] and idles the tail, and the memory is busy exactly [0, L]. Every
// term prices what the Auditor would charge — same gapCost branches,
// same Tol boundary — so it matches energyOf to float rounding.
func (in *instance) energyClosed(L float64) float64 {
	i := lowerBound(in.c, L-schedule.Tol)
	if i == len(in.c) {
		// No aligned task: outside the scan range [c_1·ε, c_n]; fall back
		// to the audited oracle rather than mis-pricing the memory tail.
		return in.energyOf(L)
	}
	core, mem := in.sys.Core, in.sys.Memory
	k := float64(len(in.tasks) - i)
	tail := in.horizon - L
	return in.prefDyn[i] + in.prefFix[i] +
		core.Beta*in.sufPow[i]*numeric.Pow(L, 1-core.Lambda) +
		k*(core.Static*L+schedule.SleepBreakEven.GapEnergy(tail, core.Static, core.BreakEven)) +
		mem.Static*L + schedule.SleepBreakEven.GapEnergy(tail, mem.Static, mem.BreakEven)
}

// overheadScan runs the piecewise golden-section minimization over busy
// length and returns the winner plus its 1-based case index. All scan
// state lives in the instance's retained buffers, so a reused instance
// scans allocation-free.
//
//sdem:hotpath
func (in *instance) overheadScan() (bestL float64, caseIdx int) {
	n := len(in.tasks)

	// Structural breakpoints in busy length L.
	in.points = in.points[:0]
	//lint:allow hotalloc: appends into the instance's reused breakpoint backing
	in.points = append(in.points, in.c...)
	for _, p := range [2]float64{in.horizon - in.sys.Memory.BreakEven, in.horizon - in.sys.Core.BreakEven} {
		if p > 0 && p < in.c[n-1] {
			//lint:allow hotalloc: appends into the instance's reused breakpoint backing
			in.points = append(in.points, p)
		}
	}
	sort.Float64s(in.points)

	// Suffix maxima of workloads for the speed cap: when L ∈
	// (c_{i−1}, c_i], tasks i..n are aligned and need w/L ≤ s_up.
	if cap(in.sufMaxW) < n+1 {
		//lint:allow hotalloc: the suffix-maxima backing grows to the high-water instance size once
		in.sufMaxW = make([]float64, n+1)
	}
	in.sufMaxW = in.sufMaxW[:n+1]
	in.sufMaxW[n] = 0
	for i := n - 1; i >= 0; i-- {
		in.sufMaxW[i] = math.Max(in.sufMaxW[i+1], in.tasks[i].Workload)
	}

	in.prepOverheadEval()
	if in.evalFn == nil {
		//lint:allow hotalloc: the objective method value is bound once per instance and reused every solve
		in.evalFn = in.evalOverhead
	}

	in.evals = 0
	bestL, bestE := in.c[n-1], in.evalFn(in.c[n-1])
	lo := math.Max(in.capFor(in.c[0]), in.c[0]*relTol)
	prev := lo
	for _, p := range in.points {
		if p <= prev+schedule.Tol {
			continue
		}
		in.tel.Count("sdem.solver.cr.pieces", 1)
		x, e := numeric.MinimizeConvex(in.evalFn, prev, p, numeric.DefaultTol)
		if e < bestE {
			bestL, bestE = x, e
		}
		prev = p
	}

	in.tel.Count("sdem.solver.cr.objective_evals", in.evals)

	// Identify the winning case index for reporting.
	caseIdx = lowerBound(in.c, bestL-schedule.Tol) + 1
	if caseIdx > n {
		caseIdx = n
	}
	return bestL, caseIdx
}
