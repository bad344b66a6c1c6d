package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"time"

	"sdem/internal/core"
	"sdem/internal/encode"
	"sdem/internal/online"
	"sdem/internal/schedule"
	"sdem/internal/serve"
	"sdem/internal/sim"
	"sdem/internal/task"
	"sdem/internal/telemetry"
)

// replayCR and replayAgr are how many offline-solver sets the replay
// draws; agreeable solves cost ~25 ms each, hence the smaller sample.
const (
	replayCR  = 100
	replayAgr = 10
)

// keyReps, auditReps and solveReps repeat the short calls so one timed
// loop spans well above the clock's resolution and a GC cycle does not
// decide one sample; agreeable solves (~25 ms) run once.
const (
	keyReps   = 20
	auditReps = 5
	solveReps = 10
)

// timed returns f's wall time in ms.
func timed(f func()) float64 {
	t0 := time.Now()
	f()
	return float64(time.Since(t0).Nanoseconds()) / 1e6
}

// replayInput is one task set the replay sends through the layers.
type replayInput struct {
	kind kind
	ts   task.Set
}

// replay runs serve-hot's distinct sets through the layers' public
// functions off the clock and fills the per-layer figures they yield:
// the cache key, each solver with and without a telemetry recorder (the
// recorder's counters give the work counts), and the audit of each
// schedule. serve-hot sends no offline-solver traffic, so the replay
// adds replayCR common-release and replayAgr agreeable sets drawn from
// the same seed; they count only towards the commonrelease and agreeable
// figures, which keeps those layers measured.
func (r *serveRun) replay(layers map[string]float64) error {
	sys := sdemdSystem()
	var sample []replayInput
	for _, ts := range r.in.sets {
		sample = append(sample, replayInput{kindSim, ts})
	}
	for i := 0; i < replayCR; i++ {
		sample = append(sample, replayInput{kindCR, solverSet(r.in.seed, kindCR, i)})
	}
	for i := 0; i < replayAgr; i++ {
		sample = append(sample, replayInput{kindAgr, solverSet(r.in.seed, kindAgr, i)})
	}

	var (
		rt                    online.Runtime
		keyUs, auditUs        []float64
		solveMs               [numKinds][]float64
		bare, withTel         float64
		crEvals, agrEvals     int64
		agrCells              int64
		plans, reuse, skipped int64
	)
	for i, in := range sample {
		ts := in.ts
		op, sched := "solve", "auto"
		if in.kind.online() {
			op, sched = "simulate", "sdem-on"
		}
		if in.kind.online() {
			keyUs = append(keyUs, 1e3*timed(func() {
				for j := 0; j < keyReps; j++ {
					encode.CanonicalKey(op, sched, false, ts, sys)
				}
			})/keyReps)
		}

		// Alternate which variant runs first, so neither always meets a
		// warmer cache.
		tel := telemetry.New()
		var s *schedule.Schedule
		var err error
		var t0, t1 float64
		reps := solveReps
		if in.kind == kindAgr {
			reps = 1
		}
		solve := func(rec *telemetry.Recorder, reps int) float64 {
			return timed(func() {
				for j := 0; j < reps && err == nil; j++ {
					if in.kind.online() {
						var out *sim.Result
						if out, err = rt.Schedule(ts, sys, online.Options{Cores: sys.Cores, Telemetry: rec}); err == nil {
							s = out.Schedule
						}
						continue
					}
					var sol *core.Solution
					if sol, err = core.SolveCtx(context.Background(), ts, sys, rec); err == nil {
						s = sol.Schedule
					}
				}
			}) / float64(reps)
		}
		if i%2 == 0 {
			t0, t1 = solve(nil, reps), solve(telemetry.New(), reps)
		} else {
			t1, t0 = solve(telemetry.New(), reps), solve(nil, reps)
		}
		solve(tel, 1) // one more, untimed, for the layer's work counters
		if err != nil {
			return err
		}
		solveMs[in.kind] = append(solveMs[in.kind], t0)
		switch in.kind {
		case kindCR:
			crEvals += tel.CounterValue("sdem.solver.cr.objective_evals", "")
		case kindAgr:
			agrEvals += tel.CounterValue("sdem.solver.agr.objective_evals", "")
			agrCells += tel.CounterValue("sdem.solver.agr.dp_cells", "")
		default:
			plans += tel.CounterValue("sdem.solver.online.plans", "")
			reuse += tel.CounterValue("sdem.solver.online.plan_reuse", "")
			skipped += tel.CounterValue("sdem.solver.online.skipped_solves", "")
		}
		if !in.kind.online() {
			continue
		}
		bare += t0
		withTel += t1
		auditUs = append(auditUs, 1e3*timed(func() {
			for j := 0; j < auditReps; j++ {
				schedule.Audit(s, sys)
			}
		})/auditReps)
	}

	layers["encode.canonical_key_us"] = median(keyUs)
	layers["schedule.audit_us"] = median(auditUs)
	layers["telemetry.solve_overhead_ratio"] = ratio(withTel, bare)
	if n := float64(len(solveMs[kindSim])); n > 0 {
		layers["online.schedule_ms"] = median(solveMs[kindSim])
		layers["online.plans"] = float64(plans) / n
		layers["online.plan_reuse_ratio"] = ratio(float64(reuse), float64(plans))
		layers["online.skipped_solve_ratio"] = ratio(float64(skipped), float64(plans))
	}
	if n := float64(len(solveMs[kindCR])); n > 0 {
		layers["commonrelease.solve_ms"] = median(solveMs[kindCR])
		layers["commonrelease.objective_evals"] = float64(crEvals) / n
	}
	if n := float64(len(solveMs[kindAgr])); n > 0 {
		layers["agreeable.solve_ms"] = median(solveMs[kindAgr])
		layers["agreeable.objective_evals"] = float64(agrEvals) / n
		layers["agreeable.dp_cells"] = float64(agrCells) / n
	}
	return nil
}

// handlerReps is how often the stage-sum check calls the in-process
// handler per hot body.
const handlerReps = 200

// stageSumTolerance is the largest share of the in-process handler time
// the replayed stages may leave unexplained. The remainder is the
// middleware (request ID, trace ring, child recorder, request log,
// metrics merge), admission, and the write into the recorder.
const stageSumTolerance = 0.5

// stageSum compares, on serve-hot, the replayed stage times with the
// in-process handler time (Handler().ServeHTTP, no socket) and returns
// the unexplained remainder as a share of the handler time. Decode and
// encode are replayed from outside; the cache stage, which computes the
// key and looks it up, is only reachable through the handler, so its
// time is the handler's own Server-Timing figure.
func (r *serveRun) stageSum(out *outcome) (float64, error) {
	var handler, decode, cache, enc float64
	for _, k := range []kind{kindSim, kindExplain} {
		for i := 0; i < hotSets; i++ {
			body := r.in.bodies[i]
			var hMs, cMs []float64
			for j := 0; j < handlerReps; j++ {
				req := httptest.NewRequest(http.MethodPost, k.path(), bytes.NewReader(body))
				w := httptest.NewRecorder()
				hMs = append(hMs, timed(func() { r.srv.srv.Handler().ServeHTTP(w, req) }))
				if w.Code != http.StatusOK {
					return 0, fmt.Errorf("in-process %s: status %d", k.path(), w.Code)
				}
				cMs = append(cMs, parseServerTiming(w.Header().Get("Server-Timing")).cache)
			}
			handler += median(hMs)
			cache += median(cMs)

			var dMs, eMs []float64
			var v any = new(serve.TaskResponse)
			if k == kindExplain {
				v = new(serve.ExplainResponse)
			}
			if err := json.Unmarshal(r.refs[k][i], v); err != nil {
				return 0, err
			}
			for j := 0; j < handlerReps; j++ {
				dMs = append(dMs, timed(func() {
					var req serve.TaskRequest
					dec := json.NewDecoder(bytes.NewReader(body))
					dec.DisallowUnknownFields()
					if err := dec.Decode(&req); err != nil {
						panic(err) // the server decoded this body during warm-up
					}
				}))
				eMs = append(eMs, timed(func() {
					if _, err := json.MarshalIndent(v, "", "  "); err != nil {
						panic(err)
					}
				}))
			}
			decode += median(dMs)
			enc += median(eMs)
		}
	}
	rem := handler - (decode + cache + enc)
	share := ratio(rem, handler)
	verdict := "within"
	if share < 0 || share > stageSumTolerance {
		verdict = "OUTSIDE"
		out.probs.add("stage sum: remainder %.1f%% of the handler time, outside the 0..%.0f%% tolerance", 100*share, 100*stageSumTolerance)
	}
	out.printf("stage sum (16 hot bodies, median of %d in-process calls each): handler %.3f ms = decode %.3f + cache %.3f + encode %.3f + remainder %.3f ms (%.1f%%, %s the 0..%.0f%% tolerance)",
		handlerReps, handler, decode, cache, enc, rem, 100*share, verdict, 100*stageSumTolerance)
	return share, nil
}
