package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"sdem/internal/faults"
	"sdem/internal/online"
	"sdem/internal/power"
	"sdem/internal/sim"
	"sdem/internal/stats"
	"sdem/internal/telemetry"
	"sdem/internal/workload"
)

// A stream-soak operation is one online.ScheduleStream soak of
// soakArrivals sporadic arrivals (§8.1.2 distribution, 50 ms maximum
// inter-arrival, 8 cores) perturbed by faults.NewStreamer at intensity
// 0.6, the soak-smoke setting. Operation i draws its arrivals and
// faults from seeds derived from (--seed, i).
const (
	soakArrivals  = 10000
	soakIntensity = 0.6
)

// soakDigestOps is how many leading operations the printed energy digest
// covers: every run of a seed reaches them, so runs can be compared.
const soakDigestOps = 100

// soakWarmOps is how many warm-up soaks one set-up runs, and
// soakSetups how many set-ups a run makes (about 0.3 s each); setup_s is
// their median.
const (
	soakWarmOps = 4
	soakSetups  = 5
)

// soakRecheck is how many operations are re-run off the clock to check
// that the metered energy repeats bit for bit; soakRecheckEvery adds
// every n-th operation beyond them.
const (
	soakRecheck      = 8
	soakRecheckEvery = 50
)

// soakOp runs operation op of the seeded soak; dom separates the
// set-up warm-ups from the measured operations.
func soakOp(seed int64, dom uint64, op int, tel *telemetry.Recorder) (*sim.StreamSummary, error) {
	src, err := workload.SporadicStream(workload.SyntheticConfig{MaxInterArrival: power.Milliseconds(50)},
		stats.DeriveSeed(seed, domSoak, dom, uint64(op)), 0)
	if err != nil {
		return nil, err
	}
	sys := sdemdSystem()
	return online.ScheduleStream(src, sys, online.StreamOptions{
		Cores:     sys.Cores,
		MaxJobs:   soakArrivals,
		Faults:    faults.NewStreamer(faults.Config{Intensity: soakIntensity}, stats.DeriveSeed(seed, domFault, dom, uint64(op))),
		Telemetry: tel,
	})
}

// soakRec is one measured soak operation. It keeps only the summary
// figures the run reports, so the benchmark's own memory stays small
// next to the engine's.
type soakRec struct {
	op                               int
	ms                               float64
	admitted, unexplained, explained int64
	maxActive                        int
	energy                           float64
	failed                           bool
}

// soakPhase runs operations from first on for dur and returns them
// with the phase's wall time. With traced set, each operation records
// into a telemetry recorder whose counters it returns in plans.
func soakPhase(seed int64, first int, dur time.Duration, traced bool) (recs []soakRec, elapsed time.Duration, plans int64) {
	start := time.Now()
	for op := first; time.Since(start) < dur; op++ {
		var tel *telemetry.Recorder
		if traced {
			tel = telemetry.New()
		}
		t0 := time.Now()
		sum, err := soakOp(seed, 0, op, tel)
		rec := soakRec{op: op, ms: float64(time.Since(t0).Nanoseconds()) / 1e6}
		if err == nil {
			rec.admitted, rec.unexplained, rec.explained = sum.Admitted, sum.UnexplainedMisses(), sum.ExplainedMisses
			rec.maxActive, rec.energy = sum.MaxActive, sum.Energy
		}
		rec.failed = err != nil || rec.admitted != soakArrivals || rec.unexplained != 0
		recs = append(recs, rec)
		plans += tel.CounterValue("sdem.solver.online.plans", "")
	}
	return recs, time.Since(start), plans
}

// soakLatencyBlock is how many consecutive operations one p90 sample
// covers; as on serve-hot, the median over blocks keeps a host stall
// episode inside one block from deciding the figure.
const soakLatencyBlock = 100

// tracedSlices is how many alternating untraced and traced slices the
// traced run cuts its soaking into, so both see the same drift of the
// host.
const tracedSlices = 4

// rateBlock is how many consecutive operations one throughput sample
// covers (about a second of soaking).
const rateBlock = 16

// blockedArrivals is the median over whole blocks of rateBlock
// consecutive operations of the arrivals they admitted per second of
// their own wall time.
func blockedArrivals(recs []soakRec) float64 {
	var rates []float64
	for b := 0; b+rateBlock <= len(recs); b += rateBlock {
		var n, ms float64
		for _, r := range recs[b : b+rateBlock] {
			n += float64(r.admitted)
			ms += r.ms
		}
		rates = append(rates, n/(ms/1e3))
	}
	return median(rates)
}

func arrivalsPerSecond(recs []soakRec, elapsed time.Duration) float64 {
	var n int64
	for _, r := range recs {
		n += r.admitted
	}
	return float64(n) / elapsed.Seconds()
}

// runSoak runs stream-soak. Set-up is soakWarmOps warm-up soaks of
// their own seed domain. The untraced run times operations back to back for the whole
// run; the traced run alternates untraced slices, bracketed by the
// allocator and GC statistics, with slices that give every operation a
// telemetry recorder for the engine's plan counter.
func runSoak(o options) (*outcome, error) {
	warm := 0
	_, setupS, err := medianSetup(soakSetups, func() (*sim.StreamSummary, error) {
		var sum *sim.StreamSummary
		var err error
		for i := 0; i < soakWarmOps && err == nil; i++ {
			warm++
			sum, err = soakOp(o.seed, domWarm, warm, nil)
		}
		return sum, err
	}, func(*sim.StreamSummary) error { return nil })
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	secs := time.Duration(o.seconds) * time.Second
	out := &outcome{}
	layers := map[string]float64{}

	var recs []soakRec
	if !o.traced {
		recs, _, _ = soakPhase(o.seed, 0, secs, false)
	} else {
		// Alternating untraced and traced slices: the untraced ones give
		// the allocator and GC figures and the plain arrival rate, the
		// traced ones the plan counter and the traced arrival rate.
		var untraced, traced []soakRec
		var uElapsed, tElapsed time.Duration
		var mallocs, pauseNs uint64
		var plans int64
		for i := 0; i < tracedSlices; i++ {
			first, dur := i<<24, secs/tracedSlices
			if i%2 == 1 {
				recs, el, p := soakPhase(o.seed, first, dur, true)
				traced, tElapsed, plans = append(traced, recs...), tElapsed+el, plans+p
				continue
			}
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			recs, el, _ := soakPhase(o.seed, first, dur, false)
			runtime.ReadMemStats(&m1)
			untraced, uElapsed = append(untraced, recs...), uElapsed+el
			mallocs += m1.Mallocs - m0.Mallocs
			pauseNs += m1.PauseTotalNs - m0.PauseTotalNs
		}
		var ums []float64
		for _, r := range untraced {
			ums = append(ums, r.ms)
		}
		layers["bench.latency_p90_ms"], _ = blockQuantile(ums, soakLatencyBlock, 0.9)
		layers["bench.latency_p99_ms"] = quantile(ums, 0.99)
		recs = append(untraced, traced...)
		var explained, maxActive float64
		for _, r := range recs {
			maxActive = math.Max(maxActive, float64(r.maxActive))
			explained += float64(r.explained)
		}
		layers["sim.stream.allocs_per_arrival"] = float64(mallocs) / float64(len(untraced)*soakArrivals)
		layers["sim.stream.gc_pause_ms"] = float64(pauseNs) / 1e6 / float64(len(untraced))
		layers["sim.stream.max_active"] = maxActive
		layers["faults.stream.explained_misses"] = explained / float64(len(recs))
		layers["online.stream.plans_per_arrival"] = float64(plans) / float64(len(traced)*soakArrivals)
		layers["bench.trace_overhead_ratio"] = ratio(arrivalsPerSecond(untraced, uElapsed), arrivalsPerSecond(traced, tElapsed))
	}
	rss, err := peakRSSMiB()
	if err != nil {
		return nil, err
	}

	// Off the clock: every operation admitted all its arrivals with no
	// unexplained miss (checked above), and re-running a sample of them
	// on a fresh engine meters bit-identical energy.
	failed := 0
	for i, r := range recs {
		if r.failed {
			failed++
			out.probs.add("soak op %d: admitted %d of %d, unexplained misses %d", r.op, r.admitted, soakArrivals, r.unexplained)
			continue
		}
		if i >= soakRecheck && i%soakRecheckEvery != 0 {
			continue
		}
		again, err := soakOp(o.seed, 0, r.op, nil)
		if err != nil {
			failed++
			out.probs.add("soak op %d: re-run failed: %v", r.op, err)
		} else if math.Float64bits(again.Energy) != math.Float64bits(r.energy) {
			failed++
			out.probs.add("soak op %d: energy %v on re-run, %v measured", r.op, again.Energy, r.energy)
		}
	}
	var ms []float64
	var digest uint64
	digestOps := 0
	for _, r := range recs {
		ms = append(ms, r.ms)
		if r.op < soakDigestOps {
			digest = digest*1099511628211 ^ math.Float64bits(r.energy)
			digestOps++
		}
	}
	out.attempted = len(recs)
	out.failed = failed
	out.printf("%-16s %-6s %-10s %9s %9s %7s", "phase", "loop", "load", "attempted", "succeeded", "failed")
	out.printf("%-16s %-6s %-10s %9d %9d %7d", "soak", "closed", "1 thread", len(recs), len(recs)-failed, failed)
	p90, blocks := blockQuantile(ms, soakLatencyBlock, 0.9)
	p99 := quantile(ms, 0.99)
	out.printf("operation = one soak of %d arrivals; %d latency samples; p90 %.3f ms (median over %d blocks of %d operations); p99 %.3f ms (%d beyond)",
		soakArrivals, len(ms), p90, blocks, soakLatencyBlock, p99, tailCount(len(ms), 0.99))
	out.printf("energy digest of operations 0-%d: %016x (repeats for a repeated seed)", digestOps-1, digest)

	if o.traced {
		out.emit(perLayer, layers)
		return out, nil
	}
	out.emit(endToEnd, map[string]float64{
		"setup_s":          setupS,
		"throughput_per_s": blockedArrivals(recs),
		"latency_p50_ms":   quantile(ms, 0.5),
		"peak_rss_mb":      rss,
	})
	return out, nil
}
