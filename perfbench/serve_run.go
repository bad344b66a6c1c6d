package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// hotOpenRate is serve-hot's frozen open-loop offered rate in requests
// per second: about half the slowest closed-loop throughput measured on
// a 2-vCPU x86-64 VM when the benchmark was defined (3,000-7,800 req/s
// across runs), so the open loop stays out of saturation on a slow host.
const hotOpenRate = 1500

// runServe runs serve-hot. Both runs measure an open-loop phase
// (latency) and then a closed-loop phase (throughput), each half the
// run. The traced run reads every response's Server-Timing stages,
// brackets the phases with /metrics scrapes, and replays the inputs
// through the layers off the clock.
func runServe(o options) (*outcome, error) {
	r, setupS, err := medianSetup(serveSetups, func() (*serveRun, error) { return setupServe(o.seed) }, (*serveRun).close)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer r.close()
	secs := time.Duration(o.seconds) * time.Second
	out := &outcome{}

	var phases []phaseResult
	var before, after map[string]float64
	var rss float64
	if !o.traced {
		phases = []phaseResult{r.runPhase(phaseSpec{name: "open", open: true, rate: hotOpenRate, dur: secs / 2})}
		// The peak is read before the closed loop: the open loop sends a
		// fixed number of requests, so the benchmark's own records weigh
		// the same on every run, whatever the throughput.
		if rss, err = peakRSSMiB(); err != nil {
			return nil, err
		}
		phases = append(phases, r.runPhase(phaseSpec{name: "closed", dur: secs / 2, first: 1 << 24}))
	} else {
		if before, err = r.cacheCounts(); err != nil {
			return nil, err
		}
		phases = []phaseResult{
			r.runPhase(phaseSpec{name: "open", open: true, rate: hotOpenRate, dur: secs / 2, traced: true}),
			r.runPhase(phaseSpec{name: "closed", dur: secs / 2, traced: true, first: 1 << 24}),
		}
		if after, err = r.cacheCounts(); err != nil {
			return nil, err
		}
	}
	r.check(phases, &out.probs)

	out.printf("%-16s %-6s %-10s %9s %9s %7s %6s %6s", "phase", "loop", "load", "attempted", "succeeded", "failed", "shed", "wrong")
	for _, ph := range phases {
		t := tallyOf(ph.recs)
		loop, load := "closed", fmt.Sprintf("%d conns", clients)
		if ph.spec.open {
			loop, load = "open", fmt.Sprintf("%g/s", ph.spec.rate)
		}
		out.printf("%-16s %-6s %-10s %9d %9d %7d %6d %6d", ph.spec.name, loop, load, t.attempted, t.ok, t.failed, t.shed, t.wrong)
		out.attempted += t.attempted
		out.failed += t.failed + t.shed + t.wrong
	}
	out.printf("error rate (failed + shed + wrong) / attempted: %.4g", ratio(float64(out.failed), float64(out.attempted)))

	open, closed := phases[0], phases[1]
	lat := openLatencies(open.recs, false)
	p90, blocks := blockedQuantile(open, 0.9, false)
	p99, _ := blockedQuantile(open, 0.99, false)
	dueP50 := quantile(openLatencies(open.recs, true), 0.5)
	dueP90, _ := blockedQuantile(open, 0.9, true)
	var lag []float64
	for i := range open.recs {
		lag = append(lag, open.recs[i].lagMs())
	}
	lagP99 := quantile(lag, 0.99)
	lagMax := quantile(lag, 1)
	out.printf("open loop: %d requests in %d blocks of %d; from send: p50 %.3f ms, per-block median p90 %.3f ms, p99 %.3f ms (%d beyond each block's p99); from due: p50 %.3f ms, p90 %.3f ms",
		len(lat), blocks, latencyBlock, quantile(lat, 0.5), p90, p99, tailCount(latencyBlock, 0.99), dueP50, dueP90)
	out.printf("generator lag (send - due): p99 %.3f ms, max %.3f ms", lagP99, lagMax)

	if !o.traced {
		out.emit(endToEnd, map[string]float64{
			"setup_s":          setupS,
			"throughput_per_s": windowedThroughput(closed),
			"latency_p50_ms":   quantile(lat, 0.5),
			"peak_rss_mb":      rss,
		})
		return out, nil
	}

	// The server traces every request in both runs (sdemd's default
	// trace sample is 1), so all the traced run adds is the client's read
	// of the Server-Timing header. Its overhead is the closed loop's
	// throughput without that time over the throughput with it.
	connSecs := closed.elapsed.Seconds() * clients
	layers := map[string]float64{
		"bench.trace_overhead_ratio": ratio(connSecs, connSecs-float64(closed.traceNs)/1e9),
		"bench.latency_p90_ms":       p90,
		"bench.latency_p99_ms":       p99,
		"bench.latency_due_p50_ms":   dueP50,
		"bench.latency_due_p90_ms":   dueP90,
		"bench.gen_lag_p99_ms":       lagP99,
		"bench.gen_lag_max_ms":       lagMax,
	}
	stageLayers(layers, phases)
	var lookups float64
	for res, v := range after {
		lookups += v - before[res]
	}
	layers["serve.cache.lookups"] = lookups
	layers["serve.cache.hit_ratio"] = ratio(after["hit"]-before["hit"], lookups)
	if err := r.replay(layers); err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	if layers["serve.stage_sum_remainder_ratio"], err = r.stageSum(out); err != nil {
		return nil, fmt.Errorf("stage-sum check: %w", err)
	}
	if o.out != "" {
		if err := writeSpans(filepath.Join(o.out, "spans-"+o.workload+".jsonl"), phases); err != nil {
			return nil, err
		}
	}
	out.emit(perLayer, layers)
	return out, nil
}

// window is the length of the slices the closed loop is cut into; the
// throughput is the median over a phase's whole windows, so one host
// stall decides at most one window's figure.
const window = time.Second

// latencyBlock is how many consecutive open-loop requests (by due time)
// one tail sample covers: ten beyond the p99, as few as that allows. The
// VM the benchmark was sized on stalls its vCPUs for several ms about
// once a second, so a tail percentile taken over a long stretch measures
// the host; the median over short blocks keeps a few stalls from
// deciding it.
const latencyBlock = 1000

// blockedQuantile returns the median over whole blocks of latencyBlock
// requests of each block's q-quantile latency (see openLatencies for
// fromDue), and the number of blocks.
func blockedQuantile(ph phaseResult, q float64, fromDue bool) (float64, int) {
	recs := append([]record(nil), ph.recs...)
	sort.Slice(recs, func(i, j int) bool { return recs[i].dueNs < recs[j].dueNs })
	return blockQuantile(openLatencies(recs, fromDue), latencyBlock, q)
}

// windowedThroughput returns the median over whole windows of the
// successful responses completed per second.
func windowedThroughput(ph phaseResult) float64 {
	n := int(ph.elapsed / window)
	ok := make([]float64, n)
	for i := range ph.recs {
		rec := &ph.recs[i]
		if w := int(rec.doneNs / int64(window)); w < n && rec.ok() {
			ok[w]++
		}
	}
	for w := range ok {
		ok[w] /= window.Seconds()
	}
	return median(ok)
}

// stageLayers fills the per-stage figures from the Server-Timing stages
// of the traced run's successful responses. The untracked time is
// the client's send-to-done span minus every stage the server reported:
// the middleware, the response write, the loopback and the client.
func stageLayers(layers map[string]float64, phases []phaseResult) {
	var dec, cache, enc, adm, untracked []float64
	var size float64
	for _, ph := range phases {
		for i := range ph.recs {
			rec := &ph.recs[i]
			if !rec.ok() {
				continue
			}
			dec = append(dec, rec.st.decode)
			cache = append(cache, rec.st.cache)
			enc = append(enc, rec.st.encode)
			adm = append(adm, rec.st.admission)
			untracked = append(untracked, rec.httpMs()-rec.st.sum())
			size += float64(rec.bytes)
		}
	}
	layers["serve.decode_ms"] = median(dec)
	layers["serve.cache_ms"] = median(cache)
	layers["serve.encode_ms"] = median(enc)
	layers["serve.admission_p99_ms"] = quantile(adm, 0.99)
	layers["serve.untracked_ms"] = median(untracked)
	layers["serve.response_bytes"] = ratio(size, float64(len(dec)))
}

// writeSpans writes the traced run's client spans, one request per
// line: due, send and done offsets from the phase start (wait = send −
// due, http = done − send) with the server's stage breakdown.
func writeSpans(path string, phases []phaseResult) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	type line struct {
		Phase  string             `json:"phase"`
		Ord    int                `json:"ord"`
		Kind   string             `json:"kind"`
		Code   int                `json:"code"`
		DueNs  int64              `json:"due_ns"`
		SendNs int64              `json:"send_ns"`
		DoneNs int64              `json:"done_ns"`
		Stages map[string]float64 `json:"server_timing_ms"`
	}
	for _, ph := range phases {
		for _, rec := range ph.recs {
			err := enc.Encode(line{ph.spec.name, rec.ord, rec.kind.String(), rec.code, rec.dueNs, rec.sendNs, rec.doneNs,
				map[string]float64{"admission": rec.st.admission, "decode": rec.st.decode, "cache": rec.st.cache, "encode": rec.st.encode, "other": rec.st.other}})
			if err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
