package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sdem/internal/serve"
)

// clients is the load generator's connection count: nproc on the
// 2-vCPU machine the benchmark is sized for. Open and closed loops both
// use exactly these connections.
const clients = 2

// serveSetups is how many times a serve-hot run builds its whole
// set-up (about 10 ms each); setup_s is the median, and only the last
// one is measured.
const serveSetups = 21

// benchServer is the serve.Server that sdemd mounts, with sdemd's
// default Config, behind serve.Run on a loopback listener.
type benchServer struct {
	srv    *serve.Server
	base   string
	cancel context.CancelFunc
	done   chan error
}

func startServer() (*benchServer, error) {
	// sdemd's flag defaults: -ring 64, -trace-sample 1, -cores 8, every
	// other knob 0 (the Config defaults). Only the log sink differs: the
	// text handler still formats every request line, into io.Discard.
	s := serve.New(serve.Config{
		System:      sdemdSystem(),
		RingSize:    64,
		Logger:      slog.New(slog.NewTextHandler(io.Discard, nil)),
		TraceSample: 1,
	})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	b := &benchServer{srv: s, base: "http://" + l.Addr().String(), cancel: cancel, done: make(chan error, 1)}
	go func() { b.done <- serve.Run(ctx, l, s, 5*time.Second) }()
	return b, nil
}

// stop drains the server and waits until serve.Run has returned.
func (b *benchServer) stop() error {
	b.cancel()
	return <-b.done
}

// conn is one client connection of the load generator.
type conn struct {
	tr     *http.Transport
	client *http.Client
	buf    bytes.Buffer
	strip  []byte
}

func newConn() *conn {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &conn{tr: tr, client: &http.Client{Transport: tr}}
}

// reply is one HTTP response; body aliases the conn's buffer until the
// conn's next call.
type reply struct {
	code   int
	timing string
	body   []byte
}

func (c *conn) do(req *http.Request) (reply, error) {
	resp, err := c.client.Do(req)
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	c.buf.Reset()
	if _, err := c.buf.ReadFrom(resp.Body); err != nil {
		return reply{}, err
	}
	return reply{code: resp.StatusCode, timing: resp.Header.Get("Server-Timing"), body: c.buf.Bytes()}, nil
}

func (c *conn) post(url string, body []byte) (reply, error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return reply{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	return c.do(req)
}

func (c *conn) get(url string) (reply, error) {
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		return reply{}, err
	}
	return c.do(req)
}

// stages are one response's Server-Timing stage durations in ms.
type stages struct {
	admission, decode, cache, encode, other float64
}

func (s stages) sum() float64 { return s.admission + s.decode + s.cache + s.encode + s.other }

// parseServerTiming reads the `name;dur=1.234, ...` header the server
// emits for every sampled request.
func parseServerTiming(h string) stages {
	var s stages
	for _, part := range strings.Split(h, ",") {
		name, dur, ok := strings.Cut(strings.TrimSpace(part), ";dur=")
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(dur, 64)
		if err != nil {
			continue
		}
		switch name {
		case "admission":
			s.admission += v
		case "decode":
			s.decode += v
		case "cache":
			s.cache += v
		case "encode":
			s.encode += v
		default:
			s.other += v
		}
	}
	return s
}

// record is one measured request. Its due, send and done offsets are
// the benchmark's own spans around the HTTP call: wait = send − due,
// http = done − send, request = done − due.
type record struct {
	ord  int
	kind kind
	hot  int
	// code is the HTTP status, 0 when no response arrived.
	code int
	// wrong marks a 2xx response whose output failed its check.
	wrong                 bool
	dueNs, sendNs, doneNs int64
	bytes                 int
	// st holds the Server-Timing stages (traced runs only).
	st stages
}

func (r *record) ok() bool { return r.code >= 200 && r.code < 300 && !r.wrong }

func (r *record) latencyMs() float64 { return float64(r.doneNs-r.dueNs) / 1e6 }

func (r *record) httpMs() float64 { return float64(r.doneNs-r.sendNs) / 1e6 }

func (r *record) lagMs() float64 { return float64(r.sendNs-r.dueNs) / 1e6 }

// phaseSpec is one load phase of serve-hot.
type phaseSpec struct {
	name string
	open bool
	// rate is the open loop's offered load in requests per second.
	rate   float64
	dur    time.Duration
	traced bool
	// first is the ordinal of the phase's first request; phases draw
	// disjoint ordinal ranges, so each sees its own request sequence.
	first int
}

type phaseResult struct {
	spec    phaseSpec
	recs    []record
	elapsed time.Duration
	// traceNs is the connection time a traced phase spent reading the
	// Server-Timing header, summed over connections.
	traceNs int64
}

// serveRun is a set-up serve-hot run: inputs, server and connections.
type serveRun struct {
	in    *hotInputs
	srv   *benchServer
	conns [clients]*conn
	// refs are the hot reference bodies with per-request IDs stripped,
	// indexed by kind and hot set.
	refs [numKinds][hotSets][]byte
}

// setupServe builds serve-hot from scratch: inputs, server,
// connections, and the warm-up traffic that fills the cache. The
// warm-up goes through the in-process handler, so set-up time is the
// server's own work (construction, 16 solves, cache inserts, encodes)
// and not 16 loopback round trips, whose hand-offs between the client,
// the server and the VM's vCPUs varied by a quarter within one run.
func setupServe(seed int64) (*serveRun, error) {
	in := newHotInputs(seed)
	srv, err := startServer()
	if err != nil {
		return nil, err
	}
	r := &serveRun{in: in, srv: srv}
	for i := range r.conns {
		r.conns[i] = newConn()
	}
	for _, w := range in.warm() {
		req := httptest.NewRequest(http.MethodPost, w.kind.path(), bytes.NewReader(w.body))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		srv.srv.Handler().ServeHTTP(rec, req)
		if rec.Code < 200 || rec.Code >= 300 {
			r.close()
			return nil, fmt.Errorf("warm-up %s request: status %d: %s", w.kind, rec.Code, bytes.TrimSpace(rec.Body.Bytes()))
		}
		r.refs[w.kind][w.hot] = stripIDs(nil, rec.Body.Bytes())
	}
	return r, nil
}

func (r *serveRun) close() error {
	for _, c := range r.conns {
		c.tr.CloseIdleConnections()
	}
	return r.srv.stop()
}

// runPhase drives one phase. In the open loop, request k is due at
// start + k/rate whether or not earlier ones have finished; it waits for
// a free connection if both are busy, and its latency counts from when
// it was due. In the closed loop each connection sends its next request
// as soon as the previous one has completed.
func (r *serveRun) runPhase(p phaseSpec) phaseResult {
	start := time.Now()
	end := start.Add(p.dur)
	var next atomic.Int64
	out := make([][]record, len(r.conns))
	traceNs := make([]int64, len(r.conns))
	var wg sync.WaitGroup
	for i, c := range r.conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := next.Add(1) - 1
				var due time.Time
				if p.open {
					due = start.Add(time.Duration(float64(k) / p.rate * float64(time.Second)))
					if !due.Before(end) {
						return
					}
				} else if !time.Now().Before(end) {
					return
				}
				req := r.in.at(p.first + int(k))
				if p.open {
					if d := time.Until(due); d > 0 {
						time.Sleep(d)
					}
				}
				send := time.Now()
				if !p.open {
					due = send
				}
				rep, err := c.post(r.srv.base+req.kind.path(), req.body)
				done := time.Now()
				rec := record{
					ord: req.ord, kind: req.kind, hot: req.hot,
					dueNs:  int64(due.Sub(start)),
					sendNs: int64(send.Sub(start)),
					doneNs: int64(done.Sub(start)),
				}
				if err == nil {
					rec.code = rep.code
					rec.bytes = len(rep.body)
					if p.traced {
						rec.st = parseServerTiming(rep.timing)
						traceNs[i] += int64(time.Since(done))
					}
					r.inspect(c, &rec, rep.body)
				}
				out[i] = append(out[i], rec)
			}
		}()
	}
	wg.Wait()
	res := phaseResult{spec: p, elapsed: time.Since(start)}
	for i, o := range out {
		res.recs = append(res.recs, o...)
		res.traceNs += traceNs[i]
	}
	sort.Slice(res.recs, func(i, j int) bool { return res.recs[i].ord < res.recs[j].ord })
	return res
}

// inspect checks what can be checked without slowing the sender: a 2xx
// response must equal its reference byte for byte once the two
// per-request fields are stripped.
func (r *serveRun) inspect(c *conn, rec *record, body []byte) {
	if rec.code < 200 || rec.code >= 300 {
		return
	}
	c.strip = stripIDs(c.strip[:0], body)
	rec.wrong = !bytes.Equal(c.strip, r.refs[rec.kind][rec.hot])
}

// idMarkers precede the only two response fields that legitimately
// differ between a cached and a fresh response: the request ID and the
// trace URL that embeds it. They appear in this order in every body.
var idMarkers = [][]byte{[]byte(`"request": "`), []byte(`"/debug/trace/`)}

// stripIDs appends b to dst without the digits that follow each marker.
func stripIDs(dst, b []byte) []byte {
	for _, m := range idMarkers {
		i := bytes.Index(b, m)
		if i < 0 {
			break
		}
		i += len(m)
		dst = append(dst, b[:i]...)
		b = b[i:]
		for len(b) > 0 && b[0] >= '0' && b[0] <= '9' {
			b = b[1:]
		}
	}
	return append(dst, b...)
}

// cacheCounts scrapes the server's /metrics and sums the schedule-cache
// outcome counter by result (hit, miss, coalesced).
func (r *serveRun) cacheCounts() (map[string]float64, error) {
	rep, err := r.conns[0].get(r.srv.base + "/metrics")
	if err != nil {
		return nil, err
	}
	if rep.code != http.StatusOK {
		return nil, fmt.Errorf("/metrics: status %d", rep.code)
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(rep.body), "\n") {
		if !strings.HasPrefix(line, "sdem_serve_cache_total{") {
			continue
		}
		_, rest, ok := strings.Cut(line, `result="`)
		if !ok {
			continue
		}
		result, _, _ := strings.Cut(rest, `"`)
		v, err := strconv.ParseFloat(line[strings.LastIndexByte(line, ' ')+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("/metrics line %q: %w", line, err)
		}
		out[result] += v
	}
	return out, nil
}

// tally is one phase's failure accounting.
type tally struct {
	attempted, ok, failed, shed, wrong int
}

func tallyOf(recs []record) tally {
	var t tally
	for i := range recs {
		rec := &recs[i]
		t.attempted++
		switch {
		case rec.code == http.StatusTooManyRequests:
			t.shed++
		case rec.code < 200 || rec.code >= 300:
			t.failed++
		case rec.wrong:
			t.wrong++
		default:
			t.ok++
		}
	}
	return t
}

// openLatencies returns the open-loop request latencies in ms, counted
// from each request's send (fromDue false) or from when it was due
// (fromDue true). A request that failed, was shed or answered wrongly
// reads +Inf: it misses any latency limit.
func openLatencies(recs []record, fromDue bool) []float64 {
	out := make([]float64, len(recs))
	for i := range recs {
		switch {
		case !recs[i].ok():
			out[i] = posInf
		case fromDue:
			out[i] = recs[i].latencyMs()
		default:
			out[i] = recs[i].httpMs()
		}
	}
	return out
}
