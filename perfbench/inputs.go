package main

import (
	"encoding/json"

	"sdem/internal/power"
	"sdem/internal/serve"
	"sdem/internal/stats"
	"sdem/internal/task"
	"sdem/internal/workload"
)

// kind is the class of one task set: which route serve-hot sends it to,
// or which offline solver the replay gives it.
type kind int

const (
	// kindSim is /v1/simulate (sdem-on) on a 30-task general set.
	kindSim kind = iota
	// kindExplain is /v1/explain (sdem-on) on a 30-task general set.
	kindExplain
	// kindCR is a 100-task common-release set (§4), replayed only.
	kindCR
	// kindAgr is a 6-task agreeable set (§5 DP), replayed only.
	kindAgr
	numKinds
)

var kindNames = [numKinds]string{"simulate", "explain", "solve-cr", "solve-agr"}

func (k kind) String() string { return kindNames[k] }

// path is the route of a kind serve-hot sends (kindSim or kindExplain).
func (k kind) path() string {
	if k == kindExplain {
		return "/v1/explain"
	}
	return "/v1/simulate"
}

// online reports whether the kind is scheduled by SDEM-ON.
func (k kind) online() bool { return k == kindSim || k == kindExplain }

// Seed domains: every generated value derives from (workload seed,
// domain, ordinal) through stats.DeriveSeed, so one --seed fixes every
// input of a run and no two families share a stream.
const (
	domHotSet   = 0x4075e7
	domHotPick  = 0x40791c
	domHotRoute = 0x407207
	domSolver   = 0xc01d
	domWarm     = 0x3a93
	domSoak     = 0x50a4
	domFault    = 0xfa17
)

// sdemdSystem is the platform sdemd serves when a request names none:
// the paper's default system with sdemd's default -cores 8.
func sdemdSystem() power.System {
	sys := power.DefaultSystem()
	sys.Cores = 8
	return sys
}

// simSet draws a 30-task §8.1.2 synthetic set. The 50 ms maximum
// inter-arrival (the stream-soak setting) makes windows overlap, so the
// sets are general and SDEM-ON re-plans on most arrivals.
func simSet(seed int64) task.Set {
	ts, err := workload.Synthetic(workload.SyntheticConfig{N: 30, MaxInterArrival: power.Milliseconds(50)}, seed)
	if err != nil {
		panic(err) // the config is a constant; only a generator bug lands here
	}
	return ts
}

// crSet draws a 100-task common-release set: §8.1.2 windows and
// workloads, every release at 0.
func crSet(seed int64) task.Set {
	ts, err := workload.Synthetic(workload.SyntheticConfig{N: 100, MaxInterArrival: 1e-12}, seed)
	if err != nil {
		panic(err)
	}
	for i := range ts {
		ts[i].Deadline -= ts[i].Release
		ts[i].Release = 0
	}
	return ts
}

// agrSet draws a 6-task §8.1.2 set and lifts any deadline that would
// break release order, which makes it agreeable (only lengthening
// windows, so it stays feasible).
func agrSet(seed int64) task.Set {
	ts, err := workload.Synthetic(workload.SyntheticConfig{N: 6}, seed)
	if err != nil {
		panic(err)
	}
	for i := 1; i < len(ts); i++ {
		if ts[i].Deadline <= ts[i-1].Deadline {
			ts[i].Deadline = ts[i-1].Deadline + power.Milliseconds(1)
		}
	}
	return ts
}

// solverSet draws replayed offline-solver set i of kind k (kindCR or
// kindAgr).
func solverSet(seed int64, k kind, i int) task.Set {
	sub := stats.DeriveSeed(seed, domSolver, uint64(k), uint64(i))
	if k == kindCR {
		return crSet(sub)
	}
	return agrSet(sub)
}

// hotBody marshals the sdem-on request envelope the server decodes;
// /v1/simulate and /v1/explain take the same body.
func hotBody(ts task.Set) []byte {
	b, err := json.Marshal(serve.TaskRequest{Scheduler: "sdem-on", Tasks: ts})
	if err != nil {
		panic(err) // plain data; unreachable
	}
	return b
}

// request is one generated HTTP request of serve-hot.
type request struct {
	// ord is the request's ordinal in the run.
	ord  int
	kind kind
	// hot is the index of the hot set the body carries.
	hot  int
	body []byte
}

// hotSets is the number of distinct task sets serve-hot replays.
const hotSets = 8

// hotInputs is serve-hot: 8 pre-marshalled 30-task sets, 90% simulate
// and 10% explain by count.
type hotInputs struct {
	seed   int64
	sets   [hotSets]task.Set
	bodies [hotSets][]byte
}

func newHotInputs(seed int64) *hotInputs {
	h := &hotInputs{seed: seed}
	for i := range h.sets {
		h.sets[i] = simSet(stats.DeriveSeed(seed, domHotSet, uint64(i)))
		h.bodies[i] = hotBody(h.sets[i])
	}
	return h
}

func (h *hotInputs) at(ord int) request {
	k := kindSim
	// Blocks of ten hold exactly one explain at a seeded position, so
	// every window of the run has the nominal 90/10 mix.
	block := uint64(ord / 10)
	if ord%10 == int(unit(h.seed, domHotRoute, block)*10) {
		k = kindExplain
	}
	i := int(unit(h.seed, domHotPick, uint64(ord)) * hotSets)
	return request{ord: ord, kind: k, hot: i, body: h.bodies[i]}
}

// warm sends every hot set once per route: the simulate fills the
// cache, the explain hits it, and both responses become the references
// every measured response must match byte for byte.
func (h *hotInputs) warm() []request {
	out := make([]request, 0, 2*hotSets)
	for _, k := range []kind{kindSim, kindExplain} {
		for i := 0; i < hotSets; i++ {
			out = append(out, request{ord: -1, kind: k, hot: i, body: h.bodies[i]})
		}
	}
	return out
}

// unit maps (seed, dims...) onto [0, 1) deterministically.
func unit(seed int64, dims ...uint64) float64 {
	return float64(uint64(stats.DeriveSeed(seed, dims...))>>11) / (1 << 53)
}
