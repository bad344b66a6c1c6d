package main

import (
	"encoding/json"
	"fmt"
	"math"
	"sync"

	"sdem/internal/online"
	"sdem/internal/power"
	"sdem/internal/task"
)

// energyTol is the relative tolerance between a response's energy_j and
// the library's figure for the same set.
const energyTol = 1e-9

// answer is the part of a 2xx body the check reads. Simulate and
// explain responses both carry these fields.
type answer struct {
	Scheduler string  `json:"scheduler"`
	N         int     `json:"n"`
	EnergyJ   float64 `json:"energy_j"`
}

// verify compares one 2xx body against the library on its set: the
// energy SDEM-ON reaches through online.Runtime.Schedule, the public
// call the simulate and explain handlers make.
func verify(ts task.Set, body []byte, sys power.System, rt *online.Runtime) error {
	var a answer
	if err := json.Unmarshal(body, &a); err != nil {
		return fmt.Errorf("undecodable body: %w", err)
	}
	if a.Scheduler != "sdem-on" || a.N != len(ts) {
		return fmt.Errorf("scheduler %q n %d, want \"sdem-on\" n %d", a.Scheduler, a.N, len(ts))
	}
	res, err := rt.Schedule(ts, sys, online.Options{Cores: sys.Cores})
	if err != nil {
		return fmt.Errorf("library rejected the set the server answered: %w", err)
	}
	want := res.EnergyBreakdown().Total()
	if math.Abs(a.EnergyJ-want) > energyTol*math.Abs(want) {
		return fmt.Errorf("energy_j %v, library %v", a.EnergyJ, want)
	}
	return nil
}

// problems collects the first few check failures for the report.
type problems struct {
	mu    sync.Mutex
	n     int
	first []string
}

func (p *problems) add(format string, args ...any) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.n++
	if len(p.first) < 5 {
		p.first = append(p.first, fmt.Sprintf(format, args...))
	}
}

// check verifies every 2xx response of the measured phases off the
// clock and marks failures wrong. Each response already matched its
// reference byte for byte, so re-deriving the 16 references checks them
// all.
func (r *serveRun) check(phases []phaseResult, p *problems) {
	sys := sdemdSystem()
	var rt online.Runtime
	var bad [numKinds][hotSets]bool
	for _, k := range []kind{kindSim, kindExplain} {
		for i := 0; i < hotSets; i++ {
			if err := verify(r.in.sets[i], r.refs[k][i], sys, &rt); err != nil {
				bad[k][i] = true
				p.add("hot set %d %s reference: %v", i, k, err)
			}
		}
	}
	for _, ph := range phases {
		for j := range ph.recs {
			rec := &ph.recs[j]
			if rec.wrong {
				p.add("hot set %d %s request %d: body differs from the reference", rec.hot, rec.kind, rec.ord)
			} else if rec.code >= 200 && rec.code < 300 && bad[rec.kind][rec.hot] {
				rec.wrong = true
			}
		}
	}
}
