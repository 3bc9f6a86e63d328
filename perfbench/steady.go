package main

import (
	"fmt"

	"github.com/rac-project/rac/internal/fleet"
	"github.com/rac-project/rac/internal/sim"
)

// fleet-steady: a closed loop of back-to-back rounds over analytic tenants
// spread evenly over the six paper contexts. The first tenant of each
// context trains its policy at admission; the rest warm-start on exact
// registry hits. No scenarios, checkpoints or admin calls: nearly all the
// work is the agent step.
const steadyTenants = 240

// steadyRounds sizes the fixed work: warm-up rounds, then measured rounds,
// about the requested seconds of measurement on a 2-vCPU box.
func steadyRounds(seconds int) (warm, rounds int) {
	return 25, (7*seconds + 1) / 2
}

func steadySpecs(seed uint64) []fleet.TenantSpec {
	seen := map[string]bool{}
	var specs []fleet.TenantSpec
	rng := sim.NewRNG(seed)
	for i, ctx := range permutedContexts(seed, steadyTenants) {
		specs = append(specs, fleet.TenantSpec{
			Name:        fmt.Sprintf("steady-%03d", i),
			Backend:     "analytic",
			Context:     ctx,
			Seed:        rng.Uint64() | 1,
			TrainPolicy: !seen[ctx],
		})
		seen[ctx] = true
	}
	return specs
}

func runFleetSteady(p params) (*outcome, error) {
	warm, rounds := steadyRounds(p.seconds)
	specs := steadySpecs(p.seed)
	out := &outcome{}
	build := func(tr *tracer, measure bool) (*fleetHarness, *measured, error) {
		dir, err := runDir("steady")
		if err != nil {
			return nil, nil, err
		}
		h, err := newFleet(dir, false, tr, specs)
		if err != nil || !measure {
			return h, nil, err
		}
		m, err := h.measure(warm, rounds, roundHooks{})
		if err != nil {
			h.close()
			return nil, nil, err
		}
		return h, m, nil
	}
	return runFleetWorkload(p, out, "fleet-steady", build, int64(rounds*steadyTenants))
}
