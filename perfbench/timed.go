package main

import (
	"context"
	"fmt"
	"sync/atomic"

	"github.com/rac-project/rac/internal/config"
	"github.com/rac-project/rac/internal/fleet"
	"github.com/rac-project/rac/internal/system"
	"github.com/rac-project/rac/internal/tpcw"
	"github.com/rac-project/rac/internal/vmenv"
)

// backend is what the timing wrapper needs underneath: the analytic system
// offers all three interfaces the fleet looks for.
type backend interface {
	system.System
	system.Adjustable
	system.Snapshottable
}

// timedSystem records a span around every Apply and Measure of one tenant's
// backend and forwards every other call unchanged. It forwards
// system.Adjustable (scenario and capacity tenants need it) and
// system.Snapshottable (checkpoints carry the backend state through it), so
// installing it changes no output of the fleet.
type timedSystem struct {
	inner  backend
	tenant string
	tr     *tracer
	round  *atomic.Int64 // the round the benchmark is running; parent of the spans
	// measured counts completed Measure calls. Only the goroutine stepping
	// the tenant touches it.
	measured int
}

var (
	_ system.System        = (*timedSystem)(nil)
	_ system.Adjustable    = (*timedSystem)(nil)
	_ system.Snapshottable = (*timedSystem)(nil)
)

// timedBuilder is a fleet.SystemBuilder that builds the analytic backend as
// the fleet itself would and wraps it for tracing. Other backends are
// declined, so the fleet falls back to its built-ins. space returns the
// fleet's configuration space once the fleet exists.
func timedBuilder(space func() *config.Space, tr *tracer, round *atomic.Int64) fleet.SystemBuilder {
	return func(spec fleet.TenantSpec, ctx system.Context, seed uint64) (system.System, error) {
		if spec.Backend != "analytic" {
			return nil, nil
		}
		a, err := system.NewAnalytic(system.AnalyticOptions{
			Space:      space(),
			Context:    ctx,
			Seed:       seed,
			NoiseSigma: spec.NoiseSigma,
		})
		if err != nil {
			return nil, err
		}
		return &timedSystem{inner: a, tenant: spec.Name, tr: tr, round: round}, nil
	}
}

func (s *timedSystem) ids() (id, parent string) {
	return fmt.Sprintf("%s/%d", s.tenant, s.measured+1), fmt.Sprintf("round-%d", s.round.Load())
}

func (s *timedSystem) Space() *config.Space  { return s.inner.Space() }
func (s *timedSystem) Config() config.Config { return s.inner.Config() }

func (s *timedSystem) Apply(ctx context.Context, cfg config.Config) error {
	id, parent := s.ids()
	defer s.tr.begin("system.apply", id, parent)()
	return s.inner.Apply(ctx, cfg)
}

func (s *timedSystem) Measure(ctx context.Context) (system.Metrics, error) {
	id, parent := s.ids()
	end := s.tr.begin("system.measure", id, parent)
	m, err := s.inner.Measure(ctx)
	end()
	s.measured++
	return m, err
}

func (s *timedSystem) SetWorkload(w tpcw.Workload) error   { return s.inner.SetWorkload(w) }
func (s *timedSystem) SetAppLevel(level vmenv.Level) error { return s.inner.SetAppLevel(level) }
func (s *timedSystem) Workload() tpcw.Workload             { return s.inner.Workload() }
func (s *timedSystem) AppLevel() vmenv.Level               { return s.inner.AppLevel() }
func (s *timedSystem) ExportState() ([]byte, error)        { return s.inner.ExportState() }
func (s *timedSystem) ImportState(blob []byte) error       { return s.inner.ImportState(blob) }
