package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"path/filepath"
	"strings"
	"time"

	"github.com/rac-project/rac/internal/fleet"
	"github.com/rac-project/rac/internal/telemetry"
	"github.com/rac-project/rac/internal/workload"
)

// fleet-churn: writes beside reads on the same fleet layers. Scenario
// tenants drift between contexts, every fifth tenant has elastic capacity,
// checkpoints run every 5 intervals, and each round drains the oldest
// tenants and admits as many new ones through the admin API. A second
// goroutine, one closed-loop operator, calls the admin API and scrapes
// /metrics while each round runs.
const (
	churnTenants  = 40 // running tenants in every round
	churnPerRound = 2  // drained and admitted after every round
	churnTrainers = 2  // contexts that train a policy at set-up
)

var churnScenarios = []string{"diurnal", "flashcrowd", "mixdrift", "steady"}

// churnRounds sizes the fixed work: warm-up rounds (long enough to replace
// every initial tenant), then measured rounds.
func churnRounds(seconds int) (warm, rounds int) {
	return 2 * churnTenants / churnPerRound, 20 * seconds
}

// churnSpec is the i-th tenant the workload admits.
func churnSpec(i int, contexts []string) fleet.TenantSpec {
	return fleet.TenantSpec{
		Name:        fmt.Sprintf("churn-%05d", i),
		Backend:     "analytic",
		Context:     contexts[i%len(contexts)],
		Scenario:    churnScenarios[i%len(churnScenarios)],
		Capacity:    i%5 == 4,
		TrainPolicy: i < churnTrainers,
	}
}

// churnInitial is the tenants admitted at set-up.
func churnInitial(contexts []string) []fleet.TenantSpec {
	specs := make([]fleet.TenantSpec, churnTenants)
	for i := range specs {
		specs[i] = churnSpec(i, contexts)
	}
	return specs
}

// operator is the closed-loop admin client of one churn fleet.
type operator struct {
	h        *fleetHarness
	srv      *http.Server
	served   chan struct{} // closed when srv.Serve returns
	base     string
	client   *http.Client
	contexts []string

	active []string // running tenants, oldest first
	next   int      // index of the next tenant to admit

	adminTimes      []time.Duration // /admin/v1 calls made while a round ran
	checkpointTimes []time.Duration
	scrapeTimes     []time.Duration
	scrapeBytes     []float64
	calls, bad      int64
	badCalls        []string
}

// newOperator serves the fleet's admin API and /metrics on loopback, as
// racd does.
func newOperator(h *fleetHarness, contexts []string, initial []fleet.TenantSpec) (*operator, error) {
	mux := http.NewServeMux()
	mux.Handle("/admin/v1/", h.f.Handler())
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", telemetry.PrometheusContentType)
		if err := h.reg.WritePrometheus(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	op := &operator{
		h:        h,
		srv:      &http.Server{Handler: mux},
		base:     "http://" + ln.Addr().String(),
		client:   &http.Client{Timeout: 30 * time.Second},
		served:   make(chan struct{}),
		contexts: contexts,
		next:     len(initial),
	}
	for _, s := range initial {
		op.active = append(op.active, s.Name)
	}
	go func() {
		defer close(op.served)
		_ = op.srv.Serve(ln) // returns ErrServerClosed on Shutdown
	}()
	return op, nil
}

// close stops the admin server and waits for its goroutine to return.
func (op *operator) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = op.srv.Shutdown(ctx)
	<-op.served
	op.client.CloseIdleConnections()
}

// call issues one request, drains the body and books the outcome against
// the expected status.
func (op *operator) call(method, path string, body []byte, want int) (time.Duration, int, error) {
	end := op.h.tr.begin("admin", method+" "+path, fmt.Sprintf("round-%d", op.h.round.Load()))
	defer end()
	req, err := http.NewRequest(method, op.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	t0 := time.Now()
	resp, err := op.client.Do(req)
	if err != nil {
		return 0, 0, err
	}
	n, err := io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	d := time.Since(t0)
	if err != nil {
		return 0, 0, err
	}
	op.calls++
	if resp.StatusCode != want {
		op.bad++
		op.badCalls = append(op.badCalls, fmt.Sprintf("%s %s: %d, want %d", method, path, resp.StatusCode, want))
	}
	return d, int(n), nil
}

// during is the operator's fixed script while round r runs: one tenant
// listing page, one manual checkpoint, one /metrics scrape.
func (op *operator) during(r int64) error {
	const page = 50
	d, _, err := op.call("GET", fmt.Sprintf("/admin/v1/tenants?offset=%d&limit=%d", (int(r)*page)%op.next, page), nil, http.StatusOK)
	if err != nil {
		return err
	}
	op.adminTimes = append(op.adminTimes, d)
	victim := op.active[int(r)%len(op.active)]
	if d, _, err = op.call("POST", "/admin/v1/tenants/"+victim+"/checkpoint", nil, http.StatusOK); err != nil {
		return err
	}
	op.adminTimes = append(op.adminTimes, d)
	op.checkpointTimes = append(op.checkpointTimes, d)
	d, n, err := op.call("GET", "/metrics", nil, http.StatusOK)
	if err != nil {
		return err
	}
	op.scrapeTimes = append(op.scrapeTimes, d)
	op.scrapeBytes = append(op.scrapeBytes, float64(n))
	return nil
}

// after drains the oldest tenants and bulk-admits as many new ones, between
// rounds, so which round a tenant first steps in never depends on timing.
func (op *operator) after(r int64) error {
	for _, name := range op.active[:churnPerRound] {
		if _, _, err := op.call("POST", "/admin/v1/tenants/"+name+"/drain", nil, http.StatusOK); err != nil {
			return err
		}
	}
	op.active = op.active[churnPerRound:]
	specs := make([]fleet.TenantSpec, churnPerRound)
	for i := range specs {
		specs[i] = churnSpec(op.next, op.contexts)
		op.active = append(op.active, specs[i].Name)
		op.next++
	}
	body, err := json.Marshal(specs)
	if err != nil {
		return err
	}
	_, _, err = op.call("POST", "/admin/v1/tenants", body, http.StatusCreated)
	return err
}

func runFleetChurn(p params) (*outcome, error) {
	warm, rounds := churnRounds(p.seconds)
	contexts := permutedContexts(p.seed, 6)
	initial := churnInitial(contexts)
	out := &outcome{}
	var last *operator // the operator of the last measured fleet
	build := func(tr *tracer, measure bool) (*fleetHarness, *measured, error) {
		dir, err := runDir("churn")
		if err != nil {
			return nil, nil, err
		}
		h, err := newFleet(dir, true, tr, initial)
		if err != nil || !measure {
			return h, nil, err
		}
		op, err := newOperator(h, contexts, initial)
		if err != nil {
			h.close()
			return nil, nil, err
		}
		defer op.close()
		m, err := h.measure(warm, rounds, roundHooks{during: op.during, after: op.after})
		if err != nil {
			h.close()
			return nil, nil, err
		}
		last = op
		checkChurn(out, h, op)
		return h, m, nil
	}
	res, err := runFleetWorkload(p, out, "fleet-churn", build, int64(rounds*churnTenants))
	if err != nil || !p.trace {
		return res, err
	}
	res.perLayer["fleet.admin_ms_p50"] = metric{median(seconds(last.adminTimes)) * 1e3, "ms"}
	res.perLayer["fleet.checkpoint_ms"] = metric{median(seconds(last.checkpointTimes)) * 1e3, "ms"}
	res.perLayer["telemetry.scrape_ms"] = metric{median(seconds(last.scrapeTimes)) * 1e3, "ms"}
	res.perLayer["telemetry.scrape_bytes"] = metric{median(last.scrapeBytes), "bytes"}
	return res, nil
}

// checkChurn applies fleet-churn's own correctness gate: every admin call
// answered as expected and every checkpoint on disk reads back. It also
// books the admin calls as operations.
func checkChurn(out *outcome, h *fleetHarness, op *operator) {
	out.check(op.bad == 0, "%d admin calls answered unexpectedly: %v", op.bad, op.badCalls)
	out.attempted += op.calls
	out.failed += op.bad
	files := 0
	err := filepath.WalkDir(filepath.Join(h.dir, "checkpoints"), func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || strings.HasSuffix(path, ".tmp") {
			return err
		}
		files++
		if _, rerr := fleet.ReadCheckpointFile(path); rerr != nil {
			out.check(false, "checkpoint %s does not read back: %v", path, rerr)
		}
		return nil
	})
	out.check(err == nil, "walking checkpoints: %v", err)
	out.check(files > 0, "no checkpoint written")
}

// phaseTransitions replays every scenario tenant's completed intervals
// through a workload sequencer wired to a registry: the fleet's own
// sequencers are not on its registry, so the count is taken this way.
func phaseTransitions(h *fleetHarness) (int64, error) {
	reg := telemetry.NewRegistry()
	type compiled struct {
		sched    *workload.Schedule
		interval float64
	}
	cache := map[string]compiled{}
	for _, st := range h.f.Statuses() {
		name := h.f.Tenant(st.Name).Spec().Scenario
		if name == "" {
			continue
		}
		c, ok := cache[name]
		if !ok {
			sc, err := workload.Resolve(name)
			if err != nil {
				return 0, err
			}
			sched, err := workload.Compile(sc)
			if err != nil {
				return 0, err
			}
			c = compiled{sched, sc.Interval()}
			cache[name] = c
		}
		seq := workload.NewSequencer(c.sched, c.interval)
		seq.SetTelemetry(reg)
		for i := 0; i < st.Interval; i++ {
			seq.Observe(i)
		}
	}
	return counter(reg.Snapshot(), "rac_workload_phase_transitions_total"), nil
}
