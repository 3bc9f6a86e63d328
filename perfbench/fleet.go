package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"github.com/rac-project/rac/internal/config"
	"github.com/rac-project/rac/internal/fleet"
	"github.com/rac-project/rac/internal/sim"
	"github.com/rac-project/rac/internal/telemetry"
)

// fleetSeed is the fleet's base seed, a deployment setting like racd's
// "seed". It fixes the trained context policies; the benchmark seed draws
// the tenant specs, each with its own seed.
const fleetSeed = 1

// fleetShards is the fleet's default shard count; racd leaves it unset.
const fleetShards = 8

// fleetHarness is one fleet configured as racd configures it: telemetry
// registry and trace ring attached, the policy registry on disk, paper-default
// policy training. A traced harness also installs the timing wrapper.
type fleetHarness struct {
	f     *fleet.Fleet
	reg   *telemetry.Registry
	dir   string
	tr    *tracer
	round atomic.Int64

	// admits are the timed initial admissions; setup spans fleet.New
	// through the last of them.
	admits []admitTiming
	setup  time.Duration
}

type admitTiming struct {
	d       time.Duration
	trained bool
	warm    bool
}

// newFleet builds a fleet under dir and admits specs, timing set-up from
// fleet.New through the last admission.
func newFleet(dir string, checkpoints bool, tr *tracer, specs []fleet.TenantSpec) (*fleetHarness, error) {
	h := &fleetHarness{reg: telemetry.NewRegistry(), dir: dir, tr: tr}
	opts := fleet.Options{
		Seed:        fleetSeed,
		RegistryDir: filepath.Join(dir, "registry"),
		Telemetry:   h.reg,
		Trace:       telemetry.NewTrace(512),
	}
	if checkpoints {
		opts.CheckpointDir = filepath.Join(dir, "checkpoints")
		opts.CheckpointEvery = 5
	}
	if tr != nil {
		opts.NewSystem = timedBuilder(func() *config.Space { return h.f.Space() }, tr, &h.round)
	}
	start := time.Now()
	f, err := fleet.New(opts)
	if err != nil {
		return nil, err
	}
	h.f = f
	for _, spec := range specs {
		end := tr.begin("fleet.admit", spec.Name, "setup")
		t0 := time.Now()
		t, err := f.Admit(spec)
		d := time.Since(t0)
		end()
		if err != nil {
			h.close()
			return nil, err
		}
		h.admits = append(h.admits, admitTiming{d: d, trained: spec.TrainPolicy, warm: t.Status().WarmStarted})
	}
	h.setup = time.Since(start)
	return h, nil
}

// close stops the fleet, drops it and removes its directory.
func (h *fleetHarness) close() {
	if h.f != nil {
		_ = h.f.Shutdown() // teardown; the checks ran before it
		h.f = nil
	}
	_ = os.RemoveAll(h.dir)
}

// runRound runs one scheduling round and returns its wall time.
func (h *fleetHarness) runRound() (time.Duration, error) {
	n := h.round.Add(1)
	end := h.tr.begin("fleet.round", fmt.Sprintf("round-%d", n), "")
	t0 := time.Now()
	err := h.f.RunRound()
	d := time.Since(t0)
	end()
	return d, err
}

// steps is the number of completed tenant intervals so far.
func (h *fleetHarness) steps() int64 {
	var n int64
	for _, st := range h.f.Statuses() {
		n += int64(st.Interval)
	}
	return n
}

// digest hashes every tenant status and every agent's exported state: the
// fleet's whole output. Equal seeds must give equal digests, traced or not.
func (h *fleetHarness) digest() (string, error) {
	sum := sha256.New()
	st, err := json.Marshal(h.f.Statuses())
	if err != nil {
		return "", err
	}
	sum.Write(st)
	for _, t := range h.f.Tenants() {
		as, err := t.Agent().ExportState()
		if err != nil {
			return "", fmt.Errorf("export %s: %w", t.Name(), err)
		}
		b, err := json.Marshal(as)
		if err != nil {
			return "", err
		}
		sum.Write(b)
	}
	return hex.EncodeToString(sum.Sum(nil)), nil
}

// failedTenants lists the tenants that ended failed.
func (h *fleetHarness) failedTenants() []string {
	var out []string
	for _, st := range h.f.Statuses() {
		if st.State == fleet.StateFailed {
			out = append(out, st.Name+": "+st.LastError)
		}
	}
	return out
}

// qStates sums the Q-table states over every tenant.
func (h *fleetHarness) qStates() int {
	n := 0
	for _, t := range h.f.Tenants() {
		n += t.Agent().QTable().Len()
	}
	return n
}

// counter reads a registry counter summed over its label sets.
func counter(snap telemetry.Snapshot, name string) int64 {
	var n int64
	for _, c := range snap.Counters {
		if c.Name == name {
			n += c.Value
		}
	}
	return n
}

// histTotals sums a histogram family's observation count and sum.
func histTotals(snap telemetry.Snapshot, names ...string) (count int64, sum float64) {
	for _, h := range snap.Histograms {
		for _, n := range names {
			if h.Name == n {
				count += h.Count
				sum += h.Sum
			}
		}
	}
	return count, sum
}

// shardStepSeconds sums the step time of each shard's tenants: per-tenant
// series are placed by name, tenants past the fleet's cardinality cap are
// already aggregated per shard.
func shardStepSeconds(snap telemetry.Snapshot) []float64 {
	out := make([]float64, fleetShards)
	for _, h := range snap.Histograms {
		switch h.Name {
		case "rac_fleet_step_seconds":
			out[shardOf(h.Labels["tenant"], fleetShards)] += h.Sum
		case "rac_fleet_shard_step_seconds":
			if i, err := strconv.Atoi(h.Labels["shard"]); err == nil && i < fleetShards {
				out[i] += h.Sum
			}
		}
	}
	return out
}

// shardOf is the fleet's documented tenant placement: FNV-32a of the name
// modulo the shard count.
func shardOf(name string, n int) int {
	hs := fnv.New32a()
	hs.Write([]byte(name))
	return int(hs.Sum32() % uint32(n))
}

// measured is what a fleet workload records over its measured rounds.
type measured struct {
	rounds []time.Duration
	wall   time.Duration
	cpu    time.Duration
	steps  int64
	// before and after bracket the measured rounds.
	before, after telemetry.Snapshot
	// firstRound is the round number of the first measured round.
	firstRound int64
}

// endToEnd turns a fleet measurement into the end-to-end metrics.
func (m *measured) endToEnd(setup []time.Duration, heap float64) map[string]metric {
	rs := seconds(m.rounds)
	return map[string]metric{
		"setup_s":          {median(seconds(setup)), "s"},
		"latency_ms_p50":   {median(rs) * 1e3, "ms"},
		"throughput_per_s": {float64(m.steps) / m.wall.Seconds(), "1/s"},
		"cpu_us_per_unit":  {float64(m.cpu.Microseconds()) / float64(m.steps), "us"},
		"heap_mb":          {heap, "MB"},
	}
}

// ledger computes the per-layer fleet metrics of a traced run and a line
// splitting the worker time into apply, measure and learn self time and the
// round edge (worker time not spent in any tenant step).
func (m *measured) ledger(h *fleetHarness) (map[string]metric, string) {
	inRun := func(s span) bool {
		var r int64
		_, err := fmt.Sscanf(s.Parent, "round-%d", &r)
		return err == nil && r >= m.firstRound
	}
	var applyN, measureN int
	var applySum, measureSum time.Duration
	for _, s := range h.tr.named("system.apply") {
		if inRun(s) {
			applyN++
			applySum += s.dur()
		}
	}
	for _, s := range h.tr.named("system.measure") {
		if inRun(s) {
			measureN++
			measureSum += s.dur()
		}
	}
	c0, s0 := histTotals(m.before, "rac_fleet_step_seconds", "rac_fleet_shard_step_seconds")
	c1, s1 := histTotals(m.after, "rac_fleet_step_seconds", "rac_fleet_shard_step_seconds")
	stepN, stepSum := c1-c0, s1-s0

	workers := runtime.GOMAXPROCS(0)
	if workers > fleetShards {
		workers = fleetShards
	}
	var roundSum time.Duration
	for _, d := range m.rounds {
		roundSum += d
	}
	workerTime := roundSum.Seconds() * float64(workers)
	learn := stepSum - applySum.Seconds() - measureSum.Seconds()

	// Per-shard summed step time over the measured rounds.
	before, after := shardStepSeconds(m.before), shardStepSeconds(m.after)
	var maxShard, totShard float64
	for i := range after {
		d := after[i] - before[i]
		totShard += d
		maxShard = math.Max(maxShard, d)
	}

	n := len(m.rounds)
	tenth := n / 10
	if tenth < 1 {
		tenth = 1
	}
	rs := seconds(m.rounds)
	w0, w1 := counter(m.before, "rac_parallel_tasks_total"), counter(m.after, "rac_parallel_tasks_total")
	q0n, q0s := histTotals(m.before, "rac_parallel_queue_wait_seconds")
	q1n, q1s := histTotals(m.after, "rac_parallel_queue_wait_seconds")

	out := perLayerDefaults()
	set := func(name string, v float64) { out[name] = metric{v, perLayerUnits[name]} }
	set("fleet.round_growth", mean(rs[n-tenth:])/mean(rs[:tenth]))
	set("fleet.shard_skew", maxShard/(totShard/fleetShards))
	set("fleet.edge_share", (workerTime-stepSum)/workerTime)
	set("core.step_us", stepSum/float64(stepN)*1e6)
	set("core.learn_us", learn/float64(stepN)*1e6)
	set("system.apply_us", perCall(applySum, applyN))
	set("system.measure_us", perCall(measureSum, measureN))
	set("parallel.tasks", float64(w1-w0))
	set("parallel.queue_wait_ms", (q1s-q0s)/float64(q1n-q0n)*1e3)
	set("core.retrains", float64(counter(m.after, "rac_agent_retrains_total")))
	set("core.policy_switches", float64(counter(m.after, "rac_agent_policy_switches_total")))
	set("core.q_states", float64(h.qStates()))
	set("fleet.checkpoints", float64(counter(m.after, "rac_fleet_checkpoints_total")))
	set("fleet.warm_starts", float64(counter(m.after, "rac_fleet_warm_starts_total")))
	set("capacity.scale_events", float64(counter(m.after, "rac_capacity_scale_ups_total")+
		counter(m.after, "rac_capacity_scale_downs_total")))
	note := fmt.Sprintf("ledger: %d rounds, %.3f s round time x %d workers = %.3f s worker time; "+
		"apply %.1f%%, measure %.1f%%, learn %.1f%%, round edge %.1f%% (%d tenant steps)",
		n, roundSum.Seconds(), workers, workerTime,
		100*applySum.Seconds()/workerTime, 100*measureSum.Seconds()/workerTime,
		100*learn/workerTime, 100*(workerTime-stepSum)/workerTime, stepN)
	return out, note
}

func perCall(sum time.Duration, n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(sum.Microseconds()) / float64(n)
}

// admitMetrics summarizes the timed initial admissions of every set-up.
func admitMetrics(admits []admitTiming, out map[string]metric) {
	var train, warm []float64
	for _, a := range admits {
		switch {
		case a.trained:
			train = append(train, a.d.Seconds()*1e3)
		case a.warm:
			warm = append(warm, a.d.Seconds()*1e3)
		}
	}
	out["fleet.admit_train_ms"] = metric{median(train), "ms"}
	out["fleet.admit_warm_ms"] = metric{median(warm), "ms"}
}

// permutedContexts returns n context names spread evenly over the six paper
// contexts, in an order drawn from seed.
func permutedContexts(seed uint64, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("context-%d", i%6+1)
	}
	rng := sim.NewRNG(seed ^ 0x5eed)
	for i := n - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// runDir makes a fresh directory for one fleet under the work directory.
func runDir(tag string) (string, error) {
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(workDir, tag+"-")
}

// roundHooks let a workload act around each round: during runs on a second
// goroutine while the round runs, after runs once both have ended.
type roundHooks struct {
	during func(r int64) error
	after  func(r int64) error
}

// runRounds runs n rounds with the hooks and returns their wall times.
func (h *fleetHarness) runRounds(n int, hooks roundHooks) ([]time.Duration, error) {
	out := make([]time.Duration, 0, n)
	for i := 0; i < n; i++ {
		r := h.round.Load() + 1
		var done chan error
		if hooks.during != nil {
			done = make(chan error, 1)
			go func() { done <- hooks.during(r) }()
		}
		d, err := h.runRound()
		if done != nil {
			if derr := <-done; err == nil {
				err = derr
			}
		}
		if err == nil && hooks.after != nil {
			err = hooks.after(r)
		}
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", r, err)
		}
		out = append(out, d)
	}
	return out, nil
}

// measure runs warm unmeasured rounds, then rounds measured ones.
func (h *fleetHarness) measure(warm, rounds int, hooks roundHooks) (*measured, error) {
	if _, err := h.runRounds(warm, hooks); err != nil {
		return nil, err
	}
	runtime.GC()
	m := &measured{before: h.reg.Snapshot(), firstRound: h.round.Load() + 1}
	steps0 := h.steps()
	cpu0 := cpuTime()
	t0 := time.Now()
	rs, err := h.runRounds(rounds, hooks)
	if err != nil {
		return nil, err
	}
	m.wall = time.Since(t0)
	m.cpu = cpuTime() - cpu0
	m.rounds = rs
	m.steps = h.steps() - steps0
	m.after = h.reg.Snapshot()
	return m, nil
}

// scrape times five renderings of the registry's /metrics exposition and
// returns the median time in ms and the median size in bytes.
func scrape(reg *telemetry.Registry) (ms, size float64, err error) {
	var times, sizes []float64
	for i := 0; i < 5; i++ {
		var buf bytes.Buffer
		t0 := time.Now()
		if err := reg.WritePrometheus(&buf); err != nil {
			return 0, 0, err
		}
		times = append(times, time.Since(t0).Seconds()*1e3)
		sizes = append(sizes, float64(buf.Len()))
	}
	return median(times), median(sizes), nil
}

// runFleetWorkload is the run shape both fleet workloads share: set up
// several times for setup_s (the last set-up is measured untraced), and in a
// traced run measure once more with the timing wrapper, requiring the same
// digest. build(tr, false) only sets up; build(tr, true) also measures.
// Every measured round steps every running tenant: wantSteps in all.
func runFleetWorkload(p params, out *outcome, name string,
	build func(tr *tracer, measure bool) (*fleetHarness, *measured, error),
	wantSteps int64) (*outcome, error) {
	var admits []admitTiming
	var setupTimes []time.Duration
	for i := 0; i < setups-1; i++ {
		h, _, err := build(nil, false)
		if err != nil {
			return nil, err
		}
		h.close()
		admits = append(admits, h.admits...)
		setupTimes = append(setupTimes, h.setup)
	}
	h, m, err := build(nil, true)
	if err != nil {
		return nil, err
	}
	admits = append(admits, h.admits...)
	setupTimes = append(setupTimes, h.setup)
	heap := heapMB()
	digest, err := h.digest()
	if err != nil {
		h.close()
		return nil, err
	}
	checkFleet(out, h, m, wantSteps)
	h.close()
	out.digest = digest
	out.endToEnd = m.endToEnd(setupTimes, heap)
	if !p.trace {
		return out, nil
	}

	tr := newTracer()
	ht, mt, err := build(tr, true)
	if err != nil {
		return nil, err
	}
	defer ht.close()
	tdigest, err := ht.digest()
	if err != nil {
		return nil, err
	}
	out.check(tdigest == digest, "traced digest %s differs from untraced %s", tdigest, digest)
	checkFleet(out, ht, mt, wantSteps)
	var note string
	out.perLayer, note = mt.ledger(ht)
	out.notes = append(out.notes, note)
	admitMetrics(append(admits, ht.admits...), out.perLayer)
	phases, err := phaseTransitions(ht)
	if err != nil {
		return nil, err
	}
	out.perLayer["workload.phase_transitions"] = metric{float64(phases), "count"}
	scrapeMS, scrapeBytes, err := scrape(ht.reg)
	if err != nil {
		return nil, err
	}
	out.perLayer["telemetry.scrape_ms"] = metric{scrapeMS, "ms"}
	out.perLayer["telemetry.scrape_bytes"] = metric{scrapeBytes, "bytes"}
	untraced := float64(m.steps) / m.wall.Seconds()
	traced := float64(mt.steps) / mt.wall.Seconds()
	out.perLayer["trace.overhead"] = metric{untraced / traced, "ratio"}
	if err := tr.write(name, p.seed); err != nil {
		return nil, err
	}
	return out, nil
}

// checkFleet applies the fleet correctness gate and books the operations.
func checkFleet(out *outcome, h *fleetHarness, m *measured, wantSteps int64) {
	failed := h.failedTenants()
	out.check(len(failed) == 0, "failed tenants: %v", failed)
	out.check(m.steps == wantSteps, "measured %d tenant steps, want %d", m.steps, wantSteps)
	out.attempted += m.steps + int64(len(failed))
	out.failed += int64(len(failed))
}
