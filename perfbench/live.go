package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"time"

	"github.com/rac-project/rac/internal/httpd"
	"github.com/rac-project/rac/internal/loadgen"
	"github.com/rac-project/rac/internal/telemetry"
	"github.com/rac-project/rac/internal/tpcw"
	"github.com/rac-project/rac/internal/vmenv"
	"github.com/rac-project/rac/internal/webtier"
)

// live: an open loop through loadgen against the httpd stack at a fixed
// offered rate well under its capacity, with the agent's write path
// (Server.Reconfigure) cycling through fixed configurations between
// intervals. Only the data plane runs.
const (
	// liveRate is the offered load in paper-scale req/s: 250 wall req/s
	// under the 100× time compression.
	liveRate     = 2.5
	liveInterval = 500 * time.Millisecond
	// liveShedGrace is how late an arrival may start before loadgen sheds
	// it. The 10 ms default shed 1–14 of 3000 requests at 40% utilisation
	// with two connections on a 2-vCPU box; 100 ms shed none.
	liveShedGrace = 100 * time.Millisecond
)

// liveIntervals sizes the fixed work: measured intervals of liveInterval.
func liveIntervals(seconds int) int { return seconds * int(time.Second/liveInterval) }

// liveConfigs is the reconfiguration cycle. Every configuration admits far
// more concurrent requests than the generator keeps in flight, so none is
// rejected.
func liveConfigs() []webtier.Params {
	var out []webtier.Params
	for _, v := range []struct {
		clients, threads int
		keepAlive, ttl   float64
	}{{150, 200, 15, 30}, {100, 120, 5, 10}, {200, 250, 20, 40}, {60, 80, 10, 20}} {
		p := webtier.DefaultParams()
		p.MaxClients, p.MaxThreads = v.clients, v.threads
		p.KeepAliveTimeoutSec, p.SessionTimeoutMin = v.keepAlive, v.ttl
		out = append(out, p)
	}
	return out
}

// liveStack is one started server with its load generator.
type liveStack struct {
	srv    *httpd.Server
	base   string
	driver *loadgen.Driver
	setup  time.Duration
}

// newLiveStack starts the server, builds the driver and runs one untimed
// warm-up interval; set-up time covers all three.
func newLiveStack(seed uint64) (*liveStack, error) {
	start := time.Now()
	srv, err := httpd.NewServer(liveConfigs()[0], vmenv.Level1)
	if err != nil {
		return nil, err
	}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &liveStack{srv: srv, base: "http://" + addr}
	inFlight := runtime.NumCPU()
	s.driver, err = loadgen.New(loadgen.Options{
		BaseURL:     s.base,
		Workload:    tpcw.Workload{Mix: tpcw.Shopping, Clients: inFlight},
		Seed:        seed,
		Rate:        liveRate,
		Shards:      1,
		MaxInFlight: inFlight,
		ShedGrace:   liveShedGrace,
	})
	if err != nil {
		s.close()
		return nil, err
	}
	s.driver.SetTelemetry(srv.Telemetry())
	if _, err := s.driver.Run(context.Background(), liveInterval); err != nil {
		s.close()
		return nil, err
	}
	s.setup = time.Since(start)
	return s, nil
}

func (s *liveStack) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = s.srv.Shutdown(ctx) // teardown; every request has completed
}

// liveRun is what one measured pass records.
type liveRun struct {
	results     []loadgen.Result
	reconfigure []time.Duration
	wall, cpu   time.Duration
	completed   int64
	before      telemetry.Snapshot
	after       telemetry.Snapshot
	// served is the server's Stats().Served delta over each interval, and
	// keepAlive the wall keep-alive timeout in force during it.
	served    []int64
	keepAlive []time.Duration
}

// measure runs n intervals, reconfiguring the server before each.
func (s *liveStack) measure(n int, tr *tracer) (*liveRun, error) {
	cfgs := liveConfigs()
	runtime.GC()
	lr := &liveRun{before: s.srv.Telemetry().Snapshot()}
	cpu0 := cpuTime()
	t0 := time.Now()
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("interval-%d", i+1)
		end := tr.begin("httpd.reconfigure", id, "")
		r0 := time.Now()
		cfg := cfgs[(i+1)%len(cfgs)]
		err := s.srv.Reconfigure(cfg)
		lr.reconfigure = append(lr.reconfigure, time.Since(r0))
		end()
		if err != nil {
			return nil, err
		}
		served0 := s.srv.Stats().Served
		end = tr.begin("loadgen.run", id, "")
		res, err := s.driver.Run(context.Background(), liveInterval)
		end()
		if err != nil {
			return nil, err
		}
		lr.served = append(lr.served, s.srv.Stats().Served-served0)
		lr.keepAlive = append(lr.keepAlive,
			time.Duration(cfg.KeepAliveTimeoutSec*float64(time.Second)/httpd.TimeScale))
		lr.results = append(lr.results, res)
		lr.completed += int64(res.Completed)
	}
	lr.wall = time.Since(t0)
	lr.cpu = cpuTime() - cpu0
	lr.after = s.srv.Telemetry().Snapshot()
	return lr, nil
}

// check applies the live correctness gate and books the requests.
func (lr *liveRun) check(out *outcome) {
	for i, r := range lr.results {
		out.check(r.Offered == r.Completed+r.Errors+r.Shed+r.Rejected,
			"interval %d: offered %d != completed %d + errors %d + shed %d + rejected %d",
			i+1, r.Offered, r.Completed, r.Errors, r.Shed, r.Rejected)
		out.check(r.Errors == 0, "interval %d: %d request errors", i+1, r.Errors)
		// The server counts a request before it writes the response, so
		// once Run returns the interval's count is final.
		out.check(lr.served[i] == int64(r.Completed),
			"interval %d (keep-alive %v): server served %d, loadgen completed %d",
			i+1, lr.keepAlive[i], lr.served[i], r.Completed)
		out.attempted += int64(r.Offered)
		out.failed += int64(r.Errors + r.Shed + r.Rejected)
	}
}

func (lr *liveRun) throughput() float64 { return float64(lr.completed) / lr.wall.Seconds() }

// wallMS converts a paper-scale latency in seconds to wall milliseconds.
func wallMS(paperSeconds float64) float64 { return paperSeconds / httpd.TimeScale * 1e3 }

func (lr *liveRun) endToEnd(setup []time.Duration, heap float64) map[string]metric {
	var mean []float64
	for _, r := range lr.results {
		mean = append(mean, wallMS(r.MeanRT))
	}
	return map[string]metric{
		"setup_s":          {median(seconds(setup)), "s"},
		"latency_ms_p50":   {median(mean), "ms"},
		"throughput_per_s": {lr.throughput(), "1/s"},
		"cpu_us_per_unit":  {float64(lr.cpu.Microseconds()) / float64(lr.completed), "us"},
		"heap_mb":          {heap, "MB"},
	}
}

// serverLatency merges the measured pass's per-class server histograms.
func (lr *liveRun) serverLatency() telemetry.HistogramSnapshot {
	var merged telemetry.HistogramSnapshot
	for _, after := range lr.after.Histograms {
		if after.Name != "httpd_request_seconds" {
			continue
		}
		d := after.HistogramSnapshot
		d.Buckets = append([]int64(nil), d.Buckets...)
		for _, before := range lr.before.Histograms {
			if before.Name == after.Name && before.Labels["class"] == after.Labels["class"] {
				for i := range d.Buckets {
					d.Buckets[i] -= before.Buckets[i]
				}
				d.Count -= before.Count
				d.Sum -= before.Sum
			}
		}
		if merged.UpperBounds == nil {
			merged = d
			continue
		}
		merged.Merge(d)
	}
	return merged
}

// perLayer computes the live layer metrics of a traced pass.
func (lr *liveRun) perLayer(s *liveStack, out map[string]metric) error {
	srv := lr.serverLatency()
	var clientSum float64
	var offered int
	for _, r := range lr.results {
		clientSum += r.MeanRT * float64(r.Completed)
		offered += r.Offered
	}
	clientMean := wallMS(clientSum / float64(lr.completed))
	serverMean := wallMS(srv.Sum / float64(srv.Count))
	delta := func(name string) float64 {
		return float64(counter(lr.after, name) - counter(lr.before, name))
	}
	out["httpd.server_ms_p50"] = metric{wallMS(srv.Quantile(0.5)), "ms"}
	out["httpd.reconfigure_ms"] = metric{median(seconds(lr.reconfigure)) * 1e3, "ms"}
	out["httpd.rejected"] = metric{delta("httpd_rejected_total") + delta("rac_admission_rejected_total"), "count"}
	out["loadgen.overhead_ms"] = metric{clientMean - serverMean, "ms"}
	out["loadgen.completed_ratio"] = metric{float64(lr.completed) / float64(offered), "ratio"}
	out["loadgen.shed"] = metric{delta("loadgen_shed_total"), "count"}
	out["loadgen.errors"] = metric{delta("loadgen_request_errors_total"), "count"}

	var times, sizes []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		resp, err := http.Get(s.base + "/metrics")
		if err != nil {
			return err
		}
		n, err := io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil {
			return err
		}
		times = append(times, time.Since(t0).Seconds()*1e3)
		sizes = append(sizes, float64(n))
	}
	out["telemetry.scrape_ms"] = metric{median(times), "ms"}
	out["telemetry.scrape_bytes"] = metric{median(sizes), "bytes"}
	return nil
}

func runLive(p params) (*outcome, error) {
	n := liveIntervals(p.seconds)
	out := &outcome{}
	var setupTimes []time.Duration
	var s *liveStack
	for i := 0; i < setups; i++ {
		if s != nil {
			s.close()
		}
		var err error
		if s, err = newLiveStack(p.seed); err != nil {
			return nil, err
		}
		setupTimes = append(setupTimes, s.setup)
	}
	lr, err := s.measure(n, nil)
	if err != nil {
		s.close()
		return nil, err
	}
	heap := heapMB()
	s.close()
	lr.check(out)
	out.endToEnd = lr.endToEnd(setupTimes, heap)
	out.digest = "live: not applicable (timing-dependent data plane)"
	if !p.trace {
		return out, nil
	}

	tr := newTracer()
	ts, err := newLiveStack(p.seed)
	if err != nil {
		return nil, err
	}
	defer ts.close()
	tlr, err := ts.measure(n, tr)
	if err != nil {
		return nil, err
	}
	tlr.check(out)
	out.perLayer = perLayerDefaults()
	if err := tlr.perLayer(ts, out.perLayer); err != nil {
		return nil, err
	}
	out.perLayer["trace.overhead"] = metric{lr.throughput() / tlr.throughput(), "ratio"}
	if err := tr.write("live", p.seed); err != nil {
		return nil, err
	}
	return out, nil
}
