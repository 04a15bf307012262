package main

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/service"
)

func TestTailQuantileNeedsTenSamplesBeyond(t *testing.T) {
	for n, want := range map[int]bool{1: false, 10: false, 99: false, 100: true, 1000: true} {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		v, ok := tailQuantile(xs, 0.9)
		if ok != want {
			t.Errorf("n=%d: p90 reported=%v, want %v", n, ok, want)
		}
		if ok && v != float64(n*9/10) {
			t.Errorf("n=%d: p90=%v, want %v", n, v, n*9/10)
		}
	}
	if got := median([]float64{3, math.Inf(1), 1}); got != 3 {
		t.Errorf("median with a failed job = %v, want 3", got)
	}
	if got := median([]float64{2, 4, 1, math.Inf(1)}); got != 3 {
		t.Errorf("median of 4 = %v, want the mean of the middle two, 3", got)
	}
	if got := median([]float64{2, math.Inf(1), 1, math.Inf(1)}); !math.IsInf(got, 1) {
		t.Errorf("median of 4 with two failed jobs = %v, want +Inf", got)
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25] and
	// statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5].
	for _, c := range []struct {
		xs          []float64
		q1, med, q3 float64
	}{
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 5.5, 8.25},
		{[]float64{5, 4, 3, 2, 1}, 1.5, 3, 4.5},
	} {
		q1, med, q3 := quartiles(c.xs)
		if q1 != c.q1 || med != c.med || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, med, q3, c.q1, c.med, c.q3)
		}
	}
}

// stubDaemon serves a job that never finishes (job-1) and one that is
// done with two records (job-2), and records whether job-1 was deleted.
func stubDaemon(t *testing.T, deleted *atomic.Bool) *httptest.Server {
	var posts atomic.Int32
	view := func(id string, st service.State, total int) service.JobView {
		return service.JobView{ID: id, State: st, Progress: service.Progress{Total: total, Done: total}}
	}
	write := func(w http.ResponseWriter, status int, v any) {
		w.WriteHeader(status)
		json.NewEncoder(w).Encode(v)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /api/v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		if posts.Add(1) == 1 {
			write(w, http.StatusAccepted, view("job-1", service.StateQueued, 0))
			return
		}
		write(w, http.StatusAccepted, view("job-2", service.StateQueued, 0))
	})
	mux.HandleFunc("GET /api/v1/jobs/job-1", func(w http.ResponseWriter, r *http.Request) {
		write(w, http.StatusOK, view("job-1", service.StateRunning, 4))
	})
	mux.HandleFunc("DELETE /api/v1/jobs/job-1", func(w http.ResponseWriter, r *http.Request) {
		deleted.Store(true)
		write(w, http.StatusOK, view("job-1", service.StateRunning, 4))
	})
	mux.HandleFunc("GET /api/v1/jobs/job-2", func(w http.ResponseWriter, r *http.Request) {
		write(w, http.StatusOK, view("job-2", service.StateDone, 2))
	})
	mux.HandleFunc("GET /api/v1/jobs/job-2/records", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("{\"index\":0}\n{\"index\":1}\n"))
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

func TestHungJobIsCancelledAndCountedFailed(t *testing.T) {
	var deleted atomic.Bool
	c := newClient(stubDaemon(t, &deleted).URL)
	defer c.close()
	w := workload{deadline: 50 * time.Millisecond}

	hung := c.submit("hung", service.Request{})
	start := time.Now()
	c.follow(hung, w.deadline, nil)
	if hung.cause != causeDeadline || !deleted.Load() {
		t.Fatalf("hung job: cause %q, deleted %v; want deadline and a DELETE", hung.cause, deleted.Load())
	}
	if waited := time.Since(start); waited > time.Second {
		t.Fatalf("client waited %v past a 50ms deadline", waited)
	}
	good := c.submit("good", service.Request{})
	checkStream(good, c.follow(good, w.deadline, nil))
	if !good.ok() || good.lines != 2 {
		t.Fatalf("good job: cause %q, %d lines", good.cause, good.lines)
	}

	res := &runResult{outcomes: []*outcome{good, hung, good}, phase: phaseStats{wall: 1, cpu: 1}}
	m := endToEnd(w, res)
	if m["ok_frac"].Value != 2.0/3 {
		t.Errorf("ok_frac = %v, want 2/3", m["ok_frac"].Value)
	}
	if m["job_p50_s"].Value != good.lastS {
		t.Errorf("job_p50_s = %v, want the good job's %v (the hung one ranks as +Inf)", m["job_p50_s"].Value, good.lastS)
	}
	res.outcomes = []*outcome{hung}
	if got := endToEnd(w, res)["job_p50_s"].Value; got != w.deadline.Seconds() {
		t.Errorf("job_p50_s on a failed job = %v, want the deadline %v", got, w.deadline.Seconds())
	}
}

func TestShortStreamFails(t *testing.T) {
	o := &outcome{lines: 2}
	checkStream(o, []byte("{\"index\":0}\nnot json\n"))
	if o.cause != causeBadLine {
		t.Fatalf("cause %q, want %q", o.cause, causeBadLine)
	}
}

func TestWarmChecks(t *testing.T) {
	ref := []byte("{\"index\":0}\n")
	done := service.JobView{State: service.StateDone, Progress: service.Progress{Total: 1, Cached: 1}}
	o := &outcome{view: done, lines: 1}
	if msg := checkWarm(o, ref, ref); msg != "" || !o.ok() {
		t.Fatalf("identical cached stream: %q, cause %q", msg, o.cause)
	}
	if msg := checkWarm(o, []byte("{\"index\":1}\n"), ref); msg == "" {
		t.Fatal("a decodable stream that differs from the fill must be a mismatch")
	}
	o = &outcome{view: done, lines: 1}
	o.view.Progress.Cached = 0
	checkWarm(o, ref, ref)
	if o.cause != causeNotCached {
		t.Fatalf("computed warm job: cause %q, want %q", o.cause, causeNotCached)
	}
}

func TestAccountingCoversOKJobsOfTheTimedPhase(t *testing.T) {
	res := &runResult{
		outcomes: []*outcome{
			{lines: 20, lastS: 5}, {lines: 24, lastS: 9},
			{lines: 0, cause: causeDeadline}, {lines: 3, cause: causeShort},
		},
		phase: phaseStats{wall: 11, cpu: 8.8},
	}
	m := endToEnd(workload{deadline: time.Second}, res)
	if got := m["points_per_s"].Value; got != 4 {
		t.Errorf("points_per_s = %v, want 44 points / 11 s", got)
	}
	if got := m["cpu_s_per_point"].Value; math.Abs(got-0.2) > 1e-12 {
		t.Errorf("cpu_s_per_point = %v, want 8.8 s / 44 points", got)
	}
	if got := m["ok_frac"].Value; got != 0.5 {
		t.Errorf("ok_frac = %v, want 0.5", got)
	}
}

// spin burns CPU on the calling goroutine for d.
func spin(d time.Duration) {
	x := 0.0
	for t0 := time.Now(); time.Since(t0) < d; {
		for i := 0; i < 1000; i++ {
			x += math.Sqrt(float64(i))
		}
	}
	_ = x
}

func TestMeasurePhaseCountsOnlyItsOwnWork(t *testing.T) {
	spin(300 * time.Millisecond) // before the phase: must not count
	ps := measurePhase(func() { spin(100 * time.Millisecond) })
	if ps.wall < 0.1 || ps.cpu < 0.05 || ps.cpu > 0.25 {
		t.Fatalf("phase wall %.3fs cpu %.3fs, want about 0.1s of each", ps.wall, ps.cpu)
	}
	if ps.peakRSSMB <= 0 {
		t.Fatalf("peak RSS %v MiB", ps.peakRSSMB)
	}
}

func TestJobSeedsRepeatPerSeedAndChangePerRound(t *testing.T) {
	specs := map[string][]byte{}
	for name := range specFiles {
		specs[name] = []byte("{}")
	}
	seeds := func(jobs []jobDef) []uint64 {
		var s []uint64
		for _, j := range jobs {
			s = append(s, j.req.Seed)
		}
		return s
	}
	for _, w := range workloads {
		a, b := w.round(specs, 7, 0), w.round(specs, 7, 0)
		if len(a) == 0 || len(a) != len(b) {
			t.Fatalf("%s: round sizes %d and %d", w.name, len(a), len(b))
		}
		for i := range a {
			if a[i].name != b[i].name || a[i].req.Seed != b[i].req.Seed {
				t.Fatalf("%s: job %d differs between two derivations from seed 7", w.name, i)
			}
		}
		seen := map[uint64]bool{}
		for _, s := range append(seeds(a), seeds(w.round(specs, 8, 0))...) {
			if seen[s] {
				t.Fatalf("%s: job seed %d repeats across run seeds 7 and 8", w.name, s)
			}
			seen[s] = true
		}
		next := seeds(w.round(specs, 7, 1))
		for i, s := range next {
			if cold := !w.warm; cold == (s == a[i].req.Seed) {
				t.Fatalf("%s: round 1 job %d seed %d, round 0 %d (cold rounds need new seeds, warm ones the filled seeds)",
					w.name, i, s, a[i].req.Seed)
			}
		}
	}
}

// TestMetricNamesMatchBenchmarkJSON keeps the emitted metric sets and
// the names declared in the repository's BENCHMARK.json identical, as
// the result contract requires every declared metric on every run.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var decl struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &decl); err != nil {
		t.Fatal(err)
	}
	res := &runResult{outcomes: []*outcome{{lines: 1, lastS: 1}}, phase: phaseStats{wall: 1, cpu: 1}}
	w := workloads[0]
	check := func(kind string, got map[string]metric, want []struct{ Name, Unit string }) {
		if len(got) != len(want) {
			t.Errorf("%s: emitted %d metrics, BENCHMARK.json declares %d", kind, len(got), len(want))
		}
		for _, d := range want {
			if m, ok := got[d.Name]; !ok || m.Unit != d.Unit {
				t.Errorf("%s: %s declared in %s, emitted %+v (present %v)", kind, d.Name, d.Unit, m, ok)
			}
		}
	}
	check("end_to_end", endToEnd(w, res), decl.EndToEnd)
	check("per_layer", layerMetrics(runConfig{w: w}, res, newProbe(), &httpTimes{}, nil), decl.PerLayer)
}

func TestFleetJobMatchesInProcessEngine(t *testing.T) {
	sys, err := startSystem(t.TempDir(), newProbe())
	if err != nil {
		t.Fatal(err)
	}
	defer sys.stop()
	c := newClient(sys.srv.URL)
	defer c.close()
	jd := jobDef{name: "paper-baseline", req: service.Request{
		Kind: service.KindOptimize, Space: "paper-baseline", Budget: "analytic",
		Seed: 5, Generations: 2, Population: 4,
	}}
	o := c.submit(jd.name, jd.req)
	body := c.follow(o, time.Minute, nil)
	if checkStream(o, body); !o.ok() || o.lines != 8 {
		t.Fatalf("fleet job: cause %q, %d lines", o.cause, o.lines)
	}
	if msg, err := verifyInProcess(jd, body); err != nil || msg != "" {
		t.Fatalf("fleet records differ from the in-process engine: %q, %v", msg, err)
	}
	body[len(body)/2] ^= 1
	if msg, err := verifyInProcess(jd, body); err != nil || msg == "" {
		t.Fatalf("a flipped byte went unnoticed: %q, %v", msg, err)
	}
}
