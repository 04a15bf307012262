package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"syscall"
	"time"

	"repro/internal/service"
	"repro/internal/sweep"
)

// setupRepeats is how many times a run brings the system up; setup_s is
// the median.
const setupRepeats = 101

// maxTimelines bounds the timelines a traced run fetches: the daemon
// retains its newest 256 jobs, and their spans share a 4096-span ring.
const maxTimelines = 200

// runConfig is one benchmark invocation.
type runConfig struct {
	w       workload
	seed    uint64
	seconds time.Duration
	traced  bool
	root    string // repository root, for the example specs
	scratch string // directory for temporary stores
}

// phaseStats are process-level readings over the timed phase only.
type phaseStats struct {
	wall, cpu  float64
	peakRSSMB  float64
	allocBytes uint64
	gcCycles   uint32
}

// runResult is everything one run measured.
type runResult struct {
	setupS   float64 // median bring-up, plus the fill or warm-up round
	fillS    float64 // wall time of the warm fill or the cold warm-up round
	outcomes []*outcome
	phase    phaseStats
	// records are the decoded records of OK timed jobs with the seed and
	// budget they were computed under (for a warm workload, the fill's).
	records []seededRecord
	// mismatch describes a determinism failure; empty when every
	// checked stream was byte-identical.
	mismatch string
	layers   map[string]metric // traced run only
}

// seededRecord is a streamed record with the job seed and budget that
// produced it.
type seededRecord struct {
	rec    sweep.Record
	seed   uint64
	budget string
}

// runWorkload executes one run: set-up, the timed phase, and the output
// checks outside it.
func runWorkload(cfg runConfig) (*runResult, error) {
	specs, err := loadSpecs(cfg.root)
	if err != nil {
		return nil, err
	}
	res := &runResult{}
	var p *probe
	if cfg.traced {
		p = newProbe()
	}

	// Set-up: bring the system up setupRepeats times, half of them before
	// the kept system and half after the timed phase, so one burst of
	// machine noise cannot shift the whole sample. setup_s is their
	// median, plus the fill or warm-up round, which runs once.
	var setups []float64
	bringUp := func(wrap *probe) (*system, error) {
		t0 := time.Now()
		s, err := startSystem(cfg.scratch, wrap)
		setups = append(setups, time.Since(t0).Seconds())
		return s, err
	}
	throwaway := func(n int) error {
		for i := 0; i < n; i++ {
			s, err := bringUp(nil)
			if err != nil {
				return err
			}
			if err := s.stop(); err != nil {
				return err
			}
		}
		return nil
	}
	if err := throwaway(setupRepeats / 2); err != nil {
		return nil, err
	}
	sys, err := bringUp(p)
	if err != nil {
		return nil, err
	}
	c := newClient(sys.srv.URL)
	defer c.close()
	var buf []byte

	// Warm workloads fill the store first: round 0 submitted at once,
	// so both workers stay busy, then followed and checked in full.
	// Cold workloads with a warm-up run round 0 closed-loop instead, and
	// time the rounds after it.
	refs := map[string][]byte{}
	first := 0 // the first timed round
	t0 := time.Now()
	switch {
	case cfg.w.warm:
		fill := cfg.w.round(specs, cfg.seed, 0)
		var subs []*outcome
		for _, jd := range fill {
			subs = append(subs, c.submit(jd.name, jd.req))
		}
		for i, o := range subs {
			// The fill jobs run side by side, so each gets twice the
			// cold smoke deadline.
			buf = c.follow(o, 2*smokeDeadline, buf)
			recs := checkStream(o, buf)
			if !o.ok() {
				_ = sys.stop() // the fill failure is the error to report
				return nil, fmt.Errorf("fill job %s failed: %s", o.name, o.cause)
			}
			refs[o.name] = bytes.Clone(buf)
			for _, r := range recs {
				res.records = append(res.records, seededRecord{r, o.seed, fill[i].req.Budget})
			}
		}
	case cfg.w.warmUp:
		// Warm-up jobs are not checked: a failure among them shows in
		// the timed rounds, which run the same kinds of job.
		for _, jd := range cfg.w.round(specs, cfg.seed, 0) {
			buf = c.follow(c.submit(jd.name, jd.req), cfg.w.deadline, buf)
		}
		first = 1
	}
	res.fillS = time.Since(t0).Seconds()

	// The timed phase: whole rounds until the run's duration has passed.
	// The first OK job named cfg.w.verify is kept for the byte check.
	var verify *jobDef
	var verifyBody []byte
	var httpT httpTimes
	var timelines []service.Timeline
	if p != nil {
		c.httpS = &httpT
		p.start()
	}
	t0 = time.Now()
	res.phase = measurePhase(func() {
		for r := first; r == first || time.Since(t0) < cfg.seconds; r++ {
			for _, jd := range cfg.w.round(specs, cfg.seed, r) {
				o := c.submit(jd.name, jd.req)
				buf = c.follow(o, cfg.w.deadline, buf)
				res.outcomes = append(res.outcomes, o)
				if cfg.w.warm {
					if msg := checkWarm(o, buf, refs[o.name]); msg != "" && res.mismatch == "" {
						res.mismatch = msg
					}
				} else {
					for _, rec := range checkStream(o, buf) {
						res.records = append(res.records, seededRecord{rec, o.seed, jd.req.Budget})
					}
				}
				if verify == nil && jd.name == cfg.w.verify && o.ok() {
					verify, verifyBody = &jd, bytes.Clone(buf)
				}
			}
		}
	})
	if p != nil {
		p.stop()
		c.httpS = nil
		timelines = fetchTimelines(c, res.outcomes)
	}
	if err := sys.stop(); err != nil {
		return nil, err
	}
	if err := throwaway(setupRepeats / 2); err != nil {
		return nil, err
	}
	res.setupS = median(setups) + res.fillS

	// The per-layer figures first: the stage replay must not find the
	// stack cache warmed by the in-process check below.
	if p != nil {
		res.layers = layerMetrics(cfg, res, p, &httpT, timelines)
	}

	// Outside the timed phase: one job against the in-process engine.
	// Without an OK job to compare there is nothing to check; its
	// failure already counts in ok_frac.
	if verify == nil {
		fmt.Fprintf(os.Stderr, "studybench: no %s job completed; byte check skipped\n", cfg.w.verify)
	} else if msg, err := verifyInProcess(*verify, verifyBody); err != nil {
		return nil, err
	} else if msg != "" && res.mismatch == "" {
		res.mismatch = msg
	}
	return res, nil
}

// fetchTimelines reads the daemon's timelines of the newest OK jobs,
// after the timed phase so the fetches do not count in it.
func fetchTimelines(c *client, outcomes []*outcome) []service.Timeline {
	var tls []service.Timeline
	for i := len(outcomes) - 1; i >= 0 && len(tls) < maxTimelines; i-- {
		var tl service.Timeline
		if o := outcomes[i]; o.ok() && c.get("/api/v1/jobs/"+o.id+"/timeline", &tl) == nil {
			tls = append(tls, tl)
		}
	}
	return tls
}

// checkStream checks an OK job's stream line by line: every line must
// decode as a record. It returns the decoded records, or marks the
// outcome and returns nil.
func checkStream(o *outcome, body []byte) []sweep.Record {
	if !o.ok() {
		return nil
	}
	recs := make([]sweep.Record, 0, o.lines)
	for _, line := range bytes.SplitAfter(body, []byte{'\n'}) {
		if len(line) == 0 {
			continue
		}
		var rec sweep.Record
		if err := json.Unmarshal(line, &rec); err != nil {
			o.cause = causeBadLine
			return nil
		}
		recs = append(recs, rec)
	}
	return recs
}

// checkWarm checks a warm resubmission: every point must come from the
// store, and the stream must equal the fill's byte for byte (which was
// decoded line by line). A stream that differs yet decodes is a
// determinism failure, returned as a message.
func checkWarm(o *outcome, body, ref []byte) string {
	if !o.ok() {
		return ""
	}
	if o.view.Progress.Cached != o.view.Progress.Total {
		o.cause = causeNotCached
	}
	if bytes.Equal(body, ref) {
		return ""
	}
	if checkStream(o, body); !o.ok() {
		return ""
	}
	return fmt.Sprintf("warm %s (job %s) streamed records that differ from its cold fill", o.name, o.id)
}

// measurePhase runs fn and returns the process-level readings over it
// alone: wall and CPU time, allocation and GC deltas, and the peak RSS
// reached by its end.
func measurePhase(fn func()) phaseStats {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuSeconds()
	t0 := time.Now()
	fn()
	ps := phaseStats{wall: time.Since(t0).Seconds(), cpu: cpuSeconds() - cpu0, peakRSSMB: peakRSSMB()}
	runtime.ReadMemStats(&m1)
	ps.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	ps.gcCycles = m1.NumGC - m0.NumGC
	return ps
}

// cpuSeconds is the process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return tv(ru.Utime) + tv(ru.Stime)
}

func tv(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }

// peakRSSMB is the process's peak resident set so far, in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
