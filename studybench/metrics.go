package main

import (
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/ldpc"
	"repro/internal/noc/sim"
	"repro/internal/rng"
	"repro/internal/service"
	"repro/internal/sweep"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// replaySample is how many points the traced run replays stage by
// stage: enough to average over the workload's stacks and codes, few
// enough to add seconds, not minutes, to the run.
const replaySample = 8

// latencies returns each timed job's submit-to-last-byte and
// submit-to-first-record times, failed jobs as +Inf.
func latencies(res *runResult) (job, first []float64) {
	inf := math.Inf(1)
	for _, o := range res.outcomes {
		if o.ok() {
			job = append(job, o.lastS)
			first = append(first, o.firstS)
		} else {
			job = append(job, inf)
			first = append(first, inf)
		}
	}
	return job, first
}

// finite reports a selected latency: a failed job ranks as +Inf, and if
// the selected rank falls on one, the job's deadline (the time the
// client gave up) is reported as the lower bound it is.
func finite(v float64, deadline time.Duration) float64 {
	if math.IsInf(v, 1) {
		return deadline.Seconds()
	}
	return v
}

// pointsDelivered counts the records streamed by OK jobs.
func pointsDelivered(res *runResult) (points, ok int) {
	for _, o := range res.outcomes {
		if o.ok() {
			points += o.lines
			ok++
		}
	}
	return points, ok
}

// endToEnd computes the run's gated metrics.
func endToEnd(w workload, res *runResult) map[string]metric {
	job, first := latencies(res)
	points, ok := pointsDelivered(res)
	// A run that delivered nothing is charged all its CPU for one point.
	perPoint := res.phase.cpu / math.Max(float64(points), 1)
	return map[string]metric{
		"setup_s":            {res.setupS, "s"},
		"job_p50_s":          {finite(median(job), w.deadline), "s"},
		"first_record_p50_s": {finite(median(first), w.deadline), "s"},
		"points_per_s":       {float64(points) / res.phase.wall, "1/s"},
		"cpu_s_per_point":    {perPoint, "s"},
		"ok_frac":            {float64(ok) / float64(len(res.outcomes)), "frac"},
		"peak_rss_mb":        {res.phase.peakRSSMB, "MiB"},
	}
}

// jobP90 is the p90 job latency, reported only where at least ten jobs
// lie beyond it; ok is false otherwise.
func jobP90(w workload, res *runResult) (float64, bool) {
	job, _ := latencies(res)
	v, ok := tailQuantile(sorted(job), 0.9)
	return finite(v, w.deadline), ok
}

// layerMetrics derives the per-layer metrics of a traced run from the
// probe, the client's HTTP timings, the daemon's job views and
// timelines, the process counters and a stage replay.
func layerMetrics(cfg runConfig, res *runResult, p *probe, h *httpTimes, timelines []service.Timeline) map[string]metric {
	m := map[string]metric{}
	jobs := float64(len(res.outcomes))
	points, _ := pointsDelivered(res)
	pts := math.Max(float64(points), 1)
	wall := res.phase.wall

	// End-to-end figures of this traced run: their difference from the
	// untraced run is the tracing overhead.
	e2e := endToEnd(cfg.w, res)
	m["trace.job_p50_s"] = metric{e2e["job_p50_s"].Value, "s"}
	m["trace.points_per_s"] = metric{e2e["points_per_s"].Value, "1/s"}
	p90, _ := jobP90(cfg.w, res)
	m["job.p90_s"] = metric{p90, "s"}

	// service http, seen from the client.
	m["http.submit_s.p50"] = metric{median(h.submit), "s"}
	m["http.records_s.p50"] = metric{median(h.records), "s"}
	m["http.polls_per_job"] = metric{float64(h.polls) / jobs, "count/job"}
	bytesStreamed := 0.0
	for _, o := range res.outcomes {
		if o.ok() {
			bytesStreamed += float64(o.streamBytes)
		}
	}
	m["http.records_bytes_per_point"] = metric{bytesStreamed / pts, "B/point"}

	// service manager: job views and timelines of OK jobs.
	var queued, run, lag, assemble []float64
	for _, o := range res.outcomes {
		v := o.view
		if !o.ok() || v.StartedAt == nil || v.FinishedAt == nil {
			continue
		}
		queued = append(queued, v.StartedAt.Sub(v.SubmittedAt).Seconds())
		run = append(run, v.FinishedAt.Sub(*v.StartedAt).Seconds())
		lag = append(lag, o.sawTerminal.Sub(*v.FinishedAt).Seconds())
	}
	for _, tl := range timelines {
		for _, ph := range tl.Phases {
			if tl.State == service.StateDone && ph.Name == "assemble" {
				assemble = append(assemble, ph.DurationSeconds)
			}
		}
	}
	m["job.queued_s.p50"] = metric{median(queued), "s"}
	m["job.run_s.p50"] = metric{median(run), "s"}
	m["job.assemble_s.p50"] = metric{median(assemble), "s"}
	m["job.observe_lag_s.p50"] = metric{median(lag), "s"}

	// service dispatch and workers, through the WorkerAPI wrapper.
	submitted := map[string]time.Time{}
	for _, o := range res.outcomes {
		submitted[o.id] = o.submitted
	}
	type jobGen struct {
		job string
		gen int
	}
	firstLease := map[string]time.Time{}
	genFirst := map[jobGen]time.Time{}
	genLast := map[jobGen]time.Time{}
	var evalS []float64
	busy := 0.0
	for _, l := range p.leases {
		if t, ok := firstLease[l.job]; !ok || l.leased.Before(t) {
			firstLease[l.job] = l.leased
		}
		if !l.posted.IsZero() {
			evalS = append(evalS, l.posted.Sub(l.leased).Seconds())
			busy += l.returned.Sub(l.leased).Seconds()
		}
		if l.minIndex >= 0 && cfg.w.population > 0 {
			k := jobGen{l.job, l.minIndex / cfg.w.population}
			if t, ok := genFirst[k]; !ok || l.leased.Before(t) {
				genFirst[k] = l.leased
			}
			if l.returned.After(genLast[k]) {
				genLast[k] = l.returned
			}
		}
	}
	var firstWait, genGap []float64
	for job, t := range firstLease {
		if s, ok := submitted[job]; ok {
			firstWait = append(firstWait, t.Sub(s).Seconds())
		}
	}
	for k, t := range genFirst {
		if prev, ok := genLast[jobGen{k.job, k.gen - 1}]; ok && k.gen > 0 {
			genGap = append(genGap, t.Sub(prev).Seconds())
		}
	}
	m["lease.calls_per_job"] = metric{float64(p.leaseCalls) / jobs, "count/job"}
	m["lease.empty_frac"] = metric{ratio(p.leaseEmpty, p.leaseCalls), "frac"}
	m["lease.first_wait_s.p50"] = metric{median(firstWait), "s"}
	m["lease.gen_gap_s.p50"] = metric{median(genGap), "s"}
	m["chunk.eval_s.p50"] = metric{median(evalS), "s"}
	m["lease.complete_s.p50"] = metric{median(p.completeS), "s"}
	m["lease.complete_errors"] = metric{float64(p.completeErrors), "count"}
	m["worker.busy_frac"] = metric{busy / (fleetWorkers * wall), "frac"}

	// sweep/store through the sweep.Cache wrapper.
	m["cache.get_calls_per_job"] = metric{float64(p.gets) / jobs, "count/job"}
	m["cache.hit_frac"] = metric{ratio(p.hits, p.gets), "frac"}
	m["cache.get_s.p50"] = metric{median(p.getS), "s"}
	m["cache.put_calls"] = metric{float64(len(p.putS)), "count"}
	m["cache.put_s.p50"] = metric{median(p.putS), "s"}

	// Process counters over the timed phase.
	m["proc.alloc_bytes_per_point"] = metric{float64(res.phase.allocBytes) / pts, "B/point"}
	m["proc.gc_cycles"] = metric{float64(res.phase.gcCycles), "count"}

	// Evaluation stages: counts from the streamed records, times from
	// replaying a sample of the workload's own points.
	var codewords, reps, sims, codes float64
	perJob := map[uint64]map[[2]int]bool{}
	for _, sr := range res.records {
		codewords += float64(sr.rec.BERCodewords)
		reps += float64(sr.rec.SimReplications)
		if sr.rec.BERCodewords > 0 {
			sims++
			if perJob[sr.seed] == nil {
				perJob[sr.seed] = map[[2]int]bool{}
			}
			perJob[sr.seed][[2]int{sr.rec.CodeLifting, sr.rec.CodeWindow}] = true
		}
	}
	for _, set := range perJob {
		codes += float64(len(set))
	}
	n := math.Max(float64(len(res.records)), 1)
	m["eval.ber_codewords_per_point"] = metric{codewords / n, "count/point"}
	m["eval.nocsim_reps_per_point"] = metric{reps / n, "count/point"}
	m["eval.ber_sims_per_distinct_code"] = metric{sims / math.Max(codes, 1), "count/code"}
	// A warm run evaluates nothing in its timed phase: its stage times
	// are 0 rather than a replay of the fill.
	var design, ber, nocsim float64
	if !cfg.w.warm {
		design, ber, nocsim = replayStages(res.records)
	}
	m["eval.design_s_per_point"] = metric{design, "s/point"}
	m["eval.ber_s_per_point"] = metric{ber, "s/point"}
	m["eval.nocsim_s_per_point"] = metric{nocsim, "s/point"}
	return m
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// stackCacheCap is the number of module-count entries core keeps in
// its process-wide FIFO stack cache.
const stackCacheCap = 32

// replayStages times the evaluation stages (core design with its NoC
// compile, LDPC BER simulation, NoC event simulation) with the
// parameters and random streams sweep.Evaluate uses, and returns the
// mean seconds per point of each.
//
// Design is replayed over every point of the first OK timed job, in the
// order the fleet evaluated them, after flushing core's stack cache. In
// the run that job found the cache holding only earlier jobs' module
// counts, which a job with fresh seeds rarely repeats, so the replay
// pays about the compile misses and hits the run paid. BER and NoC
// simulation do not depend
// on that cache and are replayed on an evenly spaced sample of
// replaySample points; a stage the budget skipped costs 0.
func replayStages(recs []seededRecord) (design, ber, nocsim float64) {
	if len(recs) == 0 {
		return 0, 0, 0
	}
	flushStackCache()
	var first []seededRecord
	for _, sr := range recs {
		if sr.seed == recs[0].seed {
			first = append(first, sr)
		}
	}
	t0 := time.Now()
	for _, sr := range first {
		_, _ = core.DesignSystem(sr.rec.Spec) // failures cost what they cost in the run
	}
	design = time.Since(t0).Seconds() / float64(len(first))

	var sample []seededRecord
	for _, sr := range recs {
		if sr.rec.Err == "" {
			sample = append(sample, sr)
		}
	}
	if len(sample) == 0 {
		return design, 0, 0
	}
	step := max(len(sample)/replaySample, 1)
	n := 0
	for i := 0; i < len(sample) && n < replaySample; i += step {
		sr := sample[i]
		n++
		b, err := sweep.ParseBudget(sr.budget)
		if err != nil {
			continue
		}
		des, err := core.DesignSystem(sr.rec.Spec)
		if err != nil {
			continue
		}
		stream := rng.New(sr.seed).Split(uint64(sr.rec.Index) + 1)
		if sr.rec.BERCodewords > 0 {
			t0 = time.Now()
			code := ldpc.LiftConvolutional(ldpc.PaperSpreading(), b.TermLength, des.Code.Lifting, 3)
			ldpc.SimulateBER(ldpc.BERParams{
				Code: code, Alg: ldpc.SumProduct, MaxIter: b.BERMaxIter,
				Window: des.Code.Window, Rate: des.Code.Rate,
				EbN0DB: b.BEREbN0DB, MaxCodewords: b.BERMaxCodewords, RelCI: b.BERRelCI,
				Seed: stream.Split(1).Uint64(), Workers: 1,
			})
			ber += time.Since(t0).Seconds()
		}
		simStream := stream.Split(2)
		t0 = time.Now()
		for i := 0; i < sr.rec.SimReplications; i++ {
			sim.Run(sim.Config{
				Topo:          des.Stack.Topology,
				Traffic:       sr.rec.Spec.Traffic.NoCPattern(),
				InjectionRate: sr.rec.Spec.StackInjectionRate,
				MeasureCycles: b.NoCMeasureCycles,
				Seed:          simStream.Split(uint64(i) + 1).Uint64(),
			})
		}
		nocsim += time.Since(t0).Seconds()
	}
	return design, ber / float64(n), nocsim / float64(n)
}

// flushStackCache evicts every entry of core's stack cache by designing
// stackCacheCap+1 small systems, each under its own hotspot fraction
// (the traffic pattern is part of the cache key), so no workload's
// stack survives.
func flushStackCache() {
	for i := 0; i <= stackCacheCap; i++ {
		spec := core.DefaultSpec()
		spec.StackModules = 4
		spec.Traffic = &core.TrafficSpec{Pattern: core.TrafficHotspot, HotspotFraction: float64(i) / 100}
		_, _ = core.DesignSystem(spec) // only the cache insert matters
	}
}
