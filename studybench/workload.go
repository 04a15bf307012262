package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/service"
)

// jobDef is one job the client submits.
type jobDef struct {
	name string
	req  service.Request
}

// workload is one benchmark workload. Each run starts from an empty
// store; the timed phase runs whole rounds until the run's duration has
// passed.
type workload struct {
	name string
	why  string
	// deadline is the per-job limit: longer than the slowest healthy
	// job, shorter than the 30 s lease TTL, so a job that hangs on a
	// dropped chunk is cancelled and counted failed instead of stalling
	// the run.
	deadline time.Duration
	// round returns the jobs of timed round r. Cold workloads derive new
	// seeds every round, so every point is really computed.
	round func(specs map[string][]byte, seed uint64, r int) []jobDef
	// warm workloads cold-fill the store with round 0 before the timed
	// phase, and every timed job must come back fully cached.
	warm bool
	// warmUp cold workloads run round 0 before the timed phase, so the
	// heap has grown and core's stack cache holds as many entries as it
	// will in a long-running daemon; the timed rounds start at round 1.
	warmUp bool
	// population is the optimizer population (0 for sweeps): a lease's
	// generation is its smallest point index divided by it.
	population int
	// verify names the job checked byte for byte against the in-process
	// engine after the timed phase: the first OK timed job of that name.
	verify string
}

// specFiles are the shipped example specs, by job name.
var specFiles = map[string]string{
	"noc-hotspot":             "noc-hotspot.json",
	"raytrace-interference":   "raytrace-interference.json",
	"power-constrained-stack": "power-constrained-stack.json",
}

// smokeDeadline is the per-job deadline of smoke-budget spec jobs: the
// slowest healthy one takes about 11 s.
const smokeDeadline = 20 * time.Second

// Optimizer job shape: small jobs, so that a run holds a dozen of them
// and its work does not hinge on where a few searches converge.
const (
	optGenerations = 2
	optPopulation  = 16
)

var workloads = []workload{
	{
		name:     "spec-smoke-cold",
		why:      "the three shipped example specs at smoke budget, fresh seeds: the main user path, dominated by LDPC BER Monte Carlo",
		deadline: smokeDeadline,
		round: func(specs map[string][]byte, seed uint64, r int) []jobDef {
			return specJobs(specs, seed, r, "noc-hotspot", "raytrace-interference", "power-constrained-stack")
		},
		verify: "noc-hotspot",
	},
	// BENCHMARK.json does not gate this workload: runs of the same code
	// spread up to 0.2–0.27 of the median, mostly with how many large
	// module counts a seed draws (README.md, "Gated workloads").
	{
		name:       "optimize-wide-cold",
		why:        "NSGA-II over the manycore and full-design spaces at analytic budget: NoC compile and generation barriers, no Monte Carlo",
		deadline:   20 * time.Second,
		warmUp:     true,
		population: optPopulation,
		round: func(_ map[string][]byte, seed uint64, r int) []jobDef {
			var jobs []jobDef
			for i, space := range []string{"manycore", "full-design"} {
				jobs = append(jobs, jobDef{name: space, req: service.Request{
					Kind: service.KindOptimize, Space: space, Budget: "analytic",
					Seed: jobSeed(seed, r, i), Generations: optGenerations, Population: optPopulation,
				}})
			}
			return jobs
		},
		verify: "manycore",
	},
	{
		name:     "spec-resubmit-warm",
		why:      "resubmits two filled example specs: HTTP, queue, cache pre-pass, assembly and streaming, with no evaluation",
		deadline: 5 * time.Second,
		warm:     true,
		// Every round resubmits the jobs the fill computed.
		round: func(specs map[string][]byte, seed uint64, _ int) []jobDef {
			return specJobs(specs, seed, 0, "noc-hotspot", "raytrace-interference")
		},
		verify: "noc-hotspot",
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// specJobs builds smoke-budget jobs of the named example specs.
func specJobs(specs map[string][]byte, seed uint64, r int, names ...string) []jobDef {
	jobs := make([]jobDef, len(names))
	for i, n := range names {
		jobs[i] = jobDef{name: n, req: service.Request{
			Spec: json.RawMessage(specs[n]), Budget: "smoke", Seed: jobSeed(seed, r, i),
		}}
	}
	return jobs
}

// loadSpecs reads the shipped example specs from the repository at root.
func loadSpecs(root string) (map[string][]byte, error) {
	specs := make(map[string][]byte, len(specFiles))
	for name, file := range specFiles {
		data, err := os.ReadFile(filepath.Join(root, "examples", "specs", file))
		if err != nil {
			return nil, fmt.Errorf("example spec %s: %w", name, err)
		}
		specs[name] = data
	}
	return specs, nil
}

// jobSeed derives the seed of slot i in round r from the run's seed:
// the same run seed always gives the same job list, and every round
// and slot gets its own seed. The result fits in 53 bits so JSON tools
// that read numbers as doubles show it exactly.
func jobSeed(seed uint64, r, i int) uint64 {
	return mix(seed^mix(uint64(r)<<16|uint64(i)+1)) & (1<<53 - 1)
}

// mix is the splitmix64 finalizer.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}
