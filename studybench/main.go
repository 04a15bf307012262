// Command studybench is the repository's end-to-end benchmark: it runs
// a distributed sweepd, its HTTP worker fleet and one closed-loop
// client in one process, drives a study workload through the public
// HTTP API for a fixed time, checks every streamed record, and prints
// the end-to-end metrics (or, with --trace 1, the per-layer metrics) as
// one JSON line. See README.md for the workloads, the metrics and how
// to read them.
//
// Usage, from the repository root:
//
//	bash studybench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//	bash studybench/run.sh steady [-k 5] [-seconds 25] [-trace]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"
)

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

// result is the last line of a run's standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("studybench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	root := fs.String("root", ".", "repository root (the example specs are read from it)")
	scratch := fs.String("scratch", os.TempDir(), "directory for the temporary result stores")
	name := fs.String("workload", "", "workload to run")
	seed := fs.Uint64("seed", 1, "workload seed: the same seed gives the same jobs")
	seconds := fs.Float64("seconds", 25, "length of the timed phase; whole rounds run until it has passed")
	trace := fs.Int("trace", 0, "1 reports the per-layer metrics of a traced run instead of the end-to-end ones")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.Arg(0) == "steady" {
		return steady(fs.Args()[1:], *root, *scratch, stdout, stderr)
	}
	w, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(stderr, "studybench: unknown workload %q; have:\n", *name)
		for _, w := range workloads {
			fmt.Fprintf(stderr, "  %-20s %s\n", w.name, w.why)
		}
		return 2
	}
	cfg := runConfig{
		w: w, seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)),
		traced: *trace == 1, root: *root, scratch: *scratch,
	}
	res, err := runWorkload(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "studybench:", err)
		return 1
	}
	out := result{Correct: res.mismatch == "", Attempted: len(res.outcomes), Metrics: endToEnd(w, res)}
	if cfg.traced {
		out.Metrics = res.layers
	}
	_, okJobs := pointsDelivered(res)
	out.Failed = out.Attempted - okJobs
	report(stdout, cfg, res)
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(stderr, "studybench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !out.Correct {
		fmt.Fprintln(stderr, "studybench: byte mismatch:", res.mismatch)
		return 1
	}
	return 0
}

// report prints the run for a reader: every job, the failures by
// cause, every end-to-end metric by name and unit (job_p90_s where
// enough jobs lie beyond it) and, for a traced run, every per-layer
// metric.
func report(w io.Writer, cfg runConfig, res *runResult) {
	fmt.Fprintf(w, "workload %s seed %d: %d jobs in %.3f s timed (setup %.4f s", cfg.w.name, cfg.seed,
		len(res.outcomes), res.phase.wall, res.setupS)
	switch {
	case cfg.w.warm:
		fmt.Fprintf(w, " including fill %.3f s", res.fillS)
	case cfg.w.warmUp:
		fmt.Fprintf(w, " including warm-up %.3f s", res.fillS)
	}
	fmt.Fprintln(w, ")")
	causes := map[string]int{}
	for _, o := range res.outcomes {
		if !o.ok() {
			causes[o.cause]++
		}
		if !cfg.w.warm {
			state := "ok"
			if !o.ok() {
				state = "FAILED " + o.cause + " (" + string(o.view.State) + ")"
			}
			fmt.Fprintf(w, "  %-24s seed %-17d %s %8.3f s  %4d records  %s\n",
				o.name, o.seed, o.id, o.lastS, o.lines, state)
		}
	}
	for _, c := range sortedKeys(causes) {
		fmt.Fprintf(w, "  failed jobs, cause %s: %d\n", c, causes[c])
	}
	printMetrics(w, endToEnd(cfg.w, res))
	if v, ok := jobP90(cfg.w, res); ok {
		fmt.Fprintf(w, "  %-34s %14.6g %s\n", "job_p90_s", v, "s")
	} else {
		fmt.Fprintf(w, "  %-34s %14s (fewer than %d jobs beyond p90)\n", "job_p90_s", "n/a", minTail)
	}
	if res.layers != nil {
		fmt.Fprintln(w, "per-layer (traced run):")
		printMetrics(w, res.layers)
	}
}

func printMetrics(w io.Writer, ms map[string]metric) {
	for _, k := range sortedKeys(ms) {
		fmt.Fprintf(w, "  %-34s %14.6g %s\n", k, ms[k].Value, ms[k].Unit)
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
