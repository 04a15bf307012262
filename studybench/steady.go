package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"time"
)

// runTimeout bounds one child run, as the benchmark contract does.
const runTimeout = 180 * time.Second

// steady runs every workload k times in each of two interleaved sets
// (A B A B ..., seed i in both sets of pair i, from 1 to k), so machine
// drift hits both sets alike, and prints per metric the median and
// quartiles over all runs, the spread (q3-q1)/median, and the ratio of
// the two sets' medians. With -trace it adds one traced run per workload
// and prints the per-layer metrics and the tracing overhead.
func steady(args []string, root, scratch string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("steady", flag.ContinueOnError)
	fs.SetOutput(stderr)
	k := fs.Int("k", 5, "runs per set and workload")
	seconds := fs.Float64("seconds", 25, "timed phase of each run")
	traced := fs.Bool("trace", false, "add one traced run per workload")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "steady:", err)
		return 1
	}
	child := func(w workload, seed uint64, trace int) (result, []byte, error) {
		return runChild(self, stderr, "-root", root, "-scratch", scratch, "--workload", w.name,
			"--seed", strconv.FormatUint(seed, 10), "--seconds", strconv.FormatFloat(*seconds, 'g', -1, 64),
			"--trace", strconv.Itoa(trace))
	}
	status := 0
	for _, w := range workloads {
		sets := [2][]result{}
		for seed := uint64(1); seed <= uint64(*k); seed++ {
			for s := range sets {
				r, report, err := child(w, seed, 0)
				if err != nil {
					fmt.Fprintf(stderr, "steady: %s seed %d: %v\n", w.name, seed, err)
					status = 1
					continue
				}
				sets[s] = append(sets[s], r)
				fmt.Fprintf(stdout, "  run %c seed %-4d", 'A'+s, seed)
				for _, name := range sortedKeys(r.Metrics) {
					fmt.Fprintf(stdout, " %s=%.5g", name, r.Metrics[name].Value)
				}
				fmt.Fprintln(stdout)
				// The report's job_p90_s and failure lines are not in
				// the JSON result; pass them through.
				for _, line := range bytes.Split(report, []byte{'\n'}) {
					if bytes.Contains(line, []byte("job_p90_s")) || bytes.Contains(line, []byte("failed jobs")) {
						fmt.Fprintf(stdout, "    %s\n", bytes.TrimSpace(line))
					}
				}
			}
		}
		fmt.Fprintf(stdout, "%s: %d+%d runs, seeds 1..%d in both sets\n", w.name, len(sets[0]), len(sets[1]), *k)
		fmt.Fprintf(stdout, "  %-20s %-6s %12s %12s %12s %8s %12s %12s %8s\n",
			"metric", "unit", "median", "q1", "q3", "spread", "median A", "median B", "B/A")
		all := append(append([]result(nil), sets[0]...), sets[1]...)
		for _, name := range metricNames(all) {
			vals := values(all, name)
			q1, med, q3 := quartiles(vals)
			_, medA, _ := quartiles(values(sets[0], name))
			_, medB, _ := quartiles(values(sets[1], name))
			fmt.Fprintf(stdout, "  %-20s %-6s %12.6g %12.6g %12.6g %8.4f %12.6g %12.6g %8.4f\n",
				name, all[0].Metrics[name].Unit, med, q1, q3, (q3-q1)/med, medA, medB, medB/medA)
		}
		if !*traced || len(all) == 0 {
			continue
		}
		r, _, err := child(w, 1, 1)
		if err != nil {
			fmt.Fprintf(stderr, "steady: %s traced: %v\n", w.name, err)
			status = 1
			continue
		}
		fmt.Fprintln(stdout, "  traced run (seed 1):")
		printMetrics(stdout, r.Metrics)
		_, jobMed, _ := quartiles(values(all, "job_p50_s"))
		_, ptsMed, _ := quartiles(values(all, "points_per_s"))
		fmt.Fprintf(stdout, "  tracing overhead: job_p50_s %+.6g s (%+.2f%%), points_per_s %+.6g 1/s (%+.2f%%)\n",
			r.Metrics["trace.job_p50_s"].Value-jobMed, 100*(r.Metrics["trace.job_p50_s"].Value/jobMed-1),
			r.Metrics["trace.points_per_s"].Value-ptsMed, 100*(r.Metrics["trace.points_per_s"].Value/ptsMed-1))
	}
	return status
}

// runChild runs one benchmark invocation and parses its last line; the
// lines before it are returned as the run's report.
func runChild(self string, stderr io.Writer, args ...string) (result, []byte, error) {
	ctx, cancel := context.WithTimeout(context.Background(), runTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, self, args...)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = stderr
	err := cmd.Run()
	text := bytes.TrimSpace(out.Bytes())
	report, last := []byte(nil), text
	if i := bytes.LastIndexByte(text, '\n'); i >= 0 {
		report, last = text[:i], text[i+1:]
	}
	var r result
	if jerr := json.Unmarshal(last, &r); jerr != nil {
		if err == nil {
			err = jerr
		}
		return r, nil, fmt.Errorf("%w; output:\n%s", err, out.Bytes())
	}
	return r, report, err
}

func metricNames(rs []result) []string {
	if len(rs) == 0 {
		return nil
	}
	return sortedKeys(rs[0].Metrics)
}

func values(rs []result, name string) []float64 {
	var vs []float64
	for _, r := range rs {
		vs = append(vs, r.Metrics[name].Value)
	}
	return vs
}
