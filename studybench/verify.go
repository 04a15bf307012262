package main

import (
	"bytes"
	"context"
	"fmt"

	"repro/internal/search"
	"repro/internal/service"
	"repro/internal/spec"
	"repro/internal/sweep"
)

// verifyInProcess recomputes job jd with the in-process engine
// (sweep.Run or search.Optimize, no store) and compares its records,
// encoded as the daemon streams them, with the fleet's stream body byte
// for byte: the fleet determinism contract. It returns a message
// describing a mismatch, or "" when the bytes agree.
func verifyInProcess(jd jobDef, body []byte) (string, error) {
	recs, err := inProcessRecords(jd.req)
	if err != nil {
		return "", fmt.Errorf("in-process %s: %w", jd.name, err)
	}
	var want []byte
	for _, r := range recs {
		if want, err = sweep.AppendRecordJSON(want, r); err != nil {
			return "", fmt.Errorf("in-process %s: encode record %d: %w", jd.name, r.Index, err)
		}
		want = append(want, '\n')
	}
	if bytes.Equal(want, body) {
		return "", nil
	}
	return fmt.Sprintf("fleet records of %s (seed %d) differ from the in-process engine: %d vs %d bytes",
		jd.name, jd.req.Seed, len(body), len(want)), nil
}

// inProcessRecords runs a sweep or optimize request on the in-process
// engine with as many evaluation goroutines as the fleet has.
func inProcessRecords(req service.Request) ([]sweep.Record, error) {
	ctx := context.Background()
	budget, err := sweep.ParseBudget(req.Budget)
	if err != nil {
		return nil, err
	}
	if req.Kind == service.KindOptimize {
		space, err := search.Get(req.Space)
		if err != nil {
			return nil, err
		}
		res, err := search.Optimize(ctx, search.Options{
			Space: space, Seed: req.Seed, Budget: budget, Workers: fleetWorkers,
			Generations: req.Generations, Population: req.Population,
		})
		if err != nil {
			return nil, err
		}
		return res.Records, nil
	}
	sp, err := spec.Parse(req.Spec)
	if err != nil {
		return nil, err
	}
	compiled, err := sp.Compile()
	if err != nil {
		return nil, err
	}
	res, err := sweep.Run(ctx, compiled.Scenario, sweep.Config{
		Workers: fleetWorkers, Seed: req.Seed, Budget: budget, Feasible: compiled.Feasible,
	})
	if err != nil {
		return nil, err
	}
	return res.Records, nil
}
