package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http/httptest"
	"os"
	"runtime"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/sweep"
	"repro/internal/sweep/store"
)

// fleetWorkers is the number of HTTP workers, each evaluating one point
// at a time: two evaluation goroutines, one per CPU of the 2-vCPU box
// the baseline was recorded on.
const fleetWorkers = 2

// system is the system under test, all in this process: a distributed
// sweepd (cmd/sweepd's defaults) behind a loopback HTTP server, and an
// HTTP worker fleet driving it through service.Client.
type system struct {
	dir   string
	store *store.Sharded
	mgr   *service.Manager
	srv   *httptest.Server

	stopWorkers context.CancelFunc
	workers     sync.WaitGroup
}

// startSystem brings the system up on a fresh store under scratch and
// returns once the daemon answers /healthz and every worker has asked
// for its first lease. A non-nil probe wraps the store and the workers'
// clients to record per-layer timings.
func startSystem(scratch string, p *probe) (*system, error) {
	dir, err := os.MkdirTemp(scratch, "store-")
	if err != nil {
		return nil, err
	}
	reg := obs.NewRegistry()
	st, err := store.OpenSharded(dir, 0, store.Options{Metrics: reg})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	var cache sweep.Cache = st
	if p != nil {
		cache = &timedCache{inner: st, p: p}
	}
	// The daemon logs at sweepd's default level; the lines are formatted
	// as in production and then dropped, so their cost is measured but
	// the benchmark's output stays readable.
	logger := obs.NewLogger(io.Discard, slog.LevelInfo)
	s := &system{dir: dir, store: st}
	s.mgr = service.New(service.Options{
		Distributed: true,
		ChunkPoints: 4,
		LeaseTTL:    30 * time.Second,
		Cache:       cache,
		Metrics:     reg,
		Trace:       obs.NewCollector(obs.DefaultCollectorCap),
		Logger:      logger,
		StoreStats: func() (store.Stats, []store.Stats) {
			return st.Stats(), st.ShardStats()
		},
	})
	s.srv = httptest.NewServer(service.NewHandler(s.mgr))
	ctx, cancel := context.WithCancel(context.Background())
	s.stopWorkers = cancel
	for i := 0; i < fleetWorkers; i++ {
		cl := service.NewClient(s.srv.URL)
		var api service.WorkerAPI = cl
		if p != nil {
			api = &timedWorker{inner: cl, p: p}
		}
		name := fmt.Sprintf("w%d", i)
		s.workers.Add(1)
		go func() {
			defer s.workers.Done()
			err := service.RunWorker(ctx, api, service.WorkerOptions{Name: name, Workers: 1, Logger: logger})
			if err != nil && !errors.Is(err, context.Canceled) {
				fmt.Fprintf(os.Stderr, "worker %s stopped: %v\n", name, err)
			}
		}()
	}
	if err := s.waitReady(); err != nil {
		_ = s.stop() // the readiness failure is the error to report
		return nil, err
	}
	return s, nil
}

// waitReady polls, back to back so the poll period does not pad the
// measured set-up time, until /healthz answers and the fleet view lists
// every worker.
func (s *system) waitReady() error {
	c := newClient(s.srv.URL)
	defer c.close()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if c.get("/healthz", nil) == nil {
			var fleet []service.WorkerView
			if err := c.get("/api/v1/workers", &fleet); err == nil && len(fleet) == fleetWorkers {
				return nil
			}
		}
		runtime.Gosched()
	}
	return errors.New("system did not become ready within 10s")
}

// stop tears the system down: workers first (their in-flight
// evaluations are cancelled), then the listener, the manager and the
// store, and finally removes the store directory.
func (s *system) stop() error {
	s.stopWorkers()
	s.workers.Wait()
	s.srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.mgr.Shutdown(ctx)
	if cerr := s.store.Close(); err == nil {
		err = cerr
	}
	if rerr := os.RemoveAll(s.dir); err == nil {
		err = rerr
	}
	return err
}
