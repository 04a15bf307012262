package main

import (
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/sweep"
)

// probe collects per-layer timings in the traced run. It only observes:
// the wrappers forward every call unchanged and record around it.
type probe struct {
	mu sync.Mutex
	// on gates recording to the timed phase; the fill, the warm-up and
	// the checks run through the same wrappers unrecorded.
	on bool

	leaseCalls, leaseEmpty int
	leases                 map[string]*leaseLife // by lease ID
	completeS              []float64
	completeErrors         int

	gets, hits int
	getS, putS []float64
}

// leaseLife is one lease's history as the worker saw it.
type leaseLife struct {
	job      string
	minIndex int // smallest point index of an optimizer lease, -1 for grid leases
	leased   time.Time
	posted   time.Time // first completion or failure call
	returned time.Time // last completion or failure call returned
}

func newProbe() *probe { return &probe{leases: map[string]*leaseLife{}} }

// start begins recording.
func (p *probe) start() {
	p.mu.Lock()
	p.on = true
	p.mu.Unlock()
}

// stop ends recording; the collected values stay readable.
func (p *probe) stop() {
	p.mu.Lock()
	p.on = false
	p.mu.Unlock()
}

// timedWorker wraps a worker's service.Client.
type timedWorker struct {
	inner *service.Client
	p     *probe
}

func (w *timedWorker) Lease(worker string) (service.Lease, bool, error) {
	l, ok, err := w.inner.Lease(worker)
	now := time.Now()
	p := w.p
	p.mu.Lock()
	if p.on {
		p.leaseCalls++
		if !ok {
			p.leaseEmpty++
		}
		if ok {
			ll := &leaseLife{job: l.JobID, minIndex: -1, leased: now}
			for i, pt := range l.Points {
				if i == 0 || pt.Index < ll.minIndex {
					ll.minIndex = pt.Index
				}
			}
			p.leases[l.ID] = ll
		}
	}
	p.mu.Unlock()
	return l, ok, err
}

func (w *timedWorker) Heartbeat(leaseID string) (time.Duration, error) {
	return w.inner.Heartbeat(leaseID)
}

func (w *timedWorker) Complete(leaseID string, recs []sweep.Record) error {
	return w.post(leaseID, func() error { return w.inner.Complete(leaseID, recs) })
}

func (w *timedWorker) CompleteTraced(leaseID string, recs []sweep.Record, spans []obs.SpanRecord) error {
	return w.post(leaseID, func() error { return w.inner.CompleteTraced(leaseID, recs, spans) })
}

func (w *timedWorker) FailLease(leaseID, reason string) error {
	return w.post(leaseID, func() error { return w.inner.FailLease(leaseID, reason) })
}

// post times one completion-side call and stamps the lease's history.
func (w *timedWorker) post(leaseID string, call func() error) error {
	t0 := time.Now()
	err := call()
	t1 := time.Now()
	p := w.p
	p.mu.Lock()
	if p.on {
		p.completeS = append(p.completeS, t1.Sub(t0).Seconds())
		if err != nil {
			p.completeErrors++
		}
		if ll := p.leases[leaseID]; ll != nil {
			if ll.posted.IsZero() {
				ll.posted = t0
			}
			ll.returned = t1
		}
	}
	p.mu.Unlock()
	return err
}

// timedCache wraps the result store behind sweep.Cache.
type timedCache struct {
	inner sweep.Cache
	p     *probe
}

func (c *timedCache) Get(key string) (sweep.Record, bool) {
	t0 := time.Now()
	rec, ok := c.inner.Get(key)
	d := time.Since(t0).Seconds()
	p := c.p
	p.mu.Lock()
	if p.on {
		p.gets++
		if ok {
			p.hits++
		}
		p.getS = append(p.getS, d)
	}
	p.mu.Unlock()
	return rec, ok
}

func (c *timedCache) Put(key string, rec sweep.Record) {
	t0 := time.Now()
	c.inner.Put(key, rec)
	d := time.Since(t0).Seconds()
	p := c.p
	p.mu.Lock()
	if p.on {
		p.putS = append(p.putS, d)
	}
	p.mu.Unlock()
}
