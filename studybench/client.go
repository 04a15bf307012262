package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/service"
)

// Poll back-off: the first status poll follows the submit immediately,
// and the wait between polls doubles from pollFloor up to 1/pollShare of
// the job's elapsed time. A 10 s cold job then costs about 200 cheap
// polls, and a 1 ms warm job is seen done within tens of microseconds.
const (
	pollFloor = 20 * time.Microsecond
	pollShare = 50
)

// client is the benchmark's user: one closed-loop client on one HTTP
// connection, submitting a job, polling it and streaming its records
// before it submits the next.
type client struct {
	base string
	hc   *http.Client
	// httpS, when non-nil, collects per-call timings for the traced run.
	httpS *httpTimes
}

// httpTimes are the client-side HTTP call durations of the traced run.
type httpTimes struct {
	submit, records []float64
	polls           int
}

func newClient(base string) *client {
	return &client{base: base, hc: &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
	}}}
}

// close drops the client's idle connection.
func (c *client) close() { c.hc.CloseIdleConnections() }

// Failure causes a job can be counted under.
const (
	causeDeadline  = "deadline"     // not terminal by the deadline; cancelled
	causeState     = "state"        // ended failed or cancelled
	causeShort     = "short_stream" // streamed line count differs from progress.total
	causeBadLine   = "bad_line"     // a streamed line does not decode as a record
	causeNotCached = "not_cached"   // a warm resubmission computed points
	causeHTTP      = "http"         // a request failed outright
)

// outcome is what the client observed of one job.
type outcome struct {
	name  string
	seed  uint64
	id    string
	cause string // "" for an OK job

	submitted   time.Time       // before the submit request was sent
	sawTerminal time.Time       // first poll that returned a terminal state
	firstS      float64         // submit to the first complete record line
	lastS       float64         // submit to the last record byte
	view        service.JobView // the last view the client saw
	lines       int             // streamed record lines
	streamBytes int             // streamed NDJSON bytes
}

func (o *outcome) ok() bool { return o.cause == "" }

// submit posts req and returns the job's outcome so far; a failed
// submit is recorded as its cause.
func (c *client) submit(name string, req service.Request) *outcome {
	o := &outcome{name: name, seed: req.Seed}
	body, err := json.Marshal(req)
	if err != nil {
		panic(err) // a Request always marshals
	}
	o.submitted = time.Now()
	if err := c.call(http.MethodPost, "/api/v1/jobs", body, http.StatusAccepted, &o.view); err != nil {
		o.cause = causeHTTP
		return o
	}
	if c.httpS != nil {
		c.httpS.submit = append(c.httpS.submit, time.Since(o.submitted).Seconds())
	}
	o.id = o.view.ID
	return o
}

// follow polls a submitted job to a terminal state and streams its
// records into buf, which it returns for reuse. A job still running
// deadline after its submit is cancelled with DELETE.
func (c *client) follow(o *outcome, deadline time.Duration, buf []byte) []byte {
	buf = buf[:0]
	if o.cause != "" {
		return buf
	}
	v := &o.view
	wait := pollFloor
	for {
		if err := c.call(http.MethodGet, "/api/v1/jobs/"+o.id, nil, http.StatusOK, v); err != nil {
			o.cause = causeHTTP
			return buf
		}
		if c.httpS != nil {
			c.httpS.polls++
		}
		if v.State.Terminal() {
			o.sawTerminal = time.Now()
			break
		}
		elapsed := time.Since(o.submitted)
		if elapsed >= deadline {
			o.cause = causeDeadline
			// The job counts as failed whatever the cancel answers.
			_ = c.call(http.MethodDelete, "/api/v1/jobs/"+o.id, nil, http.StatusOK, v)
			return buf
		}
		if limit := elapsed / pollShare; wait > limit {
			wait = max(limit, pollFloor)
		}
		time.Sleep(min(wait, deadline-elapsed))
		wait *= 2
	}
	if v.State != service.StateDone {
		o.cause = causeState
		return buf
	}
	t := time.Now()
	buf, err := c.stream(o, buf)
	if err != nil {
		o.cause = causeHTTP
		return buf
	}
	if c.httpS != nil {
		c.httpS.records = append(c.httpS.records, time.Since(t).Seconds())
	}
	o.lines = bytes.Count(buf, []byte{'\n'})
	o.streamBytes = len(buf)
	if o.lines != v.Progress.Total {
		o.cause = causeShort
	}
	return buf
}

// stream reads the job's NDJSON records into buf, stamping the first
// complete line and the last byte.
func (c *client) stream(o *outcome, buf []byte) ([]byte, error) {
	resp, err := c.hc.Get(c.base + "/api/v1/jobs/" + o.id + "/records")
	if err != nil {
		return buf, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return buf, fmt.Errorf("records: status %d", resp.StatusCode)
	}
	r := bufio.NewReaderSize(resp.Body, 64<<10)
	for {
		chunk, err := r.ReadSlice('\n')
		buf = append(buf, chunk...)
		if len(chunk) > 0 && chunk[len(chunk)-1] == '\n' && o.firstS == 0 {
			o.firstS = time.Since(o.submitted).Seconds()
		}
		if err == io.EOF {
			break
		}
		if err != nil && err != bufio.ErrBufferFull {
			return buf, err
		}
	}
	o.lastS = time.Since(o.submitted).Seconds()
	return buf, nil
}

// call sends one JSON request, expects status want and decodes the
// response into out, unless out is nil. The body is always drained so
// the connection is reused.
func (c *client) call(method, path string, body []byte, want int, out any) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(data))
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(data, out)
}

// get fetches a JSON document outside the timed path: readiness and
// timelines.
func (c *client) get(path string, out any) error {
	return c.call(http.MethodGet, path, nil, http.StatusOK, out)
}
