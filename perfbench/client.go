package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"time"

	"parsim"
	"parsim/internal/server"
)

// daemon is an in-process parsimd node behind a loopback listener,
// configured with parsimd's flag defaults.
type daemon struct {
	srv  *server.Server
	http *http.Server
	base string
	done chan error
}

func startDaemon() (*daemon, error) {
	srv, err := server.New(server.Config{
		CoreBudget:      runtime.GOMAXPROCS(0),
		MaxQueue:        256,
		MaxBodyBytes:    8 << 20,
		MaxNodes:        200000,
		MaxElems:        200000,
		DefaultDeadline: 2 * time.Minute,
		MaxDeadline:     10 * time.Minute,
		DedupCache:      256,
	})
	if err != nil {
		return nil, fmt.Errorf("server.New: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	d := &daemon{
		srv:  srv,
		http: &http.Server{Handler: srv.Handler()},
		base: "http://" + ln.Addr().String(),
		done: make(chan error, 1),
	}
	go func() { d.done <- d.http.Serve(ln) }()
	return d, nil
}

// stop drains the service and closes the listener, waiting for both.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	err := d.srv.Drain(ctx)
	if serr := d.http.Shutdown(ctx); err == nil {
		err = serr
	}
	<-d.done
	return err
}

// client is the single closed-loop caller: it submits one job, waits for
// its result and only then submits the next.
type client struct {
	hc   *http.Client
	base string
	// span records a client span when the pass is traced; nil otherwise.
	span func(name string, start, end time.Time)
}

func newClient(base string) *client {
	return &client{
		hc:   &http.Client{Transport: &http.Transport{DisableCompression: true, MaxIdleConnsPerHost: 2}},
		base: base,
	}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// jobView is the subset of the daemon's job view the client reads.
type jobView struct {
	ID       string         `json:"id"`
	State    string         `json:"state"`
	QueuedMS int64          `json:"queued_ms"`
	RunMS    int64          `json:"run_ms"`
	Error    string         `json:"error"`
	Result   *parsim.Result `json:"result"`
}

func (v *jobView) terminal() bool {
	return v.State == "done" || v.State == "failed" || v.State == "cancelled"
}

// outcome is one job as the client saw it.
type outcome struct {
	latency  time.Duration // POST to result JSON decoded
	polls    int           // GETs issued
	rejected bool          // the POST was refused
	view     jobView
	err      string // transport, refusal or job failure; "" when the job is done
}

// pollDelay is the wait before the next GET: a twentieth of the time the
// job has taken so far, between 100µs and 5ms, so a result is seen within
// about 5% of its latency without flooding the daemon on long jobs.
func pollDelay(elapsed time.Duration) time.Duration {
	d := elapsed / 20
	if d < 100*time.Microsecond {
		return 100 * time.Microsecond
	}
	if d > 5*time.Millisecond {
		return 5 * time.Millisecond
	}
	return d
}

// run submits one job and polls until it is terminal.
func (c *client) run(body []byte) outcome {
	var o outcome
	start := time.Now()
	status, err := c.do(http.MethodPost, "/v1/jobs", body, &o.view)
	if c.span != nil {
		c.span("server.submit", start, time.Now())
	}
	if err != nil {
		o.err = err.Error()
		return o
	}
	if status != http.StatusAccepted {
		o.rejected = true
		o.err = fmt.Sprintf("submission refused: HTTP %d", status)
		return o
	}
	id := o.view.ID
	for !o.view.terminal() {
		time.Sleep(pollDelay(time.Since(start)))
		t := time.Now()
		o.view = jobView{}
		status, err := c.do(http.MethodGet, "/v1/jobs/"+id, nil, &o.view)
		o.polls++
		if c.span != nil {
			c.span("server.poll", t, time.Now())
		}
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("poll %s: HTTP %d", id, status)
		}
		if err != nil {
			o.err = err.Error()
			return o
		}
	}
	o.latency = time.Since(start)
	if o.view.State != "done" {
		o.err = fmt.Sprintf("job %s %s: %s", id, o.view.State, o.view.Error)
	}
	return o
}

func (c *client) do(method, path string, body []byte, into any) (int, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		io.Copy(io.Discard, resp.Body) // drain so the connection is reused
		return resp.StatusCode, nil
	}
	if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
		return resp.StatusCode, fmt.Errorf("%s %s: decode: %w", method, path, err)
	}
	return resp.StatusCode, nil
}

// counters scrapes named counters from the daemon's /metrics.
func (c *client) counters(names ...string) (map[string]float64, error) {
	resp, err := c.hc.Get(c.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	want := map[string]bool{}
	for _, n := range names {
		want[n] = true
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) == 2 && want[f[0]] {
			v, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return nil, fmt.Errorf("metrics: %s: %w", f[0], err)
			}
			out[f[0]] = v
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	for _, n := range names {
		if _, ok := out[n]; !ok {
			return nil, fmt.Errorf("metrics: no counter %s", n)
		}
	}
	return out, nil
}
