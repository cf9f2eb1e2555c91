package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// newHTTPClient returns a client with at most conns keep-alive connections
// per endpoint; a request that finds them all busy waits for one.
func newHTTPClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxIdleConns:        4 * conns,
			MaxIdleConnsPerHost: conns,
			MaxConnsPerHost:     conns,
			DisableCompression:  true,
			IdleConnTimeout:     90 * time.Second,
		},
	}
}

// send sends one operation to base. The body is always read in full;
// it is returned only when keep is set (the verification pass), so load
// phases never decode or retain responses.
func send(ctx context.Context, hc *http.Client, base string, method, path string, body []byte, keep bool) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	if keep {
		out, err := io.ReadAll(resp.Body)
		return resp.StatusCode, out, err
	}
	_, err = io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, nil, err
}

// tally counts attempted and failed operations per operation type.
type tally struct {
	mu        sync.Mutex
	attempted map[string]int
	failed    map[string]int
	firstErr  string
}

func newTally() *tally {
	return &tally{attempted: map[string]int{}, failed: map[string]int{}}
}

func (t *tally) add(kind string, ok bool, detail string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted[kind]++
	if !ok {
		t.failed[kind]++
		if t.firstErr == "" {
			t.firstErr = kind + ": " + detail
		}
	}
}

func (t *tally) totals() (attempted, failed int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, n := range t.attempted {
		attempted += n
	}
	for _, n := range t.failed {
		failed += n
	}
	return attempted, failed
}

// turnstile releases writes strictly in sequence order, so one logical
// sender sends every write whatever connection carries it.
type turnstile struct {
	mu   sync.Mutex
	cond *sync.Cond
	next int
}

func newTurnstile() *turnstile {
	t := &turnstile{}
	t.cond = sync.NewCond(&t.mu)
	return t
}

func (t *turnstile) wait(seq int) {
	t.mu.Lock()
	for t.next != seq {
		t.cond.Wait()
	}
	t.mu.Unlock()
}

func (t *turnstile) done() {
	t.mu.Lock()
	t.next++
	t.cond.Broadcast()
	t.mu.Unlock()
}

// loader sends a workload's operations to one endpoint.
type loader struct {
	hc    *http.Client
	base  string
	tally *tally
	turn  *turnstile
	// onAck records every acknowledged write, in sending order.
	onAck func(*op)
}

// exec sends one operation, honouring write order, and reports whether
// the program acknowledged it.
func (d *loader) exec(ctx context.Context, o *op) bool {
	if o.writeSeq >= 0 {
		d.turn.wait(o.writeSeq)
		defer d.turn.done()
	}
	status, _, err := send(ctx, d.hc, d.base, o.method, o.path, o.body, false)
	ok := err == nil && status == http.StatusOK
	detail := fmt.Sprintf("%s %s: status %d", o.method, o.path, status)
	if err != nil {
		detail = err.Error()
	}
	d.tally.add(o.kind.String(), ok, detail)
	if ok && o.writeSeq >= 0 && d.onAck != nil {
		d.onAck(o)
	}
	return ok
}

// closedLoop runs ops with clients concurrent senders, each sending its
// next operation only after the previous one completed, and returns the
// elapsed wall time.
func (d *loader) closedLoop(ctx context.Context, ops []*op, clients int) time.Duration {
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(ops) {
					return
				}
				d.exec(ctx, ops[i])
			}
		}()
	}
	wg.Wait()
	return time.Since(start)
}

// serialResult holds a sequential phase's latencies, per operation type.
type serialResult struct {
	read, write []float64 // milliseconds
	elapsed     time.Duration
}

// serialLoop sends ops one at a time from a single client: each request
// is sent when the previous one has completed and is timed from send to
// last byte read. With one request in flight, a stall from outside (a
// vCPU the hypervisor gave to another guest) delays only the request in
// flight, not a queue of requests behind it, so the latency quantiles
// hold steady on a shared machine.
func (d *loader) serialLoop(ctx context.Context, ops []*op) *serialResult {
	res := &serialResult{}
	start := time.Now()
	for _, o := range ops {
		t0 := time.Now()
		ok := d.exec(ctx, o)
		ms := float64(time.Since(t0).Nanoseconds()) / 1e6
		if !ok {
			continue
		}
		if o.kind == opRead {
			res.read = append(res.read, ms)
		} else {
			res.write = append(res.write, ms)
		}
	}
	res.elapsed = time.Since(start)
	return res
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (xs is sorted in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	return xs[lo]*(1-frac) + xs[lo+1]*frac
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
