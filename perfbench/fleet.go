package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"repro/internal/distsearch"
)

// fleetStats is the timing wrapper around distsearch.WorkerServer.Handler:
// it times every job install and shard-scoring request the workers serve,
// sizes the installed jobs, and notices a job a worker already held.
type fleetStats struct {
	mu     sync.Mutex
	c      fleetCounters
	seen   map[string]bool // worker address + job fingerprint already installed
	tr     *Tracer
	op     string
	parent int64
}

// fleetCounters are the wrapper's running totals.
type fleetCounters struct {
	installs    int
	installTime time.Duration
	jobBytes    int64
	cachedJobs  int
	shards      int
	shardTime   time.Duration
}

func newFleetStats(tr *Tracer) *fleetStats { return &fleetStats{seen: map[string]bool{}, tr: tr} }

// setOp names the fit whose requests the wrapper is about to see.
func (s *fleetStats) setOp(op string, parent int64) {
	s.mu.Lock()
	s.op, s.parent = op, parent
	s.mu.Unlock()
}

// snapshot returns the counters so a caller can take deltas.
func (s *fleetStats) snapshot() fleetCounters {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.c
}

// minus returns the counter deltas c − o.
func (c fleetCounters) minus(o fleetCounters) fleetCounters {
	return fleetCounters{installs: c.installs - o.installs, installTime: c.installTime - o.installTime,
		jobBytes: c.jobBytes - o.jobBytes, cachedJobs: c.cachedJobs - o.cachedJobs,
		shards: c.shards - o.shards, shardTime: c.shardTime - o.shardTime}
}

type countingReader struct {
	r io.ReadCloser
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

func (c *countingReader) Close() error { return c.r.Close() }

// teeWriter keeps a copy of a (small) response body.
type teeWriter struct {
	http.ResponseWriter
	body bytes.Buffer
}

func (t *teeWriter) Write(p []byte) (int, error) {
	t.body.Write(p)
	return t.ResponseWriter.Write(p)
}

func (s *fleetStats) wrap(addr string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/v1/job":
			cr := &countingReader{r: r.Body}
			r.Body = cr
			tw := &teeWriter{ResponseWriter: w}
			t0 := time.Now()
			h.ServeHTTP(tw, r)
			t1 := time.Now()
			var resp struct {
				Fingerprint string `json:"fingerprint"`
			}
			_ = json.Unmarshal(tw.body.Bytes(), &resp) // an error answer has no fingerprint
			s.mu.Lock()
			s.c.installs++
			s.c.installTime += t1.Sub(t0)
			s.c.jobBytes += cr.n
			key := addr + "/" + resp.Fingerprint
			if resp.Fingerprint != "" && s.seen[key] {
				s.c.cachedJobs++
			}
			s.seen[key] = true
			op, parent := s.op, s.parent
			s.mu.Unlock()
			s.tr.Add("distsearch.install", op, parent, t0, t1)
		case "/v1/score":
			t0 := time.Now()
			h.ServeHTTP(w, r)
			t1 := time.Now()
			s.mu.Lock()
			s.c.shards++
			s.c.shardTime += t1.Sub(t0)
			op, parent := s.op, s.parent
			s.mu.Unlock()
			s.tr.Add("distsearch.shard", op, parent, t0, t1)
		default:
			h.ServeHTTP(w, r)
		}
	})
}

// fleet is a set of in-process distsearch workers, each behind its own
// loopback HTTP listener.
type fleet struct {
	addrs   []string
	servers []*http.Server
	wg      sync.WaitGroup
}

// startFleet starts n workers at Parallelism 1 and waits until each
// answers its health check.
func startFleet(ctx context.Context, n int, stats *fleetStats) (*fleet, error) {
	f := &fleet{}
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			f.stop()
			return nil, fmt.Errorf("worker listen: %w", err)
		}
		addr := ln.Addr().String()
		w := &distsearch.WorkerServer{Parallelism: 1, MaxJobs: 1}
		srv := &http.Server{Handler: stats.wrap(addr, w.Handler())}
		f.addrs = append(f.addrs, addr)
		f.servers = append(f.servers, srv)
		f.wg.Add(1)
		go func() {
			defer f.wg.Done()
			_ = srv.Serve(ln) // returns ErrServerClosed once stop shuts it down
		}()
	}
	for _, a := range f.addrs {
		if err := healthy(ctx, a); err != nil {
			f.stop()
			return nil, err
		}
	}
	return f, nil
}

func healthy(ctx context.Context, addr string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+addr+"/v1/healthz", nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return fmt.Errorf("worker %s health check: %w", addr, err)
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("worker %s health check: status %d", addr, resp.StatusCode)
	}
	return nil
}

// stop shuts every worker down and waits for its serve loop to exit.
func (f *fleet) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, s := range f.servers {
		if err := s.Shutdown(ctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
			s.Close()
		}
	}
	f.wg.Wait()
	http.DefaultClient.CloseIdleConnections()
}
