package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// poissonSchedule returns the due offsets of Poisson arrivals at rate per
// second over dur, drawn from rng.
func poissonSchedule(rng *rand.Rand, rate float64, dur time.Duration) []time.Duration {
	var due []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		d := time.Duration(t * float64(time.Second))
		if d >= dur {
			return due
		}
		due = append(due, d)
	}
}

// openLoop issues one request per due offset from a single generator, on
// at most conns connections. Request i is due at start+due[i] whether or
// not earlier requests have finished; do(c, i) performs it on connection
// c. Each latency is measured from the due time, so a stalled connection
// charges its wait to every request queued behind it; lag is how late the
// generator handed each request over.
func openLoop(start time.Time, due []time.Duration, conns int, do func(c, i int) error) (lat, lag []time.Duration, errs []error) {
	lat = make([]time.Duration, len(due))
	lag = make([]time.Duration, len(due))
	errs = make([]error, len(due))
	// Sized to the number of sends, so the generator never blocks on a
	// busy connection and its lateness reflects only its own scheduling.
	work := make(chan int, len(due))
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := range work {
				errs[i] = do(c, i)
				lat[i] = time.Since(start.Add(due[i]))
			}
		}(c)
	}
	for i, d := range due {
		at := start.Add(d)
		if wait := time.Until(at); wait > 0 {
			time.Sleep(wait)
		}
		lag[i] = max(time.Since(at), 0)
		work <- i
	}
	close(work)
	wg.Wait()
	return lat, lag, errs
}

// httpConn is one keep-alive HTTP/1.1 client connection that posts JSON
// bodies to a fixed path.
type httpConn struct {
	addr, path string
	c          net.Conn
	br         *bufio.Reader
	req        []byte
	resp       bytes.Buffer
}

func dialConn(addr, path string) (*httpConn, error) {
	h := &httpConn{addr: addr, path: path}
	return h, h.redial()
}

func (h *httpConn) redial() error {
	if h.c != nil {
		h.c.Close()
	}
	c, err := net.Dial("tcp", h.addr)
	if err != nil {
		h.c = nil
		return fmt.Errorf("dial %s: %w", h.addr, err)
	}
	h.c, h.br = c, bufio.NewReader(c)
	return nil
}

// post sends body and returns the status and the response body, which
// stays valid until the next post.
func (h *httpConn) post(body []byte) (int, []byte, error) {
	if h.c == nil {
		if err := h.redial(); err != nil {
			return 0, nil, err
		}
	}
	h.req = append(h.req[:0], "POST "...)
	h.req = append(h.req, h.path...)
	h.req = append(h.req, " HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: "...)
	h.req = strconv.AppendInt(h.req, int64(len(body)), 10)
	h.req = append(h.req, "\r\n\r\n"...)
	h.req = append(h.req, body...)
	if _, err := h.c.Write(h.req); err != nil {
		h.close()
		return 0, nil, fmt.Errorf("write: %w", err)
	}
	resp, err := http.ReadResponse(h.br, nil)
	if err != nil {
		h.close()
		return 0, nil, fmt.Errorf("read: %w", err)
	}
	h.resp.Reset()
	_, err = io.Copy(&h.resp, resp.Body)
	resp.Body.Close()
	if err != nil {
		h.close()
		return 0, nil, fmt.Errorf("read body: %w", err)
	}
	if resp.Close {
		h.close()
	}
	return resp.StatusCode, h.resp.Bytes(), nil
}

func (h *httpConn) close() {
	if h.c != nil {
		h.c.Close()
		h.c = nil
	}
}

// phaseStats summarises one open-loop phase at one offered rate. A failed
// request counts as missing every latency limit: it enters the latency
// sample as +Inf.
type phaseStats struct {
	Name      string  `json:"name"`
	Rate      float64 `json:"rate_rps"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Samples   int     `json:"samples"`
	P50ms     float64 `json:"p50_ms"`
	TailQ     float64 `json:"tail_q"`
	TailMs    float64 `json:"tail_ms"`
	P99ms     float64 `json:"p99_ms"`
	LagP99ms  float64 `json:"lag_p99_ms"`
	Pass      bool    `json:"pass"`
}

// Limits every ladder step must meet for its rate to count as sustained.
const (
	limitP99ms    = 25.0
	limitLagP99ms = 25.0
)

func summarize(name string, rate float64, lat, lag []time.Duration, failed []bool) phaseStats {
	ps := phaseStats{Name: name, Rate: rate, Attempted: len(lat), Samples: len(lat)}
	l := make([]float64, len(lat))
	for i, d := range lat {
		l[i] = ms(d)
		if failed[i] {
			l[i] = math.Inf(1)
			ps.Failed++
		}
	}
	g := make([]float64, len(lag))
	for i, d := range lag {
		g[i] = ms(d)
	}
	l, g = sortedCopy(l), sortedCopy(g)
	// -1 marks a figure the sample is too small to quote.
	ps.P50ms, ps.TailMs, ps.P99ms, ps.LagP99ms = -1, -1, -1, -1
	if len(l) > 0 {
		ps.P50ms = percentile(l, 0.5)
	}
	if q, v, ok := tailOf(l); ok {
		ps.TailQ, ps.TailMs = q, v
	}
	if supports(len(l), 0.99) {
		ps.P99ms = percentile(l, 0.99)
		ps.LagP99ms = percentile(g, 0.99)
	}
	ps.Pass = meets(ps)
	// A failed request's +Inf can reach a percentile; JSON cannot carry it.
	for _, v := range []*float64{&ps.P50ms, &ps.TailMs, &ps.P99ms} {
		if math.IsInf(*v, 0) {
			*v = -1
		}
	}
	return ps
}

// meets reports whether a ladder step sustained its rate: enough samples to
// quote a p99, no failed request, p99 latency and generator lag p99 within
// their limits.
func meets(ps phaseStats) bool {
	return supports(ps.Samples, 0.99) && ps.Failed == 0 &&
		ps.P99ms <= limitP99ms && ps.LagP99ms <= limitLagP99ms
}

// maxRate returns the highest rate among the ladder steps that met every
// limit, or 0 when none did.
func maxRate(steps []phaseStats) float64 {
	best := 0.0
	for _, s := range steps {
		if s.Pass && s.Rate > best {
			best = s.Rate
		}
	}
	return best
}
