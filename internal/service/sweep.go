package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/scenario"
)

// SweepRequest fans a batch of estimate requests across the worker
// pool: either an explicit request list, or a scenario document the
// server expands through exactly the path a client would (so both
// spellings yield byte-identical result lines and share cache entries).
type SweepRequest struct {
	Requests []EstimateRequest  `json:"requests,omitempty"`
	Scenario *scenario.Document `json:"scenario,omitempty"`
}

// decode reads a /sweep body and returns the requests it runs: the
// explicit list, or the scenario's expansion. A body must carry exactly
// one of the two, and an explicit list honors the same
// scenario.MaxPoints bound expansion enforces, so neither spelling can
// queue unbounded work.
func (sr *SweepRequest) decode(body io.Reader) ([]EstimateRequest, error) {
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(sr); err != nil {
		return nil, fmt.Errorf("decoding request: %w", err)
	}
	reqs := sr.Requests
	if sr.Scenario != nil {
		if len(reqs) > 0 {
			return nil, errors.New("sweep takes requests or a scenario, not both")
		}
		points, err := scenario.Expand(*sr.Scenario)
		if err != nil {
			return nil, err
		}
		reqs = make([]EstimateRequest, len(points))
		for i, pt := range points {
			reqs[i] = pt.Request
		}
	}
	if len(reqs) == 0 {
		return nil, errors.New("sweep needs at least one request")
	}
	if len(reqs) > scenario.MaxPoints {
		return nil, fmt.Errorf("sweep of %d requests exceeds the %d limit", len(reqs), scenario.MaxPoints)
	}
	return reqs, nil
}

// SweepLine is one NDJSON line of a sweep response: a per-request result
// (in completion order, Index mapping it back to the request) or error.
// The final line is the summary (Summary true, Result empty).
type SweepLine struct {
	Index     int             `json:"index"`
	Key       string          `json:"key,omitempty"`
	Error     string          `json:"error,omitempty"`
	Result    json.RawMessage `json:"result,omitempty"`
	Summary   bool            `json:"summary,omitempty"`
	Requested int             `json:"requested,omitempty"`
	OK        int             `json:"ok,omitempty"`
	Errors    int             `json:"errors,omitempty"`
	CacheHits int             `json:"cache_hits,omitempty"`
	// Deduped counts the indices that shared another index's fingerprint
	// within this batch and replayed its bytes instead of scheduling (or
	// cache-probing) their own run.
	Deduped int `json:"deduped,omitempty"`
	// DiskHits counts the subset of CacheHits answered by the persistent
	// store rather than the memory LRU (additive; memory-only daemons
	// never emit it).
	DiskHits int `json:"disk_hits,omitempty"`
	// Node is the worker that served a routed sweep point. Only the
	// ltsimr router's backend sets it; a single daemon's lines omit it.
	Node      string `json:"node,omitempty"`
	ElapsedMS int64  `json:"elapsed_ms,omitempty"`
}

// Sweep is the /sweep fan-out the daemon and the ltsimr router share;
// only the backend differs. Resolve maps a request to its dedupe key and
// the job Run answers it with (an error answers that index at once).
// Identical keys dedupe batch-wide, so N identical requests run once and
// every duplicate index replays the same bytes. Unique keys run on Pool
// goroutines and stream back as NDJSON lines as each finishes, so a
// sweep takes as long as its slowest key, not the sum. Run returns the
// line's Key, Result and Node and the X-Ltsimd-Cache tier that answered
// ("hit" and "disk" count as cache hits); a summary line ends the
// stream. Deduped, when set, gets the dedupe count before any key runs.
type Sweep[J any] struct {
	Pool    int
	Resolve func(EstimateRequest) (key string, job J, err error)
	Run     func(ctx context.Context, key string, job J) (line SweepLine, tier string, err error)
	Deduped func(n int)
}

// ServeHTTP decodes a /sweep body and streams the sweep.
func (sw Sweep[J]) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	var sreq SweepRequest
	reqs, err := sreq.decode(http.MaxBytesReader(w, r.Body, MaxBodyBytes))
	if err != nil {
		status := RequestStatus(err)
		if status == http.StatusRequestEntityTooLarge {
			err = fmt.Errorf("%w (limit %d bytes): split the sweep or send a scenario document", err, MaxBodyBytes)
		}
		WriteError(w, status, err)
		return
	}
	start := time.Now()
	w.Header().Set("Content-Type", "application/x-ndjson")
	emit := json.NewEncoder(FlushWriter{w}).Encode
	summary := SweepLine{Summary: true, Requested: len(reqs)}

	// Resolve across cores, then group serially: the first point with a
	// key stands for its group and collects the indices sharing it.
	type point struct {
		key     string
		job     J
		err     error
		indices []int
		line    SweepLine
		tier    string
	}
	points := make([]point, len(reqs))
	parallelFor(len(reqs), func(i int) {
		p := &points[i]
		p.key, p.job, p.err = sw.Resolve(reqs[i])
	})
	groups := make(map[string]*point)
	var order []*point
	for i := range points {
		p := &points[i]
		if p.err != nil {
			// Invalid requests answer immediately, in index order, ahead
			// of any simulation output.
			summary.Errors++
			emit(SweepLine{Index: i, Error: p.err.Error()})
			continue
		}
		if g, ok := groups[p.key]; ok {
			summary.Deduped++
			p = g
		} else {
			groups[p.key] = p
			order = append(order, p)
		}
		p.indices = append(p.indices, i)
	}
	if summary.Deduped > 0 && sw.Deduped != nil {
		sw.Deduped(summary.Deduped)
	}

	done := make(chan *point)
	var next atomic.Int64
	for range min(len(order), sw.Pool) {
		go func() {
			for gi := int(next.Add(1)) - 1; gi < len(order); gi = int(next.Add(1)) - 1 {
				g := order[gi]
				g.line, g.tier, g.err = sw.Run(r.Context(), g.key, g.job)
				done <- g
			}
		}()
	}
	for range order {
		g := <-done
		for _, i := range g.indices {
			if g.err != nil {
				summary.Errors++
				emit(SweepLine{Index: i, Key: g.key, Error: g.err.Error()})
				continue
			}
			summary.OK++
			switch g.tier {
			case tierMemory:
				summary.CacheHits++
			case tierDisk:
				summary.CacheHits++
				summary.DiskHits++
			}
			line := g.line
			line.Index = i
			emit(line)
		}
	}
	summary.ElapsedMS = time.Since(start).Milliseconds()
	emit(summary)
}

// parallelFor calls fn for every index in [0, n) on up to GOMAXPROCS
// goroutines and returns once all calls have: request resolution is pure
// CPU (build, canonicalize, hash), so a large batch fans it across cores.
func parallelFor(n int, fn func(i int)) {
	var wg sync.WaitGroup
	var next atomic.Int64
	for range min(runtime.GOMAXPROCS(0), n) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// FlushWriter flushes after every write, so each NDJSON line a handler
// encodes reaches the client as soon as it is written.
type FlushWriter struct{ http.ResponseWriter }

func (f FlushWriter) Write(p []byte) (int, error) {
	n, err := f.ResponseWriter.Write(p)
	f.Flush()
	return n, err
}

// Flush sends whatever the handler has written so far, headers
// included.
func (f FlushWriter) Flush() {
	if fl, ok := f.ResponseWriter.(http.Flusher); ok {
		fl.Flush()
	}
}
