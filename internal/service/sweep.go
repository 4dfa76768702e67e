package service

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
	"unicode/utf8"

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
// sweep takes as long as its slowest key, not the sum. Run gets its job
// through a function it calls only when it needs the job, and returns
// the line's Key, Result and Node and the X-Ltsimd-Cache tier that
// answered ("hit" and "disk" count as cache hits); a summary line ends
// the stream. Result must be compact JSON as json.Marshal writes it: it
// is copied into the line verbatim. Deduped, when set, gets the dedupe
// count before any key runs.
//
// Memo, when set, remembers the keys of every body whose points all
// resolved. A repeated body takes its keys from there and skips the
// decode, the scenario expansion and Resolve; only when Run asks for a
// job is the body decoded, once per request, and that one point resolved
// again.
type Sweep[J any] struct {
	Pool    int
	Memo    *SweepMemo
	Resolve func(EstimateRequest) (key string, job J, err error)
	Run     func(ctx context.Context, key string, job func() (J, error)) (line SweepLine, tier string, err error)
	Deduped func(n int)
}

// sweepPoint is one index of a sweep, or, once grouped, the first index
// of a key and the indices sharing it.
type sweepPoint[J any] struct {
	key     string
	job     J
	err     error
	indices []int
	line    SweepLine
	tier    string
}

// points resolves body to one point per request, and job returns the job
// of index i. A body the memo remembers takes its keys from there (see
// remembered). Any other body is decoded and every request resolved
// across cores, and its keys are remembered if every request resolved.
func (sw Sweep[J]) points(body []byte) (points []sweepPoint[J], job func(i int) (J, error), err error) {
	var sum [sha256.Size]byte
	if sw.Memo != nil {
		sum = sha256.Sum256(body)
		if keys, ok := sw.Memo.get(sum); ok {
			points, job = sw.remembered(body, keys)
			return points, job, nil
		}
	}
	reqs, err := new(SweepRequest).decode(bytes.NewReader(body))
	if err != nil {
		return nil, nil, err
	}
	points = make([]sweepPoint[J], len(reqs))
	parallelFor(len(reqs), func(i int) {
		p := &points[i]
		p.key, p.job, p.err = sw.Resolve(reqs[i])
	})
	job = func(i int) (J, error) { return points[i].job, nil }
	if sw.Memo == nil {
		return points, job, nil
	}
	keys := make([]string, len(points))
	for i := range points {
		if points[i].err != nil {
			return points, job, nil
		}
		keys[i] = points[i].key
	}
	sw.Memo.put(sum, keys, len(keys))
	return points, job, nil
}

// remembered makes the points of a body the memo remembers from its
// keys. job resolves point i again when Run asks for it, decoding the
// body the first time.
func (sw Sweep[J]) remembered(body []byte, keys []string) ([]sweepPoint[J], func(i int) (J, error)) {
	points := make([]sweepPoint[J], len(keys))
	for i, key := range keys {
		points[i].key = key
	}
	var once sync.Once
	var reqs []EstimateRequest
	var decodeErr error
	return points, func(i int) (J, error) {
		once.Do(func() { reqs, decodeErr = new(SweepRequest).decode(bytes.NewReader(body)) })
		if decodeErr != nil {
			var zero J
			return zero, decodeErr
		}
		_, j, err := sw.Resolve(reqs[i])
		return j, err
	}
}

// ServeHTTP reads a /sweep body and streams the sweep.
func (sw Sweep[J]) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	body, err := ReadBody(w, r)
	start := time.Now()
	var points []sweepPoint[J]
	var job func(int) (J, error)
	if err != nil {
		err = fmt.Errorf("decoding request: %w", err)
	} else {
		points, job, err = sw.points(body)
	}
	if err != nil {
		status := RequestStatus(err)
		if status == http.StatusRequestEntityTooLarge {
			err = fmt.Errorf("%w (limit %d bytes): split the sweep or send a scenario document", err, MaxBodyBytes)
		}
		WriteError(w, status, err)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	out := FlushWriter{w}
	var buf []byte
	emit := func(line *SweepLine) {
		buf = appendSweepLine(buf[:0], line)
		out.Write(buf)
	}
	summary := SweepLine{Summary: true, Requested: len(points)}

	// Group serially: the first point with a key stands for its group
	// and collects the indices sharing it.
	groups := make(map[string]*sweepPoint[J])
	var order []*sweepPoint[J]
	for i := range points {
		p := &points[i]
		if p.err != nil {
			// Invalid requests answer immediately, in index order, ahead
			// of any simulation output.
			summary.Errors++
			emit(&SweepLine{Index: i, Error: p.err.Error()})
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

	done := make(chan *sweepPoint[J])
	var next atomic.Int64
	for range min(len(order), sw.Pool) {
		go func() {
			for gi := int(next.Add(1)) - 1; gi < len(order); gi = int(next.Add(1)) - 1 {
				g := order[gi]
				g.line, g.tier, g.err = sw.Run(r.Context(), g.key, func() (J, error) { return job(g.indices[0]) })
				done <- g
			}
		}()
	}
	for range order {
		g := <-done
		for _, i := range g.indices {
			if g.err != nil {
				summary.Errors++
				emit(&SweepLine{Index: i, Key: g.key, Error: g.err.Error()})
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
			g.line.Index = i
			emit(&g.line)
		}
	}
	summary.ElapsedMS = time.Since(start).Milliseconds()
	emit(&summary)
}

// appendSweepLine appends line as a json.Encoder writes it: the same
// fields in the same order under the same omitempty rules, the same
// string escaping, and a trailing newline. Result is copied verbatim,
// where the Encoder would compact and HTML-escape it; that is the same
// bytes because Sweep's Run contract keeps Result to json.Marshal output.
func appendSweepLine(dst []byte, line *SweepLine) []byte {
	dst = strconv.AppendInt(append(dst, `{"index":`...), int64(line.Index), 10)
	dst = appendStringField(dst, `,"key":`, line.Key)
	dst = appendStringField(dst, `,"error":`, line.Error)
	if len(line.Result) > 0 {
		dst = append(append(dst, `,"result":`...), line.Result...)
	}
	if line.Summary {
		dst = append(dst, `,"summary":true`...)
	}
	dst = appendIntField(dst, `,"requested":`, int64(line.Requested))
	dst = appendIntField(dst, `,"ok":`, int64(line.OK))
	dst = appendIntField(dst, `,"errors":`, int64(line.Errors))
	dst = appendIntField(dst, `,"cache_hits":`, int64(line.CacheHits))
	dst = appendIntField(dst, `,"deduped":`, int64(line.Deduped))
	dst = appendIntField(dst, `,"disk_hits":`, int64(line.DiskHits))
	dst = appendStringField(dst, `,"node":`, line.Node)
	dst = appendIntField(dst, `,"elapsed_ms":`, line.ElapsedMS)
	return append(dst, "}\n"...)
}

// appendIntField appends an omitempty integer field.
func appendIntField(dst []byte, name string, v int64) []byte {
	if v == 0 {
		return dst
	}
	return strconv.AppendInt(append(dst, name...), v, 10)
}

// appendStringField appends an omitempty string field. Printable ASCII
// that JSON and HTML escaping both leave alone, as keys and node names
// always are, is copied; any other string is encoded by encoding/json,
// so its escaping is the Encoder's by construction.
func appendStringField(dst []byte, name, s string) []byte {
	if s == "" {
		return dst
	}
	dst = append(dst, name...)
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= utf8.RuneSelf || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			b, _ := json.Marshal(s) // a string always marshals
			return append(dst, b...)
		}
	}
	return append(append(append(dst, '"'), s...), '"')
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
