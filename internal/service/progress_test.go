package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
	"time"
)

// streamFrames posts a progress request and decodes the NDJSON frames.
func streamFrames(t *testing.T, url string, req EstimateRequest) (frames []EstimateFrame, contentType string) {
	t.Helper()
	resp := postJSON(t, url+"/estimate", req)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("progress request: %s", resp.Status)
	}
	contentType = resp.Header.Get("Content-Type")
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var f EstimateFrame
		if err := json.Unmarshal(sc.Bytes(), &f); err != nil {
			t.Fatalf("bad frame %q: %v", sc.Text(), err)
		}
		frames = append(frames, f)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return frames, contentType
}

// A progress-streamed estimate must emit at least one progress frame
// before the final frame, and the final frame's result must be the
// exact bytes a plain request (or a cache replay) serves.
func TestEstimateProgressStreaming(t *testing.T) {
	_, ts := newTestService(t)
	seed := uint64(3)
	// > DefaultBatchSize trials so at least one non-final boundary exists.
	req := EstimateRequest{Trials: 600, HorizonYears: 50, Seed: &seed, Progress: true}

	frames, ct := streamFrames(t, ts.URL, req)
	if ct != "application/x-ndjson" {
		t.Errorf("content type %q, want application/x-ndjson", ct)
	}
	if len(frames) < 2 {
		t.Fatalf("got %d frames, want at least one progress + one final", len(frames))
	}
	final := frames[len(frames)-1]
	if !final.Final || final.Cache != "miss" || len(final.Result) == 0 {
		t.Fatalf("bad final frame: %+v", final)
	}
	for i, f := range frames[:len(frames)-1] {
		if f.Final || f.Progress == nil {
			t.Fatalf("frame %d is not a progress frame: %+v", i, f)
		}
		if f.Progress.Budget != 600 {
			t.Errorf("frame %d budget %d, want 600", i, f.Progress.Budget)
		}
	}

	// The same request without progress serves the identical result body
	// — from cache, since the streamed run populated it.
	plainReq := req
	plainReq.Progress = false
	resp := postJSON(t, ts.URL+"/estimate", plainReq)
	if got := resp.Header.Get("X-Ltsimd-Cache"); got != "hit" {
		t.Errorf("plain request after streamed run: cache %q, want hit", got)
	}
	body := bytes.TrimSpace(readAll(t, resp))
	if !bytes.Equal(body, bytes.TrimSpace(final.Result)) {
		t.Error("final frame result differs from the plain response body")
	}

	// A second streamed request hits the cache: single final frame.
	frames2, _ := streamFrames(t, ts.URL, req)
	if len(frames2) != 1 || !frames2[0].Final || frames2[0].Cache != "hit" {
		t.Fatalf("cached stream frames: %+v", frames2)
	}
	if !bytes.Equal(bytes.TrimSpace(frames2[0].Result), bytes.TrimSpace(final.Result)) {
		t.Error("cached final frame differs from the first run's")
	}
}

// Adaptive requests cache by their canonical request (the stopping
// rule), not by realized trial count, and distinct targets get distinct
// entries.
func TestAdaptiveEstimateCacheable(t *testing.T) {
	_, ts := newTestService(t)
	seed := uint64(11)
	req := EstimateRequest{
		HorizonYears:   50,
		Seed:           &seed,
		TargetRelWidth: 0.2,
		MaxTrials:      20000,
	}
	first := postJSON(t, ts.URL+"/estimate", req)
	if first.StatusCode != http.StatusOK {
		t.Fatalf("adaptive request: %s: %s", first.Status, readAll(t, first))
	}
	if got := first.Header.Get("X-Ltsimd-Cache"); got != "miss" {
		t.Fatalf("first adaptive request: cache %q", got)
	}
	firstKey := first.Header.Get("X-Ltsimd-Key")
	firstBody := readAll(t, first)

	second := postJSON(t, ts.URL+"/estimate", req)
	if got := second.Header.Get("X-Ltsimd-Cache"); got != "hit" {
		t.Errorf("repeat adaptive request: cache %q, want hit", got)
	}
	if !bytes.Equal(firstBody, readAll(t, second)) {
		t.Error("repeat adaptive response not bit-identical")
	}

	var est struct {
		Trials int `json:"trials"`
	}
	if err := json.Unmarshal(firstBody, &est); err != nil {
		t.Fatal(err)
	}
	if est.Trials == 0 || est.Trials >= 20000 {
		t.Errorf("adaptive run trials = %d, want early stop in (0, 20000)", est.Trials)
	}

	tighter := req
	tighter.TargetRelWidth = 0.1
	third := postJSON(t, ts.URL+"/estimate", tighter)
	if key := third.Header.Get("X-Ltsimd-Key"); key == firstKey {
		t.Error("different stopping targets share a cache key")
	}
	readAll(t, third)
}

// Daemon-level policy: DefaultTargetRel turns budget-less requests
// adaptive; MaxTrialsCap clamps budgets pre-fingerprint.
func TestServicePolicyDefaults(t *testing.T) {
	svc := New(Config{
		CacheSize: 64, Shards: 1, QueueDepth: 8, JobTimeout: time.Minute,
		SimParallel: 2, DefaultTargetRel: 0.2, MaxTrialsCap: 3000,
	})
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		ts.Close()
		svc.Shutdown(context.Background())
	})

	seed := uint64(5)
	resp := postJSON(t, ts.URL+"/estimate", EstimateRequest{HorizonYears: 50, Seed: &seed})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("policy-default request: %s: %s", resp.Status, readAll(t, resp))
	}
	var est struct {
		Trials int `json:"trials"`
	}
	if err := json.Unmarshal(readAll(t, resp), &est); err != nil {
		t.Fatal(err)
	}
	// The adaptive default stops early; the cap bounds it even if not.
	if est.Trials > 3000 {
		t.Errorf("policy run trials = %d, want <= cap 3000", est.Trials)
	}

	// An explicit fixed budget above the cap is clamped, and the clamped
	// request shares its cache entry with the explicitly-clamped form.
	big := postJSON(t, ts.URL+"/estimate", EstimateRequest{Trials: 50000, HorizonYears: 50, Seed: &seed})
	if big.StatusCode != http.StatusOK {
		t.Fatalf("capped request: %s: %s", big.Status, readAll(t, big))
	}
	bigKey := big.Header.Get("X-Ltsimd-Key")
	readAll(t, big)
	capped := postJSON(t, ts.URL+"/estimate", EstimateRequest{Trials: 3000, HorizonYears: 50, Seed: &seed})
	if got := capped.Header.Get("X-Ltsimd-Cache"); got != "hit" {
		t.Errorf("explicitly-capped request: cache %q, want hit (key %s vs %s)",
			got, capped.Header.Get("X-Ltsimd-Key"), bigKey)
	}
	readAll(t, capped)
}

// Concurrent identical progress requests must coalesce onto one
// simulation: every response carries the same bytes, and exactly one
// scheduler job runs.
func TestProgressSingleFlight(t *testing.T) {
	svc, ts := newTestService(t)
	seed := uint64(21)
	req := EstimateRequest{Trials: 5000, HorizonYears: 50, Seed: &seed, Progress: true}
	before := svc.sched.Stats().Completed

	const clients = 4
	results := make(chan []byte, clients)
	for i := 0; i < clients; i++ {
		go func() {
			resp := postJSON(t, ts.URL+"/estimate", req)
			defer resp.Body.Close()
			var final EstimateFrame
			sc := bufio.NewScanner(resp.Body)
			sc.Buffer(make([]byte, 1<<20), 1<<20)
			for sc.Scan() {
				var f EstimateFrame
				if json.Unmarshal(sc.Bytes(), &f) == nil && f.Final {
					final = f
				}
			}
			results <- final.Result
		}()
	}
	var first []byte
	for i := 0; i < clients; i++ {
		got := <-results
		if len(got) == 0 {
			t.Fatal("a coalesced client got no final frame")
		}
		if first == nil {
			first = got
		} else if !bytes.Equal(first, got) {
			t.Error("coalesced clients got different results")
		}
	}
	// Every duplicate either joined the owner's job or arrived after it
	// finished and replayed the cache; neither runs a job of its own.
	if n := svc.sched.Stats().Completed - before; n != 1 {
		t.Errorf("%d scheduler jobs completed for %d coalesced clients, want 1", n, clients)
	}
}

// frameReader decodes a progress stream one frame at a time.
type frameReader struct {
	resp *http.Response
	sc   *bufio.Scanner
}

func openStream(t *testing.T, url string, req EstimateRequest) *frameReader {
	t.Helper()
	resp := postJSON(t, url+"/estimate", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("progress request: %s: %s", resp.Status, readAll(t, resp))
	}
	t.Cleanup(func() { resp.Body.Close() })
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	return &frameReader{resp: resp, sc: sc}
}

// next returns the stream's next frame, or false at its end.
func (fr *frameReader) next(t *testing.T) (EstimateFrame, bool) {
	t.Helper()
	var f EstimateFrame
	if !fr.sc.Scan() {
		if err := fr.sc.Err(); err != nil {
			t.Fatal(err)
		}
		return f, false
	}
	if err := json.Unmarshal(fr.sc.Bytes(), &f); err != nil {
		t.Fatalf("bad frame %q: %v", fr.sc.Text(), err)
	}
	return f, true
}

// rest reads the remaining frames, requiring exactly one final frame,
// last, and returns it.
func (fr *frameReader) rest(t *testing.T) EstimateFrame {
	t.Helper()
	var final EstimateFrame
	for f, ok := fr.next(t); ok; f, ok = fr.next(t) {
		if final.Final {
			t.Fatalf("frame after the final frame: %+v", f)
		}
		if f.Error != "" {
			t.Fatalf("error frame: %s", f.Error)
		}
		final = f
	}
	if !final.Final {
		t.Fatal("stream ended without a final frame")
	}
	return final
}

// A plain request for a key whose progress run is streaming joins that
// run instead of simulating again: it answers "dedup" with the streamed
// result's bytes, and exactly one scheduler job runs.
func TestPlainRequestJoinsProgressRun(t *testing.T) {
	svc, ts := newTestService(t)
	seed := uint64(33)
	// Many batches, so the run is still going when the plain request
	// lands just after the first frame.
	req := EstimateRequest{Trials: 100000, HorizonYears: 50, Seed: &seed, Progress: true}
	before := svc.sched.Stats().Completed

	stream := openStream(t, ts.URL, req)
	if got := stream.resp.Header.Get("X-Ltsimd-Cache"); got != "miss" {
		t.Fatalf("progress owner: cache %q, want miss", got)
	}
	first, ok := stream.next(t)
	if !ok || first.Progress == nil {
		t.Fatalf("first frame %+v is not a progress frame", first)
	}

	plain := req
	plain.Progress = false
	resp := postJSON(t, ts.URL+"/estimate", plain)
	if got := resp.Header.Get("X-Ltsimd-Cache"); got != "dedup" {
		t.Errorf("plain request during a progress run: cache %q, want dedup", got)
	}
	body := bytes.TrimSpace(readAll(t, resp))

	final := stream.rest(t)
	if final.Cache != "miss" {
		t.Errorf("progress owner's final frame: cache %q, want miss", final.Cache)
	}
	if !bytes.Equal(body, bytes.TrimSpace(final.Result)) {
		t.Error("joined plain body differs from the streamed result")
	}
	if n := svc.sched.Stats().Completed - before; n != 1 {
		t.Errorf("%d scheduler jobs completed, want 1", n)
	}
}

// blockShard occupies the scheduler shard that key hashes to with a job
// that runs until the returned release is called, so jobs queued behind
// it stay pending.
func blockShard(t *testing.T, svc *Service, key string) (release func()) {
	t.Helper()
	sh := svc.sched.shardFor(key)
	var blocker string
	for i := 0; svc.sched.shardFor(blocker) != sh || blocker == ""; i++ {
		blocker = "blocker-" + strconv.Itoa(i)
	}
	started, gate := make(chan struct{}), make(chan struct{})
	go svc.sched.Submit(context.Background(), blocker, func(context.Context) ([]byte, error) {
		close(started)
		<-gate
		return nil, nil
	})
	<-started
	var once sync.Once
	release = func() { once.Do(func() { close(gate) }) }
	t.Cleanup(release)
	return release
}

// A progress request for a key whose plain request is in flight joins
// that job: it streams no progress of its own, and its final frame
// answers "dedup" with the plain answer's bytes.
func TestProgressRequestJoinsPlainRun(t *testing.T) {
	svc, ts := newTestService(t)
	seed := uint64(34)
	plain := EstimateRequest{Trials: 600, HorizonYears: 50, Seed: &seed}
	key, _, err := svc.resolve(plain, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Hold the key's shard so the plain request's job stays queued —
	// in flight and joinable — until the progress request is in.
	release := blockShard(t, svc, key)
	before := svc.sched.Stats().Completed

	type answer struct {
		cache string
		body  []byte
	}
	plainBody, err := json.Marshal(plain)
	if err != nil {
		t.Fatal(err)
	}
	plainDone := make(chan answer, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/estimate", "application/json", bytes.NewReader(plainBody))
		if err != nil {
			t.Error(err)
			plainDone <- answer{}
			return
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Error(err)
		}
		plainDone <- answer{resp.Header.Get("X-Ltsimd-Cache"), bytes.TrimSpace(body)}
	}()
	for svc.sched.Stats().QueueDepth == 0 {
		time.Sleep(time.Millisecond)
	}

	progress := plain
	progress.Progress = true
	stream := openStream(t, ts.URL, progress) // returns once admitted
	if got := stream.resp.Header.Get("X-Ltsimd-Cache"); got != "dedup" {
		t.Errorf("progress request during a plain run: cache %q, want dedup", got)
	}
	release()

	a := <-plainDone
	if a.cache != "miss" {
		t.Errorf("plain owner: cache %q, want miss", a.cache)
	}
	final, ok := stream.next(t)
	if !ok || !final.Final {
		t.Fatalf("joined progress request's first frame %+v, want the final frame", final)
	}
	if _, more := stream.next(t); more {
		t.Error("frames after the final frame")
	}
	if final.Cache != "dedup" {
		t.Errorf("final frame: cache %q, want dedup", final.Cache)
	}
	if !bytes.Equal(a.body, bytes.TrimSpace(final.Result)) {
		t.Error("joined progress result differs from the plain body")
	}
	// The blocker and the one shared estimate job.
	if n := svc.sched.Stats().Completed - before; n != 2 {
		t.Errorf("%d scheduler jobs completed, want 2 (the shard blocker and one estimate)", n)
	}
}

// Snapshots the job buffered before it finished reach the client ahead
// of the final frame. Each run is queued behind a blocker and then
// released, so the job can finish while its snapshots still sit in the
// buffer; several seeds exercise both orders in which the streaming
// goroutine can see them.
func TestProgressFramesFlushedBeforeFinal(t *testing.T) {
	svc, ts := newTestService(t)
	for seed := uint64(40); seed < 48; seed++ {
		req := EstimateRequest{Trials: 1500, HorizonYears: 50, Seed: &seed, Progress: true}
		key, _, err := svc.resolve(req, nil)
		if err != nil {
			t.Fatal(err)
		}
		release := blockShard(t, svc, key)
		stream := openStream(t, ts.URL, req)
		release()
		var frames []EstimateFrame
		for f, ok := stream.next(t); ok; f, ok = stream.next(t) {
			frames = append(frames, f)
		}
		if len(frames) < 2 {
			t.Fatalf("seed %d: got %d frames, want at least one progress frame before the final", seed, len(frames))
		}
		for i, f := range frames[:len(frames)-1] {
			if f.Progress == nil || f.Final {
				t.Fatalf("seed %d: frame %d is not a progress frame: %+v", seed, i, f)
			}
		}
		if last := frames[len(frames)-1]; !last.Final || last.Cache != "miss" || len(last.Result) == 0 {
			t.Fatalf("seed %d: bad final frame: %+v", seed, last)
		}
	}
}

// Progress with an invalid configuration still fails with a clean 400
// before any streaming starts.
func TestEstimateProgressBadRequest(t *testing.T) {
	_, ts := newTestService(t)
	resp := postJSON(t, ts.URL+"/estimate", EstimateRequest{Alpha: -2, Progress: true})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad progress request: %s, want 400", resp.Status)
	}
}
