package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"scarecrow/internal/campaign"
	"scarecrow/internal/front"
	"scarecrow/internal/service"
	"scarecrow/internal/store"
)

// backendCount is the fleet width: scarefront over two scarecrowd
// backends, as `scarebench -front` boots them.
const backendCount = 2

// clientConns bounds the benchmark's own load: at most this many client
// goroutines and connections, all closed loop.
const clientConns = 2

// fleet is scarefront plus backendCount scarecrowd backends, in-process on
// loopback, each backend with its own fresh data directory and production
// defaults (Workers = GOMAXPROCS, cache 4096, background compaction on,
// no fsync, campaign checkpoints in the store).
type fleet struct {
	dir     string
	nodes   []*node
	front   *front.Front
	frontTS *httptest.Server
	client  *http.Client
	hop     *hopTransport // nil on untraced runs
}

type node struct {
	st  *store.Store
	srv *service.Server
	eng *campaign.Engine
	ts  *httptest.Server
}

func startFleet(dir string, tr *tracer) (*fleet, error) {
	f := &fleet{dir: dir, client: &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: clientConns,
		MaxConnsPerHost:     clientConns,
		DisableCompression:  true,
	}}}
	var urls []string
	for i := 0; i < backendCount; i++ {
		st, err := store.Open(filepath.Join(dir, fmt.Sprintf("backend%d", i)), store.Options{})
		if err != nil {
			f.close()
			return nil, fmt.Errorf("opening backend %d store: %w", i, err)
		}
		srv := service.NewServer(service.Config{Store: st})
		srv.Start()
		eng := campaign.NewEngine(srv, campaign.Options{Checkpoints: st})
		mux := http.NewServeMux()
		mux.Handle("/", srv.Handler())
		eng.Register(mux)
		var h http.Handler = mux
		if tr != nil {
			h = tr.wrapHandler("service.handler", mux)
		}
		n := &node{st: st, srv: srv, eng: eng, ts: httptest.NewServer(h)}
		f.nodes = append(f.nodes, n)
		urls = append(urls, n.ts.URL)
	}
	opts := front.Options{Backends: urls, FrontID: "bench"}
	if tr != nil {
		f.hop = newHopTransport(tr)
		opts.Client = &http.Client{Transport: f.hop}
	}
	fr, err := front.New(opts)
	if err != nil {
		f.close()
		return nil, fmt.Errorf("starting front: %w", err)
	}
	f.front = fr
	fr.Start()
	var h http.Handler = fr.Handler()
	if tr != nil {
		h = tr.wrapHandler("front.handler", h)
	}
	f.frontTS = httptest.NewServer(h)
	return f, nil
}

func (f *fleet) close() {
	if f.frontTS != nil {
		f.frontTS.Close()
	}
	if f.front != nil {
		f.front.Close()
	}
	for _, n := range f.nodes {
		n.ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		_ = n.srv.Shutdown(ctx) // the benchmark is done with this fleet either way
		cancel()
		_ = n.st.Close()
	}
	f.client.CloseIdleConnections()
	os.RemoveAll(f.dir)
}

// stats sums the backends' service counters the benchmark reads.
func (f *fleet) stats() service.Stats {
	var sum service.Stats
	for _, n := range f.nodes {
		s := n.srv.Snapshot()
		sum.Submitted += s.Submitted
		sum.Rejected += s.Rejected
		sum.LabRuns += s.LabRuns
		sum.CacheHits += s.CacheHits
		sum.CacheMisses += s.CacheMisses
		sum.MonitorRuns += s.MonitorRuns
		sum.MonitorRejected += s.MonitorRejected
	}
	return sum
}

// compactions sums the backends' store compaction counters.
func (f *fleet) compactions() uint64 {
	var sum uint64
	for _, n := range f.nodes {
		sum += n.st.Stats().Compactions
	}
	return sum
}

// post sends one request body to the front and returns the response
// status and body. tr, when set, records the client span.
func (f *fleet) post(path string, body []byte, tr *tracer) (int, []byte, error) {
	id := -1
	if tr != nil {
		id = tr.begin("client", string(body), -1)
	}
	resp, err := f.client.Post(f.frontTS.URL+path, "application/json", bytes.NewReader(body))
	if err != nil {
		if id >= 0 {
			tr.end(id)
		}
		return 0, nil, err
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if id >= 0 {
		tr.end(id)
	}
	return resp.StatusCode, out, err
}

// sseFrame is one Server-Sent Event.
type sseFrame struct {
	event string
	data  []byte
	at    time.Duration // since the request was sent
}

// stream sends a request to the front and calls fn for every SSE frame
// until the stream ends or fn returns false.
func (f *fleet) stream(method, path string, body []byte, fn func(sseFrame) bool) (int, error) {
	start := time.Now()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, f.frontTS.URL+path, rd)
	if err != nil {
		return 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := f.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, resp.Body)
		return resp.StatusCode, nil
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 8<<20)
	var fr sseFrame
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			fr.event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			fr.data = []byte(strings.TrimPrefix(line, "data: "))
		case line == "" && fr.event != "":
			fr.at = time.Since(start)
			if !fn(fr) {
				_, _ = io.Copy(io.Discard, resp.Body)
				return resp.StatusCode, nil
			}
			fr = sseFrame{}
		}
	}
	return resp.StatusCode, sc.Err()
}

// closedLoop runs n operations over clientConns goroutines; each client
// sends its next operation only after the previous one completes. op
// returns an error for a failed or refused operation.
func closedLoop(n int, op func(i int) error) (failed int, firstErr error) {
	var next atomic.Int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for c := 0; c < clientConns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				if err := op(i); err != nil {
					mu.Lock()
					failed++
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return failed, firstErr
}

// queueSampler samples the backends' queue depth and store counters
// while a traced pass runs: the mean depth feeds Little's law for queue
// wait, and the live bytes at each compaction estimate what compaction
// rewrote.
type queueSampler struct {
	stop chan struct{}
	done chan struct{}

	samples   int
	depthSum  int
	rewritten int64
}

func startSampler(f *fleet) *queueSampler {
	q := &queueSampler{stop: make(chan struct{}), done: make(chan struct{})}
	lastComp := make([]uint64, len(f.nodes))
	for i, n := range f.nodes {
		lastComp[i] = n.st.Stats().Compactions
	}
	go func() {
		defer close(q.done)
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-q.stop:
				return
			case <-tick.C:
			}
			for i, n := range f.nodes {
				q.depthSum += n.srv.Snapshot().QueueDepth
				st := n.st.Stats()
				if st.Compactions > lastComp[i] {
					q.rewritten += st.LiveBytes * int64(st.Compactions-lastComp[i])
					lastComp[i] = st.Compactions
				}
			}
			q.samples++
		}
	}()
	return q
}

func (q *queueSampler) finish() {
	close(q.stop)
	<-q.done
}

// meanDepth is the mean total queue depth across the fleet.
func (q *queueSampler) meanDepth() float64 {
	if q.samples == 0 {
		return 0
	}
	return float64(q.depthSum) / float64(q.samples)
}
