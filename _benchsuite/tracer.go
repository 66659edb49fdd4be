package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one request
// share Key: the request body for HTTP spans (the front forwards it
// verbatim, so client, front, backend hop and backend handler all see the
// same bytes) and the (specimen, seed) key for lab-stage replica spans.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root (HTTP parents are joined by key at write-out)
	Name   string `json:"name"`
	Key    string `json:"key"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	First  int64  `json:"first_byte_ns,omitempty"` // first response byte, for streamed hops
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory; they are written out once the run ends.
// It records only while active, so set-up traffic leaves no spans.
type tracer struct {
	t0     time.Time
	active atomic.Bool
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens a span and returns its ID, or -1 while inactive.
func (t *tracer) begin(name, key string, parent int) int {
	if !t.active.Load() {
		return -1
	}
	start := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Key: key, Start: start})
	return id
}

func (t *tracer) end(id int) {
	if id < 0 {
		return
	}
	end := t.now()
	t.mu.Lock()
	t.spans[id].End = end
	t.mu.Unlock()
}

func (t *tracer) firstByte(id int) {
	if id < 0 {
		return
	}
	at := t.now()
	t.mu.Lock()
	if t.spans[id].First == 0 {
		t.spans[id].First = at
	}
	t.mu.Unlock()
}

// named returns the finished spans with the given name.
func (t *tracer) named(name string) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Name == name && s.End > 0 {
			out = append(out, s)
		}
	}
	return out
}

// durations returns the durations of the finished spans with the name.
func (t *tracer) durations(name string) []time.Duration {
	var out []time.Duration
	for _, s := range t.named(name) {
		out = append(out, s.dur())
	}
	return out
}

// httpLayers is the nesting order of the HTTP spans of one request.
var httpLayers = []string{"client", "front.handler", "front.backend", "service.handler"}

// joinHTTP sets each HTTP span's parent: the span of the next-outer layer
// with the same key whose interval contains it.
func (t *tracer) joinHTTP() {
	t.mu.Lock()
	defer t.mu.Unlock()
	rank := map[string]int{}
	for i, n := range httpLayers {
		rank[n] = i
	}
	byKey := map[string][]int{}
	for i, s := range t.spans {
		if _, ok := rank[s.Name]; ok {
			byKey[s.Key] = append(byKey[s.Key], i)
		}
	}
	for _, ids := range byKey {
		for _, c := range ids {
			child := &t.spans[c]
			for _, p := range ids {
				par := t.spans[p]
				if rank[par.Name] == rank[child.Name]-1 && par.Start <= child.Start && child.End <= par.End {
					child.Parent = par.ID
					break
				}
			}
		}
	}
}

// write stores every span as JSON under the scratch root.
func (t *tracer) write(path string) error {
	t.joinHTTP()
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// requestKey is the span key of an HTTP request: its body, or its path
// when it has none.
func requestKey(r *http.Request) string {
	if r.Body == nil || r.Method != http.MethodPost {
		return r.URL.Path
	}
	body, err := io.ReadAll(r.Body)
	r.Body.Close()
	r.Body = io.NopCloser(bytes.NewReader(body))
	if err != nil {
		return r.URL.Path
	}
	return string(body)
}

// wrapHandler records a span around every request a handler serves. The
// ResponseWriter passes through untouched, so streaming still flushes.
func (t *tracer) wrapHandler(name string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.active.Load() {
			h.ServeHTTP(w, r)
			return
		}
		id := t.begin(name, requestKey(r), -1)
		h.ServeHTTP(w, r)
		t.end(id)
	})
}

// hopTransport is the front's backend client transport in traced runs: it
// records a span per backend call (from send to the end of the response
// body, with the first body byte marked) and counts calls per backend.
type hopTransport struct {
	base http.RoundTripper
	tr   *tracer

	mu      sync.Mutex
	perHost map[string]int
	calls   int
}

func newHopTransport(tr *tracer) *hopTransport {
	return &hopTransport{base: http.DefaultTransport, tr: tr, perHost: map[string]int{}}
}

func (h *hopTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	key := req.URL.Path
	if req.GetBody != nil {
		if rc, err := req.GetBody(); err == nil {
			if b, err := io.ReadAll(rc); err == nil {
				key = string(b)
			}
			rc.Close()
		}
	}
	id := h.tr.begin("front.backend", key, -1)
	if id >= 0 {
		h.mu.Lock()
		h.perHost[req.URL.Host]++
		h.calls++
		h.mu.Unlock()
	}
	resp, err := h.base.RoundTrip(req)
	if err != nil {
		h.tr.end(id)
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, tr: h.tr, id: id}
	return resp, nil
}

// counts returns (total calls, per-backend calls) and resets them.
func (h *hopTransport) counts() (int, []int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	var per []int
	for _, n := range h.perHost {
		per = append(per, n)
	}
	total := h.calls
	h.calls = 0
	h.perHost = map[string]int{}
	return total, per
}

// spanBody ends its span at EOF or Close, whichever comes first, and marks
// the first byte read.
type spanBody struct {
	io.ReadCloser
	tr    *tracer
	id    int
	first bool
	done  bool
}

func (b *spanBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if n > 0 && !b.first {
		b.first = true
		b.tr.firstByte(b.id)
	}
	if err != nil && !b.done {
		b.done = true
		b.tr.end(b.id)
	}
	return n, err
}

func (b *spanBody) Close() error {
	if !b.done {
		b.done = true
		b.tr.end(b.id)
	}
	return b.ReadCloser.Close()
}
