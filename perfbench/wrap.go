package main

import (
	"context"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"apisense/internal/hive"
	"apisense/internal/hive/store"
	"apisense/internal/lppm"
	"apisense/internal/trace"
	"apisense/internal/transport"
)

// The wrappers below sit between the benchmark and each layer's public
// API and exist only in the traced pass. The untraced pass calls the
// program directly with its own metrics and tracing off.

// parentHeader carries the client-side span across the loopback hop as
// "<span id>/<op id>".
const parentHeader = "Perfbench-Parent"

// parentTransport stamps the span carried by a request's context onto the
// request, so the server-side wrapper can parent its span on it.
type parentTransport struct{ base http.RoundTripper }

func (t parentTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if ref, ok := req.Context().Value(ctxKey{}).(spanRef); ok && ref.id != 0 {
		req = req.Clone(req.Context())
		req.Header.Set(parentHeader, strconv.FormatUint(ref.id, 10)+"/"+strconv.Itoa(ref.op))
	}
	return t.base.RoundTrip(req)
}

// installParentTransport routes every transport.Client (they all use
// http.DefaultTransport) through parentTransport until the returned
// restore function runs.
func installParentTransport() (restore func()) {
	orig := http.DefaultTransport
	http.DefaultTransport = parentTransport{base: orig}
	return func() { http.DefaultTransport = orig }
}

func parseParent(h string) spanRef {
	id, op, ok := strings.Cut(h, "/")
	if !ok {
		return spanRef{}
	}
	n, _ := strconv.ParseUint(id, 10, 64)
	o, _ := strconv.Atoi(op)
	return spanRef{id: n, op: o}
}

// tracedHandler wraps hive.Server: one span per request, request body
// bytes per route and 429/5xx counts.
type tracedHandler struct {
	tr   *tracer
	next http.Handler
}

func routeName(r *http.Request) string {
	switch {
	case r.Method == http.MethodPost && r.URL.Path == "/api/uploads/batch":
		return "hive.http_batch"
	case r.Method == http.MethodGet && strings.HasSuffix(r.URL.Path, "/uploads"):
		return "hive.http_collect"
	default:
		return "hive.http_other"
	}
}

func (h tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	parent := parseParent(r.Header.Get(parentHeader))
	name := routeName(r)
	a := h.tr.child(parent, name)
	if name == "hive.http_batch" && parent.id != 0 {
		h.tr.mu.Lock()
		h.tr.serverOf[parent.id] = a.sp.ID
		h.tr.mu.Unlock()
	}
	body := &countingReader{r: r.Body}
	r.Body = struct {
		io.Reader
		io.Closer
	}{body, r.Body}
	sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
	h.next.ServeHTTP(sw, r)
	a.end()
	h.tr.add(name+".req_bytes", float64(body.n.Load()))
	switch {
	case sw.status == http.StatusTooManyRequests:
		h.tr.add("hive.status_429", 1)
	case sw.status >= 500:
		h.tr.add("hive.status_5xx", 1)
	}
}

type countingReader struct {
	r io.Reader
	n atomic.Int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n.Add(int64(n))
	return n, err
}

type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// uploadKey identifies an upload within one workload run: every upload in
// the benchmark's inputs has a distinct (task, device, first record time).
func uploadKey(u *transport.Upload) string {
	var t int64
	if len(u.Records) > 0 {
		t = u.Records[0].TimeMillis
	}
	return u.TaskID + "\x00" + u.DeviceID + "\x00" + strconv.FormatInt(t, 10)
}

// noteFlush records that the uploads with the given keys travel in flush
// span a, so the group commit that admits them can find the request that
// waited on it.
func (tr *tracer) noteFlush(a *active, keys []string) {
	if tr == nil {
		return
	}
	tr.mu.Lock()
	for _, k := range keys {
		tr.flushOf[k] = a.sp.ID
	}
	tr.mu.Unlock()
}

// tracedSink is what the ingest queue drains into in the traced pass: it
// implements ingest.Sink and ingest.ContextSink over the Hive, timing each
// group commit as a hive.commit span. After the commit it adds a
// hive.commit.wait child under every batch request the commit served, so
// the request's self time excludes the commit it waited on.
type tracedSink struct {
	tr *tracer
	h  *hive.Hive
	st store.Store
}

func (s *tracedSink) SubmitBatch(ups []transport.Upload) []error {
	return s.SubmitBatchContext(context.Background(), ups)
}

func (s *tracedSink) SubmitBatchContext(ctx context.Context, ups []transport.Upload) []error {
	shards := make([]int, 0, 2)
	seen := make(map[int]bool)
	for i := range ups {
		si := 0
		if s.st.Shards() > 1 {
			si = s.st.ShardFor(ups[i].TaskID)
		}
		if !seen[si] {
			seen[si] = true
			shards = append(shards, si)
		}
	}
	a := s.tr.child(spanRef{}, "hive.commit")
	s.tr.mu.Lock()
	s.tr.commits[a.sp.ID] = shards
	s.tr.mu.Unlock()
	errs := s.h.SubmitBatchContext(ctx, ups)
	a.end()

	s.tr.mu.Lock()
	delete(s.tr.commits, a.sp.ID)
	served := make(map[uint64]bool)
	for i := range ups {
		if srv := s.tr.serverOf[s.tr.flushOf[uploadKey(&ups[i])]]; srv != 0 {
			served[srv] = true
		}
	}
	for srv := range served {
		s.tr.spans = append(s.tr.spans, span{
			Parent: srv, Op: a.sp.Op, Name: "hive.commit.wait", Start: a.sp.Start, End: a.sp.End,
		})
	}
	s.tr.mu.Unlock()
	return errs
}

// commitOn returns the open commit holding the given store shard (the
// Hive's per-shard commit lock admits one at a time; the earliest open
// commit touching the shard is the holder).
func (tr *tracer) commitOn(shard int) spanRef {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	var best uint64
	for id, shards := range tr.commits {
		for _, si := range shards {
			if si == shard && (best == 0 || id < best) {
				best = id
			}
		}
	}
	return spanRef{id: best}
}

// tracedStore wraps a storage engine: store.append spans (write and fsync)
// under the commit that issued them, appended bytes, and the split of
// Recover between the engine's reading and the Hive's callbacks.
type tracedStore struct {
	store.Store
	tr *tracer
	// replay marks a restart, whose Recover is measured; the Recover of
	// a fresh store at set-up is not.
	replay bool
}

func (s *tracedStore) AppendBatch(shard int, recs [][]byte) error {
	a := s.tr.child(s.tr.commitOn(shard), "store.append")
	err := s.Store.AppendBatch(shard, recs)
	a.end()
	s.tr.add("store.appends", 1)
	s.tr.add("store.batch_bytes", float64(recordBytes(recs)))
	return err
}

func (s *tracedStore) AppendMeta(recs [][]byte) error {
	a := s.tr.child(spanRef{}, "store.append")
	err := s.Store.AppendMeta(recs)
	a.end()
	s.tr.add("store.appends", 1)
	return err
}

func (s *tracedStore) Recover(snapshot func([]byte) error, record func([]byte) error) error {
	if !s.replay {
		return s.Store.Recover(snapshot, record)
	}
	var inCallbacks, records atomic.Int64
	timed := func(f func([]byte) error, isRecord bool) func([]byte) error {
		return func(b []byte) error {
			t := time.Now()
			err := f(b)
			inCallbacks.Add(int64(time.Since(t)))
			if isRecord {
				records.Add(1)
			}
			return err
		}
	}
	t := time.Now()
	err := s.Store.Recover(timed(snapshot, false), timed(record, true))
	total := time.Since(t)
	s.tr.add("replay.total_ns", float64(total))
	s.tr.add("replay.callback_ns", float64(inCallbacks.Load()))
	s.tr.add("replay.records", float64(records.Load()))
	s.tr.add("replay.runs", 1)
	return err
}

func recordBytes(recs [][]byte) int {
	n := 0
	for _, r := range recs {
		n += len(r)
	}
	return n
}

// timedMechanism times Protect calls; Name is delegated so evaluation
// cache fingerprints are those of the unwrapped portfolio.
type timedMechanism struct {
	lppm.Mechanism
	tr *tracer
}

func (m timedMechanism) Protect(t *trace.Trajectory) (*trace.Trajectory, error) {
	m.tr.mu.Lock()
	parent := m.tr.publish
	m.tr.mu.Unlock()
	if parent == 0 {
		return m.Mechanism.Protect(t) // outside a measured publication
	}
	a := m.tr.child(spanRef{id: parent}, "lppm.protect")
	out, err := m.Mechanism.Protect(t)
	a.end()
	return out, err
}

// timedPortfolio wraps each strategy of a portfolio.
func timedPortfolio(tr *tracer, ms []lppm.Mechanism) []lppm.Mechanism {
	out := make([]lppm.Mechanism, len(ms))
	for i, m := range ms {
		out[i] = timedMechanism{Mechanism: m, tr: tr}
	}
	return out
}

// beginPublish starts a core.publish span that Protect calls parent on
// until endPublish.
func (tr *tracer) beginPublish(ctx context.Context) (context.Context, *active) {
	ctx, a := tr.begin(ctx, "core.publish")
	if a != nil {
		tr.mu.Lock()
		tr.publish = a.sp.ID
		tr.mu.Unlock()
	}
	return ctx, a
}

func (tr *tracer) endPublish(a *active) {
	if tr == nil {
		return
	}
	a.end()
	tr.mu.Lock()
	tr.publish = 0
	tr.mu.Unlock()
}
