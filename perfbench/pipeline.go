package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"time"

	"apisense/internal/device"
	"apisense/internal/hive"
	"apisense/internal/hive/store"
	"apisense/internal/ingest"
	"apisense/internal/transport"
)

// hiveStack is one Hive served over loopback HTTP: storage engine, ingest
// queue and server, wired as cmd/hive wires them. With a tracer the
// engine, the queue's sink and the handler are wrapped; without one the
// program runs exactly as configured, with metrics and tracing off.
type hiveStack struct {
	engine store.Store // the unwrapped engine
	hive   *hive.Hive
	queue  *ingest.Queue
	srv    *httptest.Server
}

// startHive recovers a Hive from a freshly opened engine and serves it.
func startHive(engine store.Store, qcfg ingest.Config, tr *tracer) (*hiveStack, error) {
	var st store.Store = engine
	if tr != nil {
		st = &tracedStore{Store: engine, tr: tr}
	}
	h, err := hive.RecoverFrom(st)
	if err != nil {
		engine.Close()
		return nil, err
	}
	var sink ingest.Sink = h
	if tr != nil {
		sink = &tracedSink{tr: tr, h: h, st: st}
	}
	q := ingest.New(sink, qcfg)
	var handler http.Handler = hive.NewServer(h, hive.WithIngestQueue(q))
	if tr != nil {
		handler = tracedHandler{tr: tr, next: handler}
	}
	return &hiveStack{engine: engine, hive: h, queue: q, srv: httptest.NewServer(handler)}, nil
}

// close stops the server, drains the queue and closes the engine, the
// order cmd/hive shuts down in.
func (s *hiveStack) close() error {
	s.srv.Close()
	s.queue.Close()
	return s.engine.Close()
}

// flusher feeds one BatchUploader, times every call that flushes (from
// call to acknowledgement) and checks each batch response: every upload
// must be accepted.
type flusher struct {
	up    *device.BatchUploader
	tr    *tracer
	size  int
	keys  []string // traced pass: keys of the buffered uploads
	latMS []float64
	acked int
}

func newFlusher(client *transport.Client, size int, seed int64, tr *tracer) *flusher {
	up := device.NewBatchUploader(client, device.UploaderConfig{BatchSize: size, Seed: seed})
	return &flusher{up: up, tr: tr, size: size}
}

// add buffers u, flushing when the batch is full; a nil u flushes what is
// buffered.
func (f *flusher) add(ctx context.Context, u *transport.Upload) error {
	flushing := u == nil || f.up.Pending()+1 >= f.size
	var a *active
	if f.tr != nil {
		if u != nil {
			f.keys = append(f.keys, uploadKey(u))
		}
		if flushing {
			ctx, a = f.tr.begin(ctx, "device.flush")
			f.tr.noteFlush(a, f.keys)
		}
	}
	t := time.Now()
	var resp *transport.UploadBatchResponse
	var err error
	if u == nil {
		resp, err = f.up.Flush(ctx)
	} else {
		resp, err = f.up.Add(ctx, *u)
	}
	lat := time.Since(t)
	a.end()
	if err != nil {
		return err
	}
	if resp == nil || len(resp.Results) == 0 {
		return nil // buffered, or nothing to flush
	}
	f.latMS = append(f.latMS, float64(lat)/1e6)
	f.keys = f.keys[:0]
	f.acked += resp.Accepted
	if resp.Rejected > 0 {
		for _, r := range resp.Results {
			if r.Code != transport.UploadOK {
				return fmt.Errorf("%d of %d uploads rejected, first: %s %s", resp.Rejected, len(resp.Results), r.Code, r.Error)
			}
		}
	}
	return nil
}

// finish flushes the tail and reports uploads the uploader shed.
func (f *flusher) finish(ctx context.Context) error {
	if err := f.add(ctx, nil); err != nil {
		return err
	}
	f.tr.add("device.retries", float64(f.up.Retries))
	if f.up.Dropped > 0 || f.up.Pending() > 0 {
		return fmt.Errorf("uploader dropped %d and kept %d uploads", f.up.Dropped, f.up.Pending())
	}
	return nil
}

// recordQueue copies the queue and engine counters a traced pass reports.
func recordQueue(tr *tracer, qs ingest.Stats, syncs uint64) {
	tr.add("ingest.accepted", float64(qs.Accepted))
	tr.add("ingest.batches", float64(qs.BatchesDrained))
	tr.add("ingest.dropped", float64(qs.Dropped))
	tr.add("store.syncs", float64(syncs))
}
