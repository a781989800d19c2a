package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"apisense/internal/hive"
	"apisense/internal/hive/store"
	"apisense/internal/ingest"
	"apisense/internal/transport"
)

// The ingest workload is a sustained stream of small uploads from two
// gateway goroutines (closed loops, one connection each) into a Hive on
// the sharded store, followed by restarts that replay the whole history.
const (
	ingestGateways    = 2
	ingestDevices     = 8     // devices behind each gateway
	ingestPerTask     = 96000 // uploads per gateway to its own hot task, under hive.DefaultMaxUploadsPerTask
	ingestWarmup      = 8000  // uploads per gateway in the discarded warm-up pass
	ingestBatch       = 8     // uploads per flush
	ingestShards      = 8     // cmd/hive's -store-shards default
	ingestSetups      = 15
	ingestMinRestarts = 3
)

// ingestQueue is cmd/hive's queue with two drain workers, so the two hot
// tasks commit on their shards in parallel.
var ingestQueue = ingest.Config{Capacity: 256, MaxBatch: 256, Workers: 2}

type ingestWL struct {
	dir string
	// fleet[g] are gateway g's devices; uploads[g] its upload stream.
	fleet   [][]transport.DeviceInfo
	uploads [][]transport.Upload
	// tasks is how many tasks to publish so that hot[0] and hot[1] (task
	// numbers) land on distinct store shards.
	tasks int
	hot   [ingestGateways]string
	seed  uint64
}

func taskID(n int) string { return fmt.Sprintf("task-%04d", n) }

func prepareIngest(seed uint64, dir string) (instance, error) {
	w := &ingestWL{dir: dir, seed: seed}
	probe, err := store.OpenSharded(filepath.Join(dir, "probe"), store.ShardedConfig{Shards: ingestShards})
	if err != nil {
		return nil, err
	}
	// Tasks are numbered in publication order on a fresh Hive.
	w.hot[0], w.tasks = taskID(1), 2
	for probe.ShardFor(taskID(w.tasks)) == probe.ShardFor(w.hot[0]) {
		w.tasks++
	}
	w.hot[1] = taskID(w.tasks)

	t0 := time.Date(2024, 3, 4, 8, 0, 0, 0, time.UTC).UnixMilli()
	for g := 0; g < ingestGateways; g++ {
		rng := rand.New(rand.NewPCG(seed, uint64(g)))
		devs := make([]transport.DeviceInfo, ingestDevices)
		lat := make([]float64, ingestDevices)
		lon := make([]float64, ingestDevices)
		for k := range devs {
			lat[k] = 45.70 + 0.12*rng.Float64()
			lon[k] = 4.78 + 0.12*rng.Float64()
			devs[k] = transport.DeviceInfo{
				ID: fmt.Sprintf("gw%d-dev%02d", g, k), User: fmt.Sprintf("gw%d-user%02d", g, k),
				Sensors: []string{"gps"}, Battery: 100, Lat: lat[k], Lon: lon[k],
			}
		}
		ups := make([]transport.Upload, ingestPerTask)
		for i := range ups {
			k := i % ingestDevices
			lat[k] += 0.0004 * (rng.Float64() - 0.5)
			lon[k] += 0.0004 * (rng.Float64() - 0.5)
			ups[i] = transport.Upload{
				TaskID: w.hot[g], DeviceID: devs[k].ID,
				Records: []transport.UploadRecord{{
					Sensor: "gps", TimeMillis: t0 + int64(i)*1000 + rng.Int64N(1000),
					Data: map[string]any{"lat": lat[k], "lon": lon[k]},
				}},
			}
		}
		w.fleet = append(w.fleet, devs)
		w.uploads = append(w.uploads, ups)
	}
	return w, nil
}

// setUp opens a fresh sharded store in dir, starts the queue and server,
// registers both fleets and publishes the tasks, all over HTTP.
func (w *ingestWL) setUp(dir string, tr *tracer) (*hiveStack, error) {
	engine, err := store.OpenSharded(dir, store.ShardedConfig{Shards: ingestShards})
	if err != nil {
		return nil, err
	}
	stack, err := startHive(engine, ingestQueue, tr)
	if err != nil {
		return nil, err
	}
	client := transport.NewClient(stack.srv.URL)
	ctx := context.Background()
	for _, devs := range w.fleet {
		for _, d := range devs {
			if err := client.Do(ctx, http.MethodPost, "/api/devices", d, nil); err != nil {
				stack.close()
				return nil, fmt.Errorf("register %s: %w", d.ID, err)
			}
		}
	}
	for n := 1; n <= w.tasks; n++ {
		spec := transport.TaskSpec{
			Name: fmt.Sprintf("gateway-feed-%d", n), Author: honeycombName, Script: collectGPS,
			Sensors: []string{"gps"}, PeriodSeconds: 1,
		}
		var resp hive.PublishResponse
		if err := client.Do(ctx, http.MethodPost, "/api/tasks", spec, &resp); err != nil {
			stack.close()
			return nil, fmt.Errorf("publish task %d: %w", n, err)
		}
		if resp.Task.ID != taskID(n) {
			stack.close()
			return nil, fmt.Errorf("published %s, want %s", resp.Task.ID, taskID(n))
		}
	}
	return stack, nil
}

// upload runs the gateways over the first n uploads of each stream and
// returns their flushers, or the first error.
func (w *ingestWL) upload(url string, n int, tr *tracer) ([]*flusher, error) {
	fls := make([]*flusher, ingestGateways)
	errs := make([]error, ingestGateways)
	var wg sync.WaitGroup
	for g := 0; g < ingestGateways; g++ {
		fls[g] = newFlusher(transport.NewClient(url), ingestBatch, int64(w.seed)+int64(g), tr)
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ctx := withOp(context.Background(), g)
			ups := w.uploads[g][:n]
			for i := range ups {
				if err := fls[g].add(ctx, &ups[i]); err != nil {
					errs[g] = fmt.Errorf("gateway %d, upload %d: %w", g, i, err)
					return
				}
			}
			errs[g] = fls[g].finish(ctx)
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return fls, err
		}
	}
	return fls, nil
}

func (w *ingestWL) measure(d time.Duration, tr *tracer) (*measurement, error) {
	base := heapInUse()
	pass, err := os.MkdirTemp(w.dir, "pass-")
	if err != nil {
		return nil, err
	}

	// Warm-up pass on a throwaway Hive, discarded. Every store of the pass
	// stays on disk until the run ends.
	stack, err := w.setUp(filepath.Join(pass, "warm-up"), nil)
	if err != nil {
		return nil, err
	}
	_, err = w.upload(stack.srv.URL, ingestWarmup, nil)
	if cerr := stack.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}

	// Set up several times and keep the last Hive; the traced pass traces
	// only the kept set-up.
	m := &measurement{}
	var dir string
	for s := 0; s < ingestSetups; s++ {
		dir = filepath.Join(pass, fmt.Sprintf("setup-%d", s))
		var str *tracer
		if s == ingestSetups-1 {
			str = tr
		}
		t := time.Now()
		stack, err = w.setUp(dir, str)
		if err != nil {
			return nil, err
		}
		m.setup = append(m.setup, time.Since(t).Seconds())
		if s < ingestSetups-1 {
			if err := stack.close(); err != nil {
				return nil, err
			}
		}
	}

	start := time.Now()
	a0 := totalAlloc()
	fls, uerr := w.upload(stack.srv.URL, ingestPerTask, tr)
	m.wall = time.Since(start)
	m.alloc = totalAlloc() - a0
	m.attempted = ingestGateways * ingestPerTask
	for _, fl := range fls {
		m.ops += fl.acked
		m.latencyMS = append(m.latencyMS, fl.latMS...)
	}
	if uerr != nil {
		fmt.Fprintln(os.Stderr, "perfbench: ingest:", uerr)
	}
	if heap := heapInUse(); heap > base {
		m.liveHeap = heap - base
	}
	if tr != nil {
		recordQueue(tr, stack.queue.Stats(), stack.engine.Stats().Syncs)
		tr.add("uploads.acked", float64(m.ops))
	}
	if err := stack.close(); err != nil {
		return nil, err
	}

	// Restart: reopen the directory and replay the whole history, several
	// times; the first recovered Hive is checked against what was
	// acknowledged.
	var restartS []float64
	for r := 0; r < ingestMinRestarts || time.Since(start) < d; r++ {
		t := time.Now()
		engine, err := store.OpenSharded(dir, store.ShardedConfig{Shards: ingestShards})
		if err != nil {
			return nil, err
		}
		var st store.Store = engine
		if tr != nil {
			st = &tracedStore{Store: engine, tr: tr, replay: true}
		}
		h, err := hive.RecoverFrom(st)
		restartS = append(restartS, time.Since(t).Seconds())
		if err != nil {
			engine.Close()
			return nil, fmt.Errorf("restart: %w", err)
		}
		if r == 0 {
			for g := range fls {
				m.failed += w.checkRecovered(h, g, fls[g].acked)
			}
		}
		if err := engine.Close(); err != nil {
			return nil, err
		}
	}
	m.failed += m.attempted - m.ops // unacknowledged uploads

	m.report = []reportLine{
		{name: "uploads_per_s", value: float64(m.ops) / m.wall.Seconds(), unit: "1/s", note: fmt.Sprintf("(%d acknowledged uploads, %d gateways)", m.ops, ingestGateways)},
		{name: "flush_p50_ms", value: median(m.latencyMS), unit: "ms", note: fmt.Sprintf("(%d flushes)", len(m.latencyMS))},
		latencyLine("flush_p99_ms", m.latencyMS, 99),
		{name: "restart_s", value: median(restartS), unit: "s", note: fmt.Sprintf("(median of %d restarts)", len(restartS))},
	}
	if tr != nil {
		m.layers = computeLayers(tr, m.ops)
	}
	return m, nil
}

// checkRecovered compares gateway g's task in a recovered Hive with the
// uploads the gateway had acknowledged, in order. It returns how many
// uploads fail the check.
func (w *ingestWL) checkRecovered(h *hive.Hive, g, acked int) int {
	got, err := h.Uploads(w.hot[g])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: ingest check:", err)
		return acked
	}
	want, err := encodeUploads(w.uploads[g][:acked])
	if err == nil {
		var enc [][]byte
		if enc, err = encodeUploads(got); err == nil {
			err = checkUploads(want, enc)
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: ingest check, task %s: %v\n", w.hot[g], err)
		return max(acked, 1)
	}
	return 0
}
