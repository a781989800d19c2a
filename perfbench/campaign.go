package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"apisense/internal/core"
	"apisense/internal/device"
	"apisense/internal/geo"
	"apisense/internal/hive/store"
	"apisense/internal/honeycomb"
	"apisense/internal/ingest"
	"apisense/internal/mobgen"
	"apisense/internal/trace"
	"apisense/internal/transport"
)

// The campaign workload runs the paper's Fig. 1 pipeline end to end, one
// campaign at a time, each on a fresh Hive with cmd/hive's defaults.
const (
	campaignUsers  = 24
	campaignDays   = 3
	campaignPeriod = 120 // seconds between GPS fixes
	campaignBatch  = 4   // uploads per BatchUploader flush
	campaignShards = 8   // user-hash buckets, privapi's default for -shard-by user
	campaignMinOps = 3
	releaseKey     = "release-key" // privapi publish's default pseudonym key
)

// collectGPS is the SenseScript task the Honeycomb deploys.
const collectGPS = `
sensor.gps.onLocationChanged(function(loc) {
  dataset.save({lat: loc.lat, lon: loc.lon});
});
`

type campaign struct {
	seed   uint64
	dir    string
	fleet  []device.Config
	spec   transport.TaskSpec
	policy core.ShardBy
	ref    pipelineRef
}

// pipelineRef is the campaign oracle, computed from the devices' own
// RunTask uploads with no HTTP and no store, at Parallelism 1.
type pipelineRef struct {
	uploads [][]byte // one JSON document per upload, in device order
	release []byte   // CSV of the release
	report  []byte   // rendering of the sharded selection report
}

func prepareCampaign(seed uint64, dir string) (instance, error) {
	ds, _, err := mobgen.Generate(mobgen.Config{Seed: seed, Users: campaignUsers, Days: campaignDays})
	if err != nil {
		return nil, err
	}
	policy, err := core.NewShardByUser(campaignShards)
	if err != nil {
		return nil, err
	}
	c := &campaign{
		seed:   seed,
		dir:    dir,
		policy: policy,
		spec: transport.TaskSpec{
			Name: "collect-gps", Script: collectGPS, Sensors: []string{"gps"}, PeriodSeconds: campaignPeriod,
		},
	}
	byUser := ds.ByUser()
	for i, user := range ds.Users() {
		// A device follows its user over the whole campaign: the user's
		// daily trajectories joined into one movement.
		mv := &trace.Trajectory{User: user}
		for _, t := range byUser[user] {
			mv.Records = append(mv.Records, t.Records...)
		}
		mv.Sort()
		c.fleet = append(c.fleet, device.Config{ID: fmt.Sprintf("dev-%03d", i), User: user, Movement: mv})
	}

	// The Hive of every campaign is fresh, so the task is always the
	// first, authored by the Honeycomb.
	spec := c.spec
	spec.ID, spec.Author = taskID(1), honeycombName
	ups := make([]transport.Upload, len(c.fleet))
	owners := make(map[string]string, len(c.fleet))
	for i, cfg := range c.fleet {
		d, err := device.New(cfg)
		if err != nil {
			return nil, err
		}
		res, err := d.RunTask(spec)
		if err != nil {
			return nil, err
		}
		ups[i] = res.Upload
		owners[cfg.ID] = cfg.User
	}
	if c.ref.uploads, err = encodeUploads(ups); err != nil {
		return nil, err
	}
	raw := honeycomb.UploadsToDataset(ups, owners)
	mw, err := core.New(core.Config{PseudonymKey: []byte(releaseKey), Parallelism: 1}, datasetOrigin(raw))
	if err != nil {
		return nil, err
	}
	release, sel, err := mw.PublishShardedContext(context.Background(), raw, policy)
	if err != nil {
		return nil, fmt.Errorf("reference publication: %w", err)
	}
	if c.ref.release, err = releaseCSV(release); err != nil {
		return nil, err
	}
	c.ref.report = renderReport(sel)
	return c, nil
}

const honeycombName = "perfbench"

// datasetOrigin is the anchor the Honeycomb derives from a dataset.
func datasetOrigin(raw *trace.Dataset) geo.Point {
	if box, ok := raw.BBox(); ok {
		return box.Center()
	}
	return geo.Point{Lat: 45.7640, Lon: 4.8357}
}

// campaignOutcome is what one campaign leaves for the checks and for the
// live-heap measurement.
type campaignOutcome struct {
	stack     *hiveStack
	collected []transport.Upload
	dataset   *trace.Dataset
	release   *trace.Dataset
	sel       *core.ShardedSelection
	setup     time.Duration
	total     time.Duration
	publish   time.Duration
	alloc     uint64
}

func (c *campaign) measure(d time.Duration, tr *tracer) (*measurement, error) {
	base := heapInUse()
	ctx := context.Background()
	dir, err := os.MkdirTemp(c.dir, "pass-")
	if err != nil {
		return nil, err
	}
	// Warm-up pass: one campaign, discarded.
	o, err := c.runOne(ctx, dir, -1, nil)
	if terr := c.teardown(o); err == nil {
		err = terr
	}
	if err != nil {
		return nil, fmt.Errorf("warm-up campaign: %w", err)
	}

	m := &measurement{}
	var publishS []float64
	var last *campaignOutcome
	start := time.Now()
	for n := 0; n < campaignMinOps || time.Since(start) < d; n++ {
		m.attempted++
		o, err := c.runOne(ctx, dir, n, tr)
		if err == nil {
			err = c.check(o)
		}
		if o != nil && o.stack != nil {
			m.setup = append(m.setup, o.setup.Seconds())
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: campaign %d: %v\n", n, err)
			m.failed++
		} else {
			m.ops++
			m.wall += o.total
			m.alloc += o.alloc
			m.latencyMS = append(m.latencyMS, float64(o.total)/1e6)
			publishS = append(publishS, o.publish.Seconds())
		}
		if last != nil {
			if err := c.teardown(last); err != nil {
				return nil, err
			}
		}
		last = o
	}
	// The last campaign's Hive, dataset and release stay alive for the
	// live-heap reading.
	if heap := heapInUse(); heap > base {
		m.liveHeap = heap - base
	}
	runtime.KeepAlive(last)
	if err := c.teardown(last); err != nil {
		return nil, err
	}
	m.report = []reportLine{
		{name: "campaign_s", value: median(m.latencyMS) / 1e3, unit: "s", note: fmt.Sprintf("(median of %d campaigns)", len(m.latencyMS))},
		{name: "publish_s", value: median(publishS), unit: "s", note: fmt.Sprintf("(median of %d cold publications)", len(publishS))},
	}
	if tr != nil {
		m.layers = computeLayers(tr, m.ops)
	}
	return m, nil
}

func (c *campaign) teardown(o *campaignOutcome) error {
	if o == nil || o.stack == nil {
		return nil
	}
	err := o.stack.close()
	o.stack = nil
	return err
}

// runOne runs campaign n on a fresh Hive journaling into passDir. The
// returned outcome owns the Hive until teardown; the journal stays on disk
// until the run ends.
func (c *campaign) runOne(ctx context.Context, passDir string, n int, tr *tracer) (*campaignOutcome, error) {
	o := &campaignOutcome{}
	t0 := time.Now()
	engine, err := store.OpenJournal(filepath.Join(passDir, fmt.Sprintf("campaign-%d.journal", n)))
	if err != nil {
		return o, err
	}
	stack, err := startHive(engine, ingest.Config{Capacity: 256, MaxBatch: 256, Workers: 1}, tr)
	if err != nil {
		return o, err
	}
	o.stack = stack
	o.setup = time.Since(t0)

	ctx = withOp(ctx, n)
	ctx, root := tr.begin(ctx, "campaign")
	a0 := totalAlloc()
	t0 = time.Now()
	err = c.pipeline(ctx, o, tr)
	o.total = time.Since(t0)
	o.alloc = totalAlloc() - a0
	root.end()
	if tr != nil {
		recordQueue(tr, stack.queue.Stats(), engine.Stats().Syncs)
	}
	return o, err
}

// pipeline is the timed part of a campaign: register, deploy, run,
// upload, collect, convert, publish.
func (c *campaign) pipeline(ctx context.Context, o *campaignOutcome, tr *tracer) error {
	url := o.stack.srv.URL
	client := transport.NewClient(url)
	devs := make([]*device.Device, len(c.fleet))
	for i, cfg := range c.fleet {
		d, err := device.New(cfg)
		if err != nil {
			return err
		}
		devs[i] = d
		if err := client.Do(ctx, http.MethodPost, "/api/devices", d.Info(), nil); err != nil {
			return fmt.Errorf("register %s: %w", cfg.ID, err)
		}
	}
	hc, err := honeycomb.New(honeycombName, url)
	if err != nil {
		return err
	}
	spec, recruited, err := hc.Deploy(ctx, c.spec)
	if err != nil {
		return err
	}
	if len(recruited) != len(devs) {
		return fmt.Errorf("deploy recruited %d of %d devices", len(recruited), len(devs))
	}

	ups := make([]transport.Upload, len(devs))
	for i, d := range devs {
		_, a := tr.begin(ctx, "device.run")
		res, err := d.RunTask(spec)
		a.end()
		if err != nil {
			return err
		}
		ups[i] = res.Upload
		tr.add("device.records", float64(len(res.Upload.Records)))
	}

	fl := newFlusher(client, campaignBatch, int64(c.seed), tr)
	for i := range ups {
		if err := fl.add(ctx, &ups[i]); err != nil {
			return err
		}
	}
	if err := fl.finish(ctx); err != nil {
		return err
	}
	if fl.acked != len(ups) {
		return fmt.Errorf("%d of %d uploads acknowledged", fl.acked, len(ups))
	}
	tr.add("uploads.acked", float64(fl.acked))

	cctx, a := tr.begin(ctx, "honeycomb.collect")
	o.collected, err = hc.Collect(cctx, spec.ID)
	a.end()
	if err != nil {
		return err
	}
	owners, err := hc.DeviceUsers(ctx)
	if err != nil {
		return err
	}
	_, a = tr.begin(ctx, "honeycomb.dataset")
	o.dataset = honeycomb.UploadsToDataset(o.collected, owners)
	a.end()

	cfg := core.Config{PseudonymKey: []byte(releaseKey)}
	if tr != nil {
		strategies, err := core.DefaultStrategies(datasetOrigin(o.dataset))
		if err != nil {
			return err
		}
		cfg.Strategies = timedPortfolio(tr, strategies)
	}
	pctx, a := tr.beginPublish(ctx)
	t := time.Now()
	o.release, o.sel, err = hc.PublishPrivateShardedContext(pctx, o.dataset, cfg, c.policy)
	o.publish = time.Since(t)
	tr.endPublish(a)
	return err
}

// check compares a campaign's outputs with the reference: the collected
// uploads equal the uploads sent, and the release and the sharded
// selection report are byte-identical to the reference publication.
func (c *campaign) check(o *campaignOutcome) error {
	got, err := encodeUploads(o.collected)
	if err != nil {
		return err
	}
	if err := checkUploads(c.ref.uploads, got); err != nil {
		return fmt.Errorf("collected uploads: %w", err)
	}
	rel, err := releaseCSV(o.release)
	if err != nil {
		return err
	}
	if err := checkBytes("release", c.ref.release, rel); err != nil {
		return err
	}
	return checkBytes("selection report", c.ref.report, renderReport(o.sel))
}

func releaseCSV(d *trace.Dataset) ([]byte, error) {
	var buf bytes.Buffer
	if err := trace.WriteCSV(&buf, d); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
