package main

import (
	"bytes"
	"context"
	"testing"

	"apisense/internal/core"
	"apisense/internal/hive"
	"apisense/internal/honeycomb"
	"apisense/internal/mobgen"
	"apisense/internal/trace"
	"apisense/internal/transport"
)

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(n - i) // unsorted on purpose
		}
		return s
	}
	for _, tc := range []struct {
		n    int
		p    float64
		want float64
		ok   bool
	}{
		{1000, 99, 990, true}, // 10 samples above 990
		{999, 99, 990, false}, // 9 samples above
		{100, 90, 90, true},
		{100, 99, 99, false},
		{10, 50, 5, false},
	} {
		v, ok := percentile(seq(tc.n), tc.p)
		if v != tc.want || ok != tc.ok {
			t.Errorf("p%g of %d samples = %v, %v; want %v, %v", tc.p, tc.n, v, ok, tc.want, tc.ok)
		}
	}
	if _, ok := percentile(nil, 50); ok {
		t.Error("percentile of no samples reported ok")
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "parent", Start: 0, End: 100},
		// Overlapping children cover [10,60] once; the last one sticks
		// out of the parent and only [90,100] counts.
		{ID: 2, Parent: 1, Name: "child", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "child", Start: 30, End: 60},
		{ID: 4, Parent: 1, Name: "child", Start: 35, End: 50},
		{ID: 5, Parent: 1, Name: "child", Start: 90, End: 120},
		{ID: 6, Parent: 2, Name: "grandchild", Start: 15, End: 20},
	}
	agg := aggregate(spans)
	if got := agg["parent"]; got.total != 100 || got.self != 40 {
		t.Errorf("parent total/self = %d/%d, want 100/40", got.total, got.self)
	}
	if got := agg["child"]; got.n != 4 || got.total != 30+30+15+30 || got.self != 30+30+15+30-5 {
		t.Errorf("child = %+v", got)
	}
	if got := unionWithin(nil, 0, 10); got != 0 {
		t.Errorf("union of nothing = %d", got)
	}
}

// smallPublication publishes a small dataset the way the campaign does.
func smallPublication(t *testing.T, raw *trace.Dataset) (*trace.Dataset, *core.ShardedSelection) {
	t.Helper()
	policy, err := core.NewShardByUser(4)
	if err != nil {
		t.Fatal(err)
	}
	mw, err := core.New(core.Config{PseudonymKey: []byte(releaseKey), Parallelism: 1}, datasetOrigin(raw))
	if err != nil {
		t.Fatal(err)
	}
	release, sel, err := mw.PublishShardedContext(context.Background(), raw, policy)
	if err != nil {
		t.Fatal(err)
	}
	return release, sel
}

// smallUploads turns a small mobility dataset into device uploads.
func smallUploads(t *testing.T) ([]transport.Upload, map[string]string) {
	t.Helper()
	ds, _, err := mobgen.Generate(mobgen.Config{Seed: 5, Users: 4, Days: 2})
	if err != nil {
		t.Fatal(err)
	}
	owners := map[string]string{}
	var ups []transport.Upload
	for i, tr := range ds.Trajectories {
		id := tr.User + "-phone"
		owners[id] = tr.User
		up := transport.Upload{TaskID: "task-0001", DeviceID: id}
		for _, r := range tr.Records {
			up.Records = append(up.Records, transport.UploadRecord{
				Sensor: "gps", TimeMillis: r.Time.UnixMilli() + int64(i),
				Data: map[string]any{"lat": r.Pos.Lat, "lon": r.Pos.Lon},
			})
		}
		ups = append(ups, up)
	}
	return ups, owners
}

func TestCampaignCheckRejectsCorruption(t *testing.T) {
	ups, owners := smallUploads(t)
	raw := honeycomb.UploadsToDataset(ups, owners)
	release, sel := smallPublication(t, raw)
	c := &campaign{}
	var err error
	if c.ref.uploads, err = encodeUploads(ups); err != nil {
		t.Fatal(err)
	}
	if c.ref.release, err = releaseCSV(release); err != nil {
		t.Fatal(err)
	}
	c.ref.report = renderReport(sel)

	good := func() *campaignOutcome {
		return &campaignOutcome{collected: append([]transport.Upload(nil), ups...), release: release, sel: sel}
	}
	if err := c.check(good()); err != nil {
		t.Fatalf("identical outputs rejected: %v", err)
	}

	missing := good()
	missing.collected = missing.collected[:len(missing.collected)-1]
	reordered := good()
	reordered.collected[0], reordered.collected[1] = reordered.collected[1], reordered.collected[0]
	corrupt := good()
	corrupt.release = release.Clone()
	corrupt.release.Trajectories[0].Records[0].Pos.Lat += 1e-9
	report := good()
	changed := *sel
	changed.Utility += 1e-12
	report.sel = &changed
	for name, o := range map[string]*campaignOutcome{
		"missing upload": missing, "reordered uploads": reordered,
		"corrupted release": corrupt, "changed report": report,
	} {
		if err := c.check(o); err == nil {
			t.Errorf("%s accepted", name)
		}
	}

	// One corrupted byte anywhere in the release fails the byte check.
	bad := bytes.Clone(c.ref.release)
	bad[len(bad)/2] ^= 0x01
	if err := checkBytes("release", c.ref.release, bad); err == nil {
		t.Error("release with one corrupted byte accepted")
	}
}

func TestIngestCheckRejectsLostOrReorderedUploads(t *testing.T) {
	ups, _ := smallUploads(t)
	w := &ingestWL{hot: [ingestGateways]string{"task-0001"}, uploads: [][]transport.Upload{ups}}
	recovered := func(stored []transport.Upload) *hive.Hive {
		h := hive.New()
		for _, u := range ups {
			if err := h.RegisterDevice(transport.DeviceInfo{ID: u.DeviceID, User: "u", Sensors: []string{"gps"}}); err != nil {
				t.Fatal(err)
			}
		}
		if _, _, err := h.PublishTask(transport.TaskSpec{Name: "t", Script: "var x = 1;", Sensors: []string{"gps"}, PeriodSeconds: 1}); err != nil {
			t.Fatal(err)
		}
		for _, err := range h.SubmitBatch(stored) {
			if err != nil {
				t.Fatal(err)
			}
		}
		return h
	}
	if n := w.checkRecovered(recovered(ups), 0, len(ups)); n != 0 {
		t.Fatalf("exact history failed %d uploads", n)
	}
	swapped := append([]transport.Upload(nil), ups...)
	swapped[1], swapped[2] = swapped[2], swapped[1]
	altered := append([]transport.Upload(nil), ups...)
	altered[3].Records = append([]transport.UploadRecord(nil), altered[3].Records...)
	altered[3].Records[0].TimeMillis++
	for name, stored := range map[string][]transport.Upload{
		"missing upload":    ups[1:],
		"reordered uploads": swapped,
		"altered upload":    altered,
	} {
		if n := w.checkRecovered(recovered(stored), 0, len(ups)); n == 0 {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestRepublishCheckRejectsCorruptedRelease(t *testing.T) {
	ds, _, err := mobgen.Generate(mobgen.Config{Seed: 9, Users: 4, Days: 2})
	if err != nil {
		t.Fatal(err)
	}
	policy, err := core.NewShardByUser(8)
	if err != nil {
		t.Fatal(err)
	}
	r := &republish{base: ds, users: ds.Users(), origin: datasetOrigin(ds), policy: policy}
	mw, err := r.newMiddleware(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	release, sel, err := mw.PublishShardedContext(context.Background(), ds, policy)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.checkCold(publication{input: ds, release: release, sel: sel}); err != nil {
		t.Fatalf("identical publication rejected: %v", err)
	}
	corrupt := release.Clone()
	corrupt.Trajectories[0].Records[0].Pos.Lon += 1e-9
	missing := release.Clone()
	missing.Trajectories = missing.Trajectories[1:]
	reordered := release.Clone()
	reordered.Trajectories[0], reordered.Trajectories[1] = reordered.Trajectories[1], reordered.Trajectories[0]
	chosen := *sel
	chosen.Shards = append([]core.ShardOutcome(nil), sel.Shards...)
	chosen.Shards[0].Chosen = "identity"
	for name, p := range map[string]publication{
		"corrupted release":  {input: ds, release: corrupt, sel: sel},
		"missing trajectory": {input: ds, release: missing, sel: sel},
		"reordered release":  {input: ds, release: reordered, sel: sel},
		"other strategy":     {input: ds, release: release, sel: &chosen},
	} {
		if err := r.checkCold(p); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}
