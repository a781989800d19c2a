package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"os"
	"time"

	"apisense/internal/core"
	"apisense/internal/evalcache"
	"apisense/internal/geo"
	"apisense/internal/mobgen"
	"apisense/internal/trace"
)

// The republish workload re-publishes a user-sharded dataset through a
// warm evaluation cache, one publication at a time, in-process: how a
// long-running Honeycomb publishes with -cache-mb.
const (
	republishUsers   = 20
	republishDays    = 3
	republishBuckets = 40 // user-hash buckets: about one user per shard
	republishChanged = 2  // users with new data in each op: 10%
	republishSetups  = 5
	republishWarmOps = 3 // ops of the discarded warm-up pass
	// republishOpsPerSecond sizes the timed section: 30 publications per
	// requested second, about that long on a 2-CPU Xeon. The count is
	// fixed rather than timed because every op leaves new entries in the
	// cache, so the live heap depends on how many ops ran.
	republishOpsPerSecond = 30
)

type republish struct {
	base    *trace.Dataset
	users   []string
	origin  geo.Point
	policy  core.ShardBy
	offsets []float64 // the mutation schedule, grown on demand from rng
	rng     *rand.Rand
}

func prepareRepublish(seed uint64, _ string) (instance, error) {
	ds, _, err := mobgen.Generate(mobgen.Config{Seed: seed, Users: republishUsers, Days: republishDays})
	if err != nil {
		return nil, err
	}
	policy, err := core.NewShardByUser(republishBuckets)
	if err != nil {
		return nil, err
	}
	return &republish{
		base:   ds,
		users:  ds.Users(),
		origin: datasetOrigin(ds),
		policy: policy,
		rng:    rand.New(rand.NewPCG(seed, 0x7265707562)),
	}, nil
}

// mutate returns op i's input: the base dataset with a rotating 10% of the
// users shifted north by a fresh per-op offset, so their content is new
// every op while every other shard's content is unchanged.
func (r *republish) mutate(i int) *trace.Dataset {
	for len(r.offsets) <= i {
		// 0.1 to 0.2 m steps, accumulated: every op's offset is distinct.
		prev := 0.0
		if n := len(r.offsets); n > 0 {
			prev = r.offsets[n-1]
		}
		r.offsets = append(r.offsets, prev+1e-6*(1+r.rng.Float64()))
	}
	changed := make(map[string]bool, republishChanged)
	for k := 0; k < republishChanged; k++ {
		changed[r.users[(i*republishChanged+k)%len(r.users)]] = true
	}
	out := trace.NewDataset()
	for _, t := range r.base.Trajectories {
		if changed[t.User] {
			t = t.Clone()
			for j := range t.Records {
				t.Records[j].Pos.Lat += r.offsets[i]
			}
		}
		out.Add(t)
	}
	return out
}

// newMiddleware builds the publishing middleware over cache (nil = cold).
func (r *republish) newMiddleware(cache evalcache.Cache, tr *tracer) (*core.Middleware, error) {
	cfg := core.Config{PseudonymKey: []byte(releaseKey), Cache: cache}
	if tr != nil {
		strategies, err := core.DefaultStrategies(r.origin)
		if err != nil {
			return nil, err
		}
		cfg.Strategies = timedPortfolio(tr, strategies)
	}
	return core.New(cfg, r.origin)
}

// setUp creates a default-bound cache and warms it with one publication
// of the base dataset.
func (r *republish) setUp(tr *tracer) (*core.Middleware, *evalcache.LRU, error) {
	cache := evalcache.NewLRU(0)
	mw, err := r.newMiddleware(cache, tr)
	if err != nil {
		return nil, nil, err
	}
	if _, _, err := mw.PublishShardedContext(context.Background(), r.base, r.policy); err != nil {
		return nil, nil, fmt.Errorf("warm publication: %w", err)
	}
	return mw, cache, nil
}

// publication is one op's input and outputs, kept for the checks.
type publication struct {
	op      int
	input   *trace.Dataset
	release *trace.Dataset
	sel     *core.ShardedSelection
}

func (r *republish) measure(d time.Duration, tr *tracer) (*measurement, error) {
	base := heapInUse()
	ctx := context.Background()

	// Warm-up pass: a set-up and a few ops on a throwaway cache.
	mw, _, err := r.setUp(nil)
	if err != nil {
		return nil, err
	}
	for i := 0; i < republishWarmOps; i++ {
		if _, _, err := mw.PublishShardedContext(ctx, r.mutate(i), r.policy); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}

	m := &measurement{}
	var cache *evalcache.LRU
	for s := 0; s < republishSetups; s++ {
		t := time.Now()
		mw, cache, err = r.setUp(tr)
		if err != nil {
			return nil, err
		}
		m.setup = append(m.setup, time.Since(t).Seconds())
	}

	before := cache.Stats()
	var first, last publication
	ops := max(1, int(d.Seconds()*republishOpsPerSecond))
	for i := 0; i < ops; i++ {
		in := r.mutate(i)
		m.attempted++
		pctx, a := tr.beginPublish(withOp(ctx, i))
		a0 := totalAlloc()
		t := time.Now()
		release, sel, err := mw.PublishShardedContext(pctx, in, r.policy)
		lat := time.Since(t)
		m.alloc += totalAlloc() - a0
		tr.endPublish(a)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: republish op %d: %v\n", i, err)
			m.failed++
			continue
		}
		m.ops++
		m.wall += lat
		m.latencyMS = append(m.latencyMS, float64(lat)/1e6)
		last = publication{op: i, input: in, release: release, sel: sel}
		if i == 0 {
			first = last
		}
	}
	if heap := heapInUse(); heap > base {
		m.liveHeap = heap - base
	}
	after := cache.Stats()

	// The first and last ops must match a cold publication of the same
	// input: the release byte for byte, and each shard's chosen strategy.
	for _, p := range []publication{first, last} {
		if p.input == nil {
			continue
		}
		if err := r.checkCold(p); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: republish op %d: %v\n", p.op, err)
			m.failed++
		}
	}

	m.report = []reportLine{
		{name: "publish_s", value: median(m.latencyMS) / 1e3, unit: "s", note: fmt.Sprintf("(median of %d warm publications)", len(m.latencyMS))},
	}
	if tr != nil {
		tr.add("evalcache.hits", float64(after.Hits-before.Hits))
		tr.add("evalcache.misses", float64(after.Misses-before.Misses))
		tr.add("evalcache.evictions", float64(after.Evictions-before.Evictions))
		tr.add("evalcache.pruned", float64(after.Pruned-before.Pruned))
		tr.add("evalcache.bytes", float64(after.Bytes))
		m.layers = computeLayers(tr, m.ops)
	}
	return m, nil
}

// checkCold publishes p's input with no cache and compares.
func (r *republish) checkCold(p publication) error {
	mw, err := r.newMiddleware(nil, nil)
	if err != nil {
		return err
	}
	release, sel, err := mw.PublishShardedContext(context.Background(), p.input, r.policy)
	if err != nil {
		return fmt.Errorf("cold publication: %w", err)
	}
	if err := checkBytes("chosen strategy per shard", chosenPerShard(sel), chosenPerShard(p.sel)); err != nil {
		for i := range sel.Shards {
			if i < len(p.sel.Shards) && sel.Shards[i].Chosen != p.sel.Shards[i].Chosen {
				err = fmt.Errorf("%w; shard %s: cold chose %q, warm chose %q", err,
					sel.Shards[i].Key, sel.Shards[i].Chosen, p.sel.Shards[i].Chosen)
			}
		}
		return err
	}
	want, err := releaseCSV(release)
	if err != nil {
		return err
	}
	got, err := releaseCSV(p.release)
	if err != nil {
		return err
	}
	return checkBytes("release", want, got)
}
