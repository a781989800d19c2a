package main

// layerMetric is one per-layer metric of the traced pass and the
// end-to-end metric it should move, on which workload.
type layerMetric struct {
	name, unit, better, moves string
	value                     func(l *ledger) float64
}

// ledger is what the per-layer metrics are computed from: span aggregates
// and counters of the traced pass, and its op count. An op is a campaign,
// an acknowledged upload or a publication.
type ledger struct {
	spans map[string]layerTotal
	tr    *tracer
	ops   float64
}

func (l *ledger) c(name string) float64 { return l.tr.count(name) }

func (l *ledger) perOp(v float64) float64 { return v / l.ops }

func (l *ledger) totalMS(name string) float64 { return float64(l.spans[name].total) / 1e6 }

func (l *ledger) selfMS(name string) float64 { return float64(l.spans[name].self) / 1e6 }

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

var layerMetrics = []layerMetric{
	{"device.run_ms", "ms/op", "lower", "campaign_s on campaign; absent elsewhere",
		func(l *ledger) float64 { return l.perOp(l.totalMS("device.run")) }},
	{"device.records", "count/op", "higher", "sanity check for campaign_s (repeats exactly)",
		func(l *ledger) float64 { return l.perOp(l.c("device.records")) }},
	{"device.flush_ms", "ms/op", "lower", "campaign_s; flush_p50_ms on ingest",
		func(l *ledger) float64 { return l.perOp(l.totalMS("device.flush")) }},
	{"device.retries", "count/op", "lower", "flush_p99_ms and fail_ratio on ingest",
		func(l *ledger) float64 { return l.perOp(l.c("device.retries")) }},
	{"transport.client_ms", "ms/op", "lower", "campaign_s, uploads_per_s",
		func(l *ledger) float64 { return l.perOp(l.selfMS("device.flush")) }},
	{"transport.req_bytes_per_upload", "B/upload", "lower", "campaign_s, uploads_per_s",
		func(l *ledger) float64 { return ratio(l.c("hive.http_batch.req_bytes"), l.c("uploads.acked")) }},
	{"hive.http_batch_ms", "ms/op", "lower", "flush_p50_ms, uploads_per_s on ingest; campaign_s",
		func(l *ledger) float64 { return l.perOp(l.selfMS("hive.http_batch")) }},
	{"hive.http_collect_ms", "ms/op", "lower", "campaign_s",
		func(l *ledger) float64 { return l.perOp(l.totalMS("hive.http_collect")) }},
	{"hive.commit_ms", "ms/op", "lower", "uploads_per_s, campaign_s",
		func(l *ledger) float64 { return l.perOp(l.selfMS("hive.commit")) }},
	{"hive.replay_apply_ms", "ms/restart", "lower", "restart_s",
		func(l *ledger) float64 { return ratio(l.c("replay.callback_ns")/1e6, l.c("replay.runs")) }},
	{"hive.status_429", "count/op", "lower", "fail_ratio, flush_p99_ms",
		func(l *ledger) float64 { return l.perOp(l.c("hive.status_429")) }},
	{"hive.status_5xx", "count/op", "lower", "fail_ratio, flush_p99_ms",
		func(l *ledger) float64 { return l.perOp(l.c("hive.status_5xx")) }},
	{"ingest.uploads_per_commit", "uploads/commit", "higher", "flush_p50_ms, uploads_per_s on ingest",
		func(l *ledger) float64 { return ratio(l.c("ingest.accepted"), l.c("ingest.batches")) }},
	{"ingest.dropped", "count/op", "lower", "fail_ratio",
		func(l *ledger) float64 { return l.perOp(l.c("ingest.dropped")) }},
	{"store.append_ms", "ms/op", "lower", "uploads_per_s, flush_p99_ms on ingest",
		func(l *ledger) float64 { return l.perOp(l.totalMS("store.append")) }},
	{"store.fsyncs_per_commit", "fsyncs/commit", "lower", "flush_p50_ms on ingest",
		func(l *ledger) float64 { return ratio(l.c("store.syncs"), l.c("store.appends")) }},
	{"store.bytes_per_req_byte", "B/B", "lower", "restart_s, uploads_per_s, campaign_s",
		func(l *ledger) float64 { return ratio(l.c("store.batch_bytes"), l.c("hive.http_batch.req_bytes")) }},
	{"store.replay_read_ms", "ms/restart", "lower", "restart_s",
		func(l *ledger) float64 {
			return ratio((l.c("replay.total_ns")-l.c("replay.callback_ns"))/1e6, l.c("replay.runs"))
		}},
	{"store.replay_records", "records/restart", "lower", "restart_s (repeats exactly)",
		func(l *ledger) float64 { return ratio(l.c("replay.records"), l.c("replay.runs")) }},
	{"honeycomb.collect_ms", "ms/op", "lower", "campaign_s",
		func(l *ledger) float64 { return l.perOp(l.selfMS("honeycomb.collect")) }},
	{"honeycomb.dataset_ms", "ms/op", "lower", "campaign_s",
		func(l *ledger) float64 { return l.perOp(l.totalMS("honeycomb.dataset")) }},
	{"core.publish_ms", "ms/op", "lower", "publish_s",
		func(l *ledger) float64 { return l.perOp(l.totalMS("core.publish")) }},
	{"lppm.protect_ms", "ms/op", "lower", "publish_s; high on campaign, low on republish",
		func(l *ledger) float64 { return l.perOp(l.totalMS("lppm.protect")) }},
	{"lppm.protect_calls", "count/op", "lower", "publish_s on republish",
		func(l *ledger) float64 { return l.perOp(float64(l.spans["lppm.protect"].n)) }},
	{"core.other_ms", "ms/op", "lower", "publish_s (partition, reference POIs, attack, scoring, merge)",
		func(l *ledger) float64 { return l.perOp(l.selfMS("core.publish")) }},
	{"evalcache.hit_ratio", "ratio", "higher", "publish_s on republish; zero gets on campaign",
		func(l *ledger) float64 {
			return ratio(l.c("evalcache.hits"), l.c("evalcache.hits")+l.c("evalcache.misses"))
		}},
	{"evalcache.evictions", "count/op", "lower", "publish_s, live_heap_mb on republish",
		func(l *ledger) float64 { return l.perOp(l.c("evalcache.evictions")) }},
	{"evalcache.pruned", "count/op", "higher", "publish_s, live_heap_mb on republish",
		func(l *ledger) float64 { return l.perOp(l.c("evalcache.pruned")) }},
	{"evalcache.bytes", "B", "lower", "publish_s, live_heap_mb on republish",
		func(l *ledger) float64 { return l.c("evalcache.bytes") }},
	{"trace.overhead_pct", "%", "lower", "none: traced latency_p50_ms over untraced, minus one",
		func(*ledger) float64 { return 0 }}, // filled in by tracedRun
}

// computeLayers evaluates every per-layer metric of a traced pass.
func computeLayers(tr *tracer, ops int) map[string]float64 {
	l := &ledger{spans: aggregate(tr.spans), tr: tr, ops: float64(max(ops, 1))}
	out := make(map[string]float64, len(layerMetrics))
	for _, lm := range layerMetrics {
		out[lm.name] = lm.value(l)
	}
	return out
}
