// Command perfbench is the pipeline benchmark of this repository. It runs
// one workload against the real code, in-process over loopback HTTP,
// checks the workload's outputs exactly, and prints its metrics by name
// with units; the last line of standard output is one JSON object.
//
//	bash perfbench/run.sh --workload campaign|ingest|republish \
//	    --seed N --seconds S --trace 0|1
//
// --trace 0 prints the end-to-end metrics, measured with every wrapper
// off. --trace 1 measures an untraced and a traced pass of S/2 seconds
// each, prints the per-layer metrics of the traced pass and the tracing
// overhead, and writes the spans to .bench_build/spans/. See README.md for
// the metric definitions and the per-layer to end-to-end map.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// Seeds recorded for later claims: tune on the default, confirm a claimed
// gain on the held-out seed as well.
const (
	defaultSeed = 1
	heldOutSeed = 2
)

// workload is one benchmark workload: prepare builds every input and
// oracle from the seed; measure runs a warm-up pass, the set-up and a
// timed section of about d, traced when tr is non-nil.
type workload struct {
	name    string
	prepare func(seed uint64, dir string) (instance, error)
}

type instance interface {
	measure(d time.Duration, tr *tracer) (*measurement, error)
}

var workloads = []workload{
	{"campaign", prepareCampaign},
	{"ingest", prepareIngest},
	{"republish", prepareRepublish},
}

// measurement is what one pass of a workload observed.
type measurement struct {
	setup     []float64     // seconds, one sample per set-up
	latencyMS []float64     // one sample per op (ingest: per flush)
	ops       int           // acknowledged ops in the timed section
	wall      time.Duration // wall time the ops took
	alloc     uint64        // runtime TotalAlloc growth while the ops ran
	liveHeap  uint64        // heap retained by the system under test
	attempted int
	failed    int
	// report holds the workload's own metrics (campaign_s, restart_s, ...).
	report []reportLine
	// layers holds the per-layer metrics (traced pass only).
	layers map[string]float64
}

type reportLine struct {
	name  string
	value float64
	unit  string
	note  string
}

// endToEnd derives the metrics BENCHMARK.json gates on: those every
// workload reports with a spread across seeds inside their bound.
// live_heap_mb is printed but not gated: on republish it follows the
// cache's content, which varies by a third between seeds.
func (m *measurement) endToEnd() map[string]float64 {
	return map[string]float64{
		"setup_s":            median(m.setup),
		"latency_p50_ms":     median(m.latencyMS),
		"ops_per_s":          float64(m.ops) / m.wall.Seconds(),
		"alloc_bytes_per_op": float64(m.alloc) / float64(max(m.ops, 1)),
	}
}

var endToEndUnits = map[string]string{
	"setup_s":            "s",
	"latency_p50_ms":     "ms",
	"ops_per_s":          "1/s",
	"alloc_bytes_per_op": "B",
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: campaign, ingest or republish")
	seed := fs.Uint64("seed", defaultSeed, "input seed")
	seconds := fs.Int("seconds", 10, "length of the timed section in seconds")
	traced := fs.Int("trace", 0, "1 = traced run: per-layer metrics, tracing overhead, span file")
	work := fs.String("work", ".bench_build", "scratch directory for stores and span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(stderr, "perfbench: need --workload campaign|ingest|republish, --seconds >= 1, --trace 0|1")
		return 2
	}
	if err := os.MkdirAll(*work, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(*work, "run-")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	// Stores are deleted only here, after measuring, and the filesystem is
	// synced before and after the run: on a filesystem mounted with
	// discard, deleting files issues TRIMs that would otherwise slow the
	// fsyncs of whatever is measured next.
	syscall.Sync()
	defer func() {
		os.RemoveAll(dir)
		syscall.Sync()
	}()

	out := bufio.NewWriter(stdout)
	defer out.Flush()
	fmt.Fprintf(out, "perfbench workload=%s seed=%d seconds=%d trace=%d\n", w.name, *seed, *seconds, *traced)
	fmt.Fprintf(out, "env nproc=%d gomaxprocs=%d go=%s cpu=%q store_fs=%s flush=%q seeds=%d(run),%d(default),%d(held-out)\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpuModel(), fsType(dir),
		"fsync every commit", *seed, defaultSeed, heldOutSeed)

	inst, err := w.prepare(*seed, dir)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench: prepare:", err)
		return 1
	}
	d := time.Duration(*seconds) * time.Second
	var res result
	if *traced == 0 {
		m, err := inst.measure(d, nil)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		printMeasurement(out, "", m)
		res = newResult(m, m.endToEnd(), endToEndUnits)
	} else {
		res, err = tracedRun(out, inst, d, filepath.Join(*work, "spans"), fmt.Sprintf("%s-seed%d.jsonl", w.name, *seed))
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(out, string(line))
	if !res.Correct {
		fmt.Fprintf(stderr, "perfbench: %d of %d ops failed or failed their output check\n", res.Failed, res.Attempted)
		return 1
	}
	return 0
}

// result is the JSON object printed as the last line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func newResult(m *measurement, values map[string]float64, units map[string]string) result {
	r := result{
		Correct:   m.failed == 0 && m.attempted > 0,
		Attempted: m.attempted,
		Failed:    m.failed,
		Metrics:   make(map[string]metricValue, len(values)),
	}
	for name, v := range values {
		r.Metrics[name] = metricValue{Value: v, Unit: units[name]}
	}
	return r
}

// tracedRun measures an untraced and a traced pass of d/2 each, prints the
// traced pass's per-layer metrics and the tracing overhead, and writes the
// span file.
func tracedRun(out io.Writer, inst instance, d time.Duration, spanDir, spanFile string) (result, error) {
	plain, err := inst.measure(d/2, nil)
	if err != nil {
		return result{}, err
	}
	tr := newTracer()
	restore := installParentTransport()
	traced, err := inst.measure(d/2, tr)
	restore()
	if err != nil {
		return result{}, err
	}
	printMeasurement(out, "untraced ", plain)
	printMeasurement(out, "traced ", traced)
	pe, te := plain.endToEnd(), traced.endToEnd()
	overhead := (te["latency_p50_ms"]/pe["latency_p50_ms"] - 1) * 100
	fmt.Fprintf(out, "tracing overhead: latency_p50_ms %.4g traced vs %.4g untraced = %+.2f%%; ops_per_s %.4g vs %.4g\n",
		te["latency_p50_ms"], pe["latency_p50_ms"], overhead, te["ops_per_s"], pe["ops_per_s"])
	traced.layers["trace.overhead_pct"] = overhead

	units := make(map[string]string, len(layerMetrics))
	for _, lm := range layerMetrics {
		units[lm.name] = lm.unit
		fmt.Fprintf(out, "layer %-32s %14.6g %-16s moves: %s\n", lm.name, traced.layers[lm.name], lm.unit, lm.moves)
	}
	if err := os.MkdirAll(spanDir, 0o755); err != nil {
		return result{}, err
	}
	path := filepath.Join(spanDir, spanFile)
	if err := writeSpans(path, tr.spans); err != nil {
		return result{}, err
	}
	fmt.Fprintf(out, "spans: %d written to %s\n", len(tr.spans), path)

	// Both passes must pass their output checks.
	both := *traced
	both.attempted += plain.attempted
	both.failed += plain.failed
	return newResult(&both, traced.layers, units), nil
}

func printMeasurement(out io.Writer, prefix string, m *measurement) {
	e2e := m.endToEnd()
	names := make([]string, 0, len(e2e))
	for n := range e2e {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(out, "%se2e %-20s %14.6g %s\n", prefix, n, e2e[n], endToEndUnits[n])
	}
	fail := 0.0
	if m.attempted > 0 {
		fail = float64(m.failed) / float64(m.attempted)
	}
	fmt.Fprintf(out, "%smetric %-18s %14.6g %-5s (%d set-ups)\n", prefix, "setup_s", median(m.setup), "s", len(m.setup))
	for _, l := range m.report {
		fmt.Fprintf(out, "%smetric %-18s %14.6g %-5s %s\n", prefix, l.name, l.value, l.unit, l.note)
	}
	fmt.Fprintf(out, "%smetric %-18s %14.6g %-5s (%d failed of %d attempted)\n", prefix, "fail_ratio", fail, "ratio", m.failed, m.attempted)
	fmt.Fprintf(out, "%smetric %-18s %14.6g %-5s (%d ops)\n", prefix, "alloc_bytes_per_op", e2e["alloc_bytes_per_op"], "B", m.ops)
	fmt.Fprintf(out, "%smetric %-18s %14.6g %-5s\n", prefix, "live_heap_mb", float64(m.liveHeap)/(1<<20), "MiB")
}

// latencyLine reports a latency percentile under the percentile rule, with
// its sample count.
func latencyLine(name string, samples []float64, p float64) reportLine {
	v, ok := percentile(samples, p)
	if !ok {
		return reportLine{name: name, unit: "ms", note: fmt.Sprintf("(not reported: %d samples, fewer than %d beyond p%g)", len(samples), minBeyond, p)}
	}
	return reportLine{name: name, value: v, unit: "ms", note: fmt.Sprintf("(p%g of %d samples)", p, len(samples))}
}

// heapInUse forces collections and returns the live heap. The second
// collection empties the sync.Pool victim caches the first one fills
// (encoding/json keeps its largest response buffer there).
func heapInUse() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, l := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// fsType names the filesystem holding dir from its statfs magic number.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53: "ext4", 0x58465342: "xfs", 0x9123683E: "btrfs", 0x01021994: "tmpfs",
		0x794C7630: "overlayfs", 0x6969: "nfs", 0x2FC12FC1: "zfs", 0x65735546: "fuse",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%X", st.Type)
}
