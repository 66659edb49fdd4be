// Command benchsuite is the repository benchmark: it runs one named
// workload against the system in-process, checks the outputs for
// correctness, and prints every metric by name with its unit. The last
// line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones (measured with no
// wrappers in the request path); with -trace 1 they are the per-layer
// ones, derived from spans the benchmark's own wrappers record around
// each layer's public entry points. See README.md for the workloads and
// the layer-to-metric map.
//
// Run it through run.sh from the repository root, which builds it first:
//
//	bash _benchsuite/run.sh --workload figure4-sweep --seed 1 --seconds 8 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strings"
	"time"
)

// minPasses is the fewest timed passes a run makes, so every reported
// end-to-end figure is a median of at least three.
const minPasses = 3

// setupsPerRun is how many times a workload whose passes share one
// set-up (warm-campaign) builds that set-up; setup_s is their median.
const setupsPerRun = 3

// workload is one named traffic mix. setup builds fresh state (untimed;
// reported as setup_s); instance.pass runs one fixed amount of work.
type workload struct {
	name string
	why  string
	// freshPerPass makes every timed pass start from its own fresh
	// set-up. Otherwise setupsPerRun set-ups are made, the last one is
	// kept, and every pass runs on it.
	freshPerPass bool
	setup        func(e *env, tr *tracer) (instance, error)
}

// instance is a set-up workload ready for timed passes.
type instance interface {
	// pass runs one fixed amount of work. tr is nil on untraced runs.
	pass(e *env, tr *tracer) (passResult, error)
	close()
}

// passResult is what one timed pass measured.
type passResult struct {
	ops       int             // completed verdicts, cells, samples or monitors
	attempted int             // operations attempted
	failed    int             // operations that failed or were refused
	wall      time.Duration   // timed wall time
	lat       []time.Duration // per-operation latency
	first     []time.Duration // per-operation time to first result, where one exists

	allocBytes uint64  // heap bytes allocated during the pass (whole process)
	retained   uint64  // live heap after a forced GC at the end of the pass
	gcCycles   uint32  // GC cycles during the pass
	gcCPU      float64 // GC CPU seconds / total CPU seconds during the pass

	notes []string // extra report lines (p99 where valid, checks, counts)
}

var workloads = []workload{figure4Workload, coldWorkload, warmWorkload, monitorWorkload}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// env is one benchmark process's context.
type env struct {
	seed    int64
	seconds float64
	work    string // scratch root inside the checkout
	runDir  string // this process's data directory under work
	nextDir int
	header  []string

	mixDone bool // the cold-verdict cost classes are in the header
	pass    int  // set-ups made so far, for per-pass request seeds

	// What the traced passes leave for the per-layer metrics.
	cold    *coldLayer
	warm    *warmLayer
	monitor *monitorLayer
}

// dir returns a fresh, empty data directory under the run directory.
func (e *env) dir(prefix string) string {
	e.nextDir++
	return filepath.Join(e.runDir, fmt.Sprintf("%s-%d", prefix, e.nextDir))
}

// rng returns a generator derived from the workload seed and a salt, so
// each consumer of randomness draws an independent reproducible stream.
func (e *env) rng(salt int64) *rand.Rand {
	return rand.New(rand.NewSource(e.seed*1_000_003 + salt))
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() { os.Exit(run()) }

func run() int {
	fs := flag.NewFlagSet("benchsuite", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: figure4-sweep, cold-verdict, warm-campaign, monitor-stream")
	seed := fs.Int64("seed", 1, "workload seed (drives request generation only)")
	seconds := fs.Float64("seconds", 8, "timed seconds per run; passes repeat until reached (at least 3)")
	traceMode := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	w, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "benchsuite: unknown workload %q\n", *name)
		return 2
	}
	work := os.Getenv("BENCHSUITE_WORK")
	if work == "" {
		work = ".bench_build"
	}
	e := &env{seed: *seed, seconds: *seconds, work: work,
		runDir: filepath.Join(work, "data", fmt.Sprintf("%s-%d", w.name, os.Getpid()))}
	if err := os.MkdirAll(e.runDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "benchsuite:", err)
		return 1
	}
	defer os.RemoveAll(e.runDir)
	e.header = environmentHeader(w, *seed)

	var (
		res   result
		lines []string
		err   error
	)
	if *traceMode == 1 {
		res, lines, err = traceRun(e, w)
	} else {
		res, lines, err = measure(e, w)
	}
	for _, l := range e.header {
		fmt.Println("# " + l)
	}
	for _, l := range lines {
		fmt.Println(l)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchsuite:", err)
		return 1
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchsuite:", err)
		return 1
	}
	fmt.Println(string(out))
	if !res.Correct || res.Failed > 0 {
		return 1
	}
	return 0
}

// measure is the untimed-set-up / timed-pass loop of an end-to-end run.
// Passes repeat until the timed total reaches the requested seconds (and
// at least minPasses ran); every metric is the median over passes.
func measure(e *env, w workload) (result, []string, error) {
	var (
		setups []float64
		passes []passResult
		timed  time.Duration
		inst   instance
		base   uint64 // live heap before the set-up that built inst
	)
	defer func() {
		if inst != nil {
			inst.close()
		}
	}()
	setUp := func() error {
		base = liveHeap()
		start := time.Now()
		in, err := w.setup(e, nil)
		if err != nil {
			return fmt.Errorf("%s set-up: %w", w.name, err)
		}
		setups = append(setups, time.Since(start).Seconds())
		inst = in
		return nil
	}
	if !w.freshPerPass {
		for i := 0; i < setupsPerRun; i++ {
			if inst != nil {
				inst.close()
				inst = nil
			}
			if err := setUp(); err != nil {
				return result{}, nil, err
			}
		}
	}
	for len(passes) < minPasses || timed.Seconds() < e.seconds {
		if w.freshPerPass {
			if err := setUp(); err != nil {
				return result{}, nil, err
			}
		}
		p, err := timedPass(e, inst, nil)
		if err != nil {
			return result{}, nil, fmt.Errorf("%s pass %d: %w", w.name, len(passes)+1, err)
		}
		if p.retained > base {
			p.retained -= base
		} else {
			p.retained = 0
		}
		p.notes = append([]string{fmt.Sprintf("pass %d: %d operations in %.3fs = %.2f/s, p50 %.4f ms, %.1f kB allocated each",
			len(passes)+1, p.ops, p.wall.Seconds(), float64(p.ops)/p.wall.Seconds(), ms(quantile(p.lat, 0.5)),
			float64(p.allocBytes)/1024/float64(p.ops))}, p.notes...)
		passes = append(passes, p)
		timed += p.wall
		if w.freshPerPass {
			inst.close()
			inst = nil
		}
	}
	return endToEnd(w, setups, passes)
}

// timedPass wraps one pass with the process-wide runtime counters: bytes
// allocated, GC cycles and GC CPU share over the pass, and the live heap
// once it ends. measure subtracts the live heap from before the pass's
// set-up, so retained_mb is the state the set-up and pass left live
// (fleet, caches, lab template), not the benchmark's own per-pass records.
func timedPass(e *env, inst instance, tr *tracer) (passResult, error) {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	gcBefore := readCPU()
	p, err := inst.pass(e, tr)
	if err != nil {
		return p, err
	}
	runtime.ReadMemStats(&after)
	gcAfter := readCPU()
	p.allocBytes = after.TotalAlloc - before.TotalAlloc
	p.gcCycles = after.NumGC - before.NumGC
	if total := gcAfter.total - gcBefore.total; total > 0 {
		p.gcCPU = (gcAfter.gc - gcBefore.gc) / total
	}
	p.retained = liveHeap()
	return p, nil
}

// liveHeap forces two GC cycles (the first moves sync.Pool contents to the
// victim cache, the second frees them) and returns the live heap.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

type cpuSample struct{ gc, total float64 }

func readCPU() cpuSample {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	var c cpuSample
	if s[0].Value.Kind() == metrics.KindFloat64 {
		c.gc = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		c.total = s[1].Value.Float64()
	}
	return c
}

// endToEnd folds the passes into the end-to-end metrics and the
// human-readable report lines. Timings and retained heap are medians over
// passes, which shrug off a pass slowed by a neighbour. Allocation is the
// whole timed phase's bytes over its operations: it is deterministic per
// input, but inputs differ between passes (each has its own seeds, so its
// own shard split and WAL rotation count), and the ratio of totals weighs
// every pass instead of picking one.
func endToEnd(w workload, setups []float64, passes []passResult) (result, []string, error) {
	var rate, p50, retained []float64
	var allocBytes uint64
	res := result{Correct: true, Metrics: map[string]metric{}}
	var allLat, allFirst []time.Duration
	var notes []string
	ops := 0
	for _, p := range passes {
		res.Attempted += p.attempted
		res.Failed += p.failed
		ops += p.ops
		allocBytes += p.allocBytes
		rate = append(rate, float64(p.ops)/p.wall.Seconds())
		p50 = append(p50, ms(quantile(p.lat, 0.5)))
		retained = append(retained, float64(p.retained)/(1<<20))
		allLat = append(allLat, p.lat...)
		allFirst = append(allFirst, p.first...)
		notes = append(notes, p.notes...)
	}
	res.Metrics["verdicts_per_s"] = metric{median(rate), "1/s"}
	res.Metrics["latency_p50_ms"] = metric{median(p50), "ms"}
	res.Metrics["alloc_kb_per_verdict"] = metric{float64(allocBytes) / 1024 / float64(ops), "kB"}
	res.Metrics["retained_mb"] = metric{median(retained), "MB"}
	res.Metrics["setup_s"] = metric{median(setups), "s"}

	lines := []string{fmt.Sprintf("workload %s: %d passes, %d set-ups", w.name, len(passes), len(setups))}
	add := func(name string, v float64, unit string, n int, what string) {
		lines = append(lines, fmt.Sprintf("%-22s %14.4f %-5s (n=%d %s)", name, v, unit, n, what))
	}
	add("verdicts_per_s", res.Metrics["verdicts_per_s"].Value, "1/s", len(passes), fmt.Sprintf("passes, %d operations", ops))
	add("latency_p50_ms", res.Metrics["latency_p50_ms"].Value, "ms", len(allLat), "latency samples")
	if q, ok := validTail(allLat, 0.99); ok {
		add("latency_p99_ms", ms(q), "ms", len(allLat), "latency samples, >=10 beyond p99")
	} else {
		lines = append(lines, fmt.Sprintf("%-22s %14s %-5s (n=%d: fewer than 10 samples beyond p99)", "latency_p99_ms", "n/a", "ms", len(allLat)))
	}
	if len(allFirst) > 0 {
		add("first_result_ms", ms(quantile(allFirst, 0.5)), "ms", len(allFirst), "first-result samples")
	}
	add("alloc_kb_per_verdict", res.Metrics["alloc_kb_per_verdict"].Value, "kB", ops, "operations, whole timed phase")
	add("retained_mb", res.Metrics["retained_mb"].Value, "MB", len(passes), "passes")
	add("setup_s", res.Metrics["setup_s"].Value, "s", len(setups), "set-ups")
	errRate := 0.0
	if res.Attempted > 0 {
		errRate = float64(res.Failed) / float64(res.Attempted)
	}
	add("error_rate", errRate, "share", res.Attempted, "attempted")
	lines = append(lines, notes...)
	return res, lines, nil
}

// validTail returns the q-quantile only when at least ten samples lie
// beyond it.
func validTail(d []time.Duration, q float64) (time.Duration, bool) {
	if float64(len(d))*(1-q) < 10 {
		return 0, false
	}
	return quantile(d, q), true
}

func quantile(d []time.Duration, q float64) time.Duration {
	if len(d) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(q * float64(len(s)-1))
	return s[i]
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// environmentHeader is the provenance printed on every result.
func environmentHeader(w workload, seed int64) []string {
	commit := "unknown (not built from a git checkout)"
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return []string{
		fmt.Sprintf("benchsuite workload=%s seed=%d why=%q", w.name, seed, w.why),
		fmt.Sprintf("go=%s GOMAXPROCS=%d nproc=%d cpu=%q commit=%s",
			runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), cpuModel(), commit),
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
