package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"

	"scarecrow/internal/analysis"
	"scarecrow/internal/core"
	"scarecrow/internal/malware"
	"scarecrow/internal/store"
	"scarecrow/internal/trace"
	"scarecrow/internal/winapi"
	"scarecrow/internal/winsim"
)

// The hotpath mode is the in-process companion to the service benchmarks:
// it runs the exact work a scarecrowd worker does per cold verdict — clone
// a template machine, execute raw and protected runs, render the verdict,
// commit it to the WAL — without HTTP or SSE in the way, and pins the
// allocation behaviour of each stage with micro-benchmarks.
//
// The cold gate compares against baselineColdPerS, the honest
// pre-optimization number: the seed tree's campaign cold sweep completed
// 76 jobs in 0.62s but 20 of those were cache hits planted by the classic
// bench that service-smoke.sh runs first against the same daemon, so the
// real uncached rate was (76-20)/0.62s ≈ 90 verdicts/s. That corrected
// figure — not the flattering 122/s the old artifact printed — is what
// the 5x speedup gate is measured from.

// Allocation budgets for the micro-benchmarked stages, mirrored by the
// AllocsPerRun regression tests in the owning packages. The clone budget
// is "a few dozen" rather than zero: a machine clone legitimately builds
// a handful of fresh maps and one process arena; the budget exists to
// keep the old per-field deep copy (~2000 allocations) from creeping
// back. A hooked and an unhooked call without arguments allocate nothing
// (results travel by value, Call values are recycled, the genuine
// implementation captures nothing); their budgets leave a sliver for the
// amortized growth of the trace and trigger slices every call appends
// to. The spawner budget is one paired verdict of Figure 4's self-spawn
// exemplar, down from about 13,900 before those changes.
const (
	budgetCloneAllocs          = 64
	budgetRecordAllocs         = 0.5
	budgetMarshalAllocs        = 2
	budgetPutAllocs            = 2
	budgetHookedCallAllocs     = 0.1
	budgetUnhookedCallAllocs   = 0.1
	budgetSpawnerVerdictAllocs = 4850
)

type hotpathOptions struct {
	// N is the number of cold verdicts the pipeline measurement runs.
	N int
	// Workers is the pipeline width (0 = GOMAXPROCS, the service default).
	Workers int
	// Baseline is the honest pre-optimization cold rate in verdicts/s.
	Baseline float64
	// MinSpeedup gates ColdSpeedup (0 = report only).
	MinSpeedup float64
}

// MicroBench is one stage's micro-benchmark result.
type MicroBench struct {
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
}

// HotpathReport is the -hotpath artifact (BENCH_hotpath.json).
type HotpathReport struct {
	Benchmark  string `json:"benchmark"`
	GoMaxProcs int    `json:"gomaxprocs"`

	// Cold pipeline: unique keys end to end, nothing served from cache.
	ColdVerdicts     int     `json:"cold_verdicts"`
	ColdWorkers      int     `json:"cold_workers"`
	ColdErrors       int     `json:"cold_errors"`
	ColdWallS        float64 `json:"cold_wall_s"`
	ColdVerdictsPerS float64 `json:"cold_verdicts_per_s"`

	// BaselineColdVerdictsPerS is the honest seed-tree rate the speedup is
	// computed against (see the package comment for its derivation).
	BaselineColdVerdictsPerS float64 `json:"baseline_cold_verdicts_per_s"`
	ColdSpeedup              float64 `json:"cold_speedup"`

	// Per-stage micro-benchmarks. StorePutBatched is per record inside an
	// 8-record group commit.
	Clone           MicroBench `json:"clone"`
	Record          MicroBench `json:"record"`
	Marshal         MicroBench `json:"marshal"`
	StorePutBatched MicroBench `json:"store_put_batched"`

	// Hook dispatch: one Scarecrow-hooked call (IsDebuggerPresent) and one
	// unhooked call (GetCommandLine) in a protected process, and one
	// paired verdict of the self-spawn exemplar (CorpusSelfSpawner).
	HookedCall     MicroBench `json:"hooked_call"`
	UnhookedCall   MicroBench `json:"unhooked_call"`
	SpawnerVerdict MicroBench `json:"spawner_verdict"`
}

func (r HotpathReport) String() string {
	return fmt.Sprintf(
		"scarebench hotpath: %d cold verdicts, %d workers (GOMAXPROCS %d)\n"+
			"  cold: %.2fs wall, %.1f verdicts/s — %.1fx over the honest %.1f/s baseline\n"+
			"  clone:   %8.0f ns/op  %6.1f allocs/op  %8.0f B/op\n"+
			"  record:  %8.0f ns/op  %6.2f allocs/op  %8.0f B/op\n"+
			"  marshal: %8.0f ns/op  %6.1f allocs/op  %8.0f B/op\n"+
			"  put:     %8.0f ns/op  %6.2f allocs/op  %8.0f B/op (per record, batched)\n"+
			"  hooked:  %8.0f ns/op  %6.2f allocs/op  %8.0f B/op (IsDebuggerPresent under Scarecrow)\n"+
			"  unhooked:%8.0f ns/op  %6.2f allocs/op  %8.0f B/op (GetCommandLine)\n"+
			"  spawner: %8.0f ns/op  %6.0f allocs/op  %8.0f B/op (paired verdict)\n",
		r.ColdVerdicts, r.ColdWorkers, r.GoMaxProcs,
		r.ColdWallS, r.ColdVerdictsPerS, r.ColdSpeedup, r.BaselineColdVerdictsPerS,
		r.Clone.NsPerOp, r.Clone.AllocsPerOp, r.Clone.BytesPerOp,
		r.Record.NsPerOp, r.Record.AllocsPerOp, r.Record.BytesPerOp,
		r.Marshal.NsPerOp, r.Marshal.AllocsPerOp, r.Marshal.BytesPerOp,
		r.StorePutBatched.NsPerOp, r.StorePutBatched.AllocsPerOp, r.StorePutBatched.BytesPerOp,
		r.HookedCall.NsPerOp, r.HookedCall.AllocsPerOp, r.HookedCall.BytesPerOp,
		r.UnhookedCall.NsPerOp, r.UnhookedCall.AllocsPerOp, r.UnhookedCall.BytesPerOp,
		r.SpawnerVerdict.NsPerOp, r.SpawnerVerdict.AllocsPerOp, r.SpawnerVerdict.BytesPerOp)
}

// runHotpathMode drives -hotpath: measure, print, write the artifact, and
// exit nonzero on a missed gate — the regression tripwire make ci relies
// on.
func runHotpathMode(opts hotpathOptions, out string) {
	report, err := benchHotpath(opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "scarebench:", err)
		os.Exit(1)
	}
	fmt.Print(report)
	if out != "" {
		buf, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "scarebench:", err)
			os.Exit(1)
		}
		if err := os.WriteFile(out, append(buf, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "scarebench:", err)
			os.Exit(1)
		}
	}

	failed := false
	fail := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "scarebench: "+format+"\n", args...)
		failed = true
	}
	if report.ColdErrors > 0 {
		fail("%d cold verdicts errored", report.ColdErrors)
	}
	if opts.MinSpeedup > 0 && report.ColdSpeedup < opts.MinSpeedup {
		fail("cold speedup %.1fx below the required %.1fx (%.1f verdicts/s vs the %.1f/s baseline)",
			report.ColdSpeedup, opts.MinSpeedup, report.ColdVerdictsPerS, report.BaselineColdVerdictsPerS)
	}
	if report.Clone.AllocsPerOp > budgetCloneAllocs {
		fail("Snapshot.Clone allocates %.1f objects/op, budget is %d", report.Clone.AllocsPerOp, budgetCloneAllocs)
	}
	if report.Record.AllocsPerOp > budgetRecordAllocs {
		fail("Recorder.Record allocates %.2f objects/op, budget is %.1f", report.Record.AllocsPerOp, budgetRecordAllocs)
	}
	if report.Marshal.AllocsPerOp > budgetMarshalAllocs {
		fail("verdict marshal allocates %.1f objects/op, budget is %d", report.Marshal.AllocsPerOp, budgetMarshalAllocs)
	}
	if report.StorePutBatched.AllocsPerOp > budgetPutAllocs {
		fail("batched Store.Put allocates %.2f objects/record, budget is %d", report.StorePutBatched.AllocsPerOp, budgetPutAllocs)
	}
	if report.HookedCall.AllocsPerOp > budgetHookedCallAllocs {
		fail("hooked API call allocates %.2f objects/call, budget is %.1f", report.HookedCall.AllocsPerOp, budgetHookedCallAllocs)
	}
	if report.UnhookedCall.AllocsPerOp > budgetUnhookedCallAllocs {
		fail("unhooked API call allocates %.2f objects/call, budget is %.1f", report.UnhookedCall.AllocsPerOp, budgetUnhookedCallAllocs)
	}
	if report.SpawnerVerdict.AllocsPerOp > budgetSpawnerVerdictAllocs {
		fail("spawner paired verdict allocates %.0f objects, budget is %d", report.SpawnerVerdict.AllocsPerOp, budgetSpawnerVerdictAllocs)
	}
	if failed {
		os.Exit(1)
	}
}

// benchHotpath measures the cold pipeline and the per-stage micro-benches.
func benchHotpath(opts hotpathOptions) (HotpathReport, error) {
	if opts.N < 1 {
		opts.N = 1
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	specs, err := catalogSpecimens()
	if err != nil {
		return HotpathReport{}, err
	}

	report := HotpathReport{
		Benchmark:                "scarebench-hotpath",
		GoMaxProcs:               runtime.GOMAXPROCS(0),
		ColdVerdicts:             opts.N,
		ColdWorkers:              workers,
		BaselineColdVerdictsPerS: opts.Baseline,
	}

	wall, errs, err := coldPipeline(specs, opts.N, workers)
	if err != nil {
		return report, err
	}
	report.ColdErrors = errs
	report.ColdWallS = wall.Seconds()
	if wall > 0 {
		report.ColdVerdictsPerS = float64(opts.N) / wall.Seconds()
	}
	if opts.Baseline > 0 {
		report.ColdSpeedup = report.ColdVerdictsPerS / opts.Baseline
	}

	report.Clone = benchClone()
	report.Record = benchRecord()
	if report.Marshal, err = benchMarshal(specs[0]); err != nil {
		return report, err
	}
	if report.StorePutBatched, err = benchPutBatched(); err != nil {
		return report, err
	}
	if report.HookedCall, err = benchHookCall(func(ctx *winapi.Context) { ctx.IsDebuggerPresent() }); err != nil {
		return report, err
	}
	if report.UnhookedCall, err = benchHookCall(func(ctx *winapi.Context) { ctx.GetCommandLine() }); err != nil {
		return report, err
	}
	if report.SpawnerVerdict, err = benchSpawnerVerdict(); err != nil {
		return report, err
	}
	return report, nil
}

func catalogSpecimens() ([]*malware.Specimen, error) {
	names := malware.CatalogNames()
	specs := make([]*malware.Specimen, 0, len(names))
	for _, name := range names {
		s, err := malware.Resolve(name)
		if err != nil {
			return nil, fmt.Errorf("resolving %s: %w", name, err)
		}
		specs = append(specs, s)
	}
	return specs, nil
}

// coldPipeline runs n unique (specimen, seed) verdicts through the worker
// path — lab run, verdict render, WAL commit — and returns the wall time.
// Every key is fresh, so nothing can be served from a cache: this is the
// pure cold rate.
func coldPipeline(specs []*malware.Specimen, n, workers int) (time.Duration, int, error) {
	dir, err := os.MkdirTemp("", "scarebench-hotpath-*")
	if err != nil {
		return 0, 0, err
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(dir, store.Options{NoBackground: true})
	if err != nil {
		return 0, 0, err
	}
	defer st.Close()

	var (
		work = make(chan int)
		wg   sync.WaitGroup
		mu   sync.Mutex
		errs int
	)
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lab := analysis.NewLab(0)
			var buf []byte
			for i := range work {
				s := specs[i%len(specs)]
				seed := int64(i + 1)
				res := lab.RunSampleSeeded(s, seed)
				var renderErr error
				buf, renderErr = res.Doc().AppendJSON(buf[:0])
				if res.Err != nil || renderErr != nil {
					mu.Lock()
					errs++
					mu.Unlock()
					continue
				}
				key := fmt.Sprintf("%s|%s|%d", s.ID, winsim.ProfileBareMetalSandbox, seed)
				if err := st.Put(key, buf); err != nil {
					mu.Lock()
					errs++
					mu.Unlock()
				}
			}
		}()
	}
	for i := 0; i < n; i++ {
		work <- i
	}
	close(work)
	wg.Wait()
	return time.Since(start), errs, nil
}

func micro(r testing.BenchmarkResult, opsPerIter float64) MicroBench {
	iters := float64(r.N) * opsPerIter
	if iters == 0 {
		return MicroBench{}
	}
	return MicroBench{
		NsPerOp:     float64(r.T.Nanoseconds()) / iters,
		AllocsPerOp: float64(r.MemAllocs) / iters,
		BytesPerOp:  float64(r.MemBytes) / iters,
	}
}

func benchClone() MicroBench {
	template := winsim.NewProfileMachine(winsim.ProfileBareMetalSandbox, 0).Snapshot()
	return micro(testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = template.Clone(int64(i))
		}
	}), 1)
}

func benchRecord() MicroBench {
	return micro(testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		r := trace.NewRecorder()
		defer r.Release()
		ev := trace.Event{Kind: trace.KindFileRead, PID: 4242, Image: "sample.exe", Target: `C:\sample.exe`}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r.Record(ev)
		}
	}), 1)
}

func benchMarshal(s *malware.Specimen) (MicroBench, error) {
	res := analysis.NewLab(0).RunSampleSeeded(s, 1)
	if res.Err != nil {
		return MicroBench{}, fmt.Errorf("marshal bench lab run: %w", res.Err)
	}
	doc := res.Doc()
	if _, err := doc.AppendJSON(nil); err != nil {
		return MicroBench{}, err
	}
	return micro(testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		var buf []byte
		for i := 0; i < b.N; i++ {
			buf, _ = doc.AppendJSON(buf[:0])
		}
	}), 1), nil
}

func benchPutBatched() (MicroBench, error) {
	dir, err := os.MkdirTemp("", "scarebench-put-*")
	if err != nil {
		return MicroBench{}, err
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(dir, store.Options{NoBackground: true})
	if err != nil {
		return MicroBench{}, err
	}
	defer st.Close()

	const batchSize = 8
	batch := make([]store.Record, batchSize)
	for i := range batch {
		batch[i] = store.Record{
			Key: fmt.Sprintf("hotpath|baremetal-sandbox|%d", i),
			Val: []byte(`{"category":"deactivated","confidence":0.97}`),
		}
	}
	if err := st.PutBatch(batch); err != nil {
		return MicroBench{}, err
	}
	return micro(testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := st.PutBatch(batch); err != nil {
				b.Fatal(err)
			}
		}
	}), batchSize), nil
}

// protectedContext deploys Scarecrow on a fresh bare-metal machine and
// returns the API context of a launched, registered target.
func protectedContext() (*winapi.Context, error) {
	m := winsim.NewProfileMachine(winsim.ProfileBareMetalSandbox, 0)
	sys := winapi.NewSystem(m)
	const image = `C:\Users\admin\Desktop\target.exe`
	sys.RegisterProgram(image, func(*winapi.Context) int { return winapi.ExitOK })
	ctrl, err := core.Deploy(sys, core.NewEngine(core.NewDB(), core.RecommendedConfig(m.Profile)))
	if err != nil {
		return nil, err
	}
	target, err := ctrl.LaunchTarget(image, "target.exe")
	if err != nil {
		return nil, err
	}
	return sys.Context(target), nil
}

// benchHookCall measures one API call in a protected process. A hooked
// call reports a trigger each time, so the deployment is renewed (off the
// clock) every few thousand calls to keep the trigger stream at a
// realistic length.
func benchHookCall(call func(*winapi.Context)) (MicroBench, error) {
	const callsPerDeployment = 4096
	var setupErr error
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		var ctx *winapi.Context
		for i := 0; i < b.N; i++ {
			if i%callsPerDeployment == 0 {
				b.StopTimer()
				var err error
				if ctx, err = protectedContext(); err != nil {
					setupErr = err
					return
				}
				call(ctx) // size the Call free list and trigger slice
				b.StartTimer()
			}
			call(ctx)
		}
	})
	if setupErr != nil {
		return MicroBench{}, fmt.Errorf("hook-call bench deployment: %w", setupErr)
	}
	return micro(r, 1), nil
}

// benchSpawnerVerdict measures one paired verdict of Figure 4's self-spawn
// exemplar, the run shape of 78% of the MalGene corpus under Scarecrow.
func benchSpawnerVerdict() (MicroBench, error) {
	lab := analysis.NewLab(0)
	s := malware.CorpusSelfSpawner()
	if res := lab.RunSampleSeeded(s, 1); res.Err != nil {
		return MicroBench{}, fmt.Errorf("spawner bench lab run: %w", res.Err)
	}
	return micro(testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			lab.RunSampleSeeded(s, 1)
		}
	}), 1), nil
}
