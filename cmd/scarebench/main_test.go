package main

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"scarecrow/internal/campaign"
	"scarecrow/internal/service"
	"scarecrow/internal/store"
)

// The bench loop against an in-process scarecrowd: all requests succeed,
// the cycled keys produce cache hits, and the daemon counters line up.
func TestBenchAgainstInProcessService(t *testing.T) {
	srv := service.NewServer(service.Config{Workers: 2, QueueDepth: 16, CacheSize: 64})
	srv.Start()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	summary, err := bench(benchOptions{
		Addr:    ts.URL,
		N:       40,
		C:       4,
		Samples: []string{"kasidet", "wannacry"},
		Seeds:   2,
		Wait:    5 * time.Second,
	})
	if err != nil {
		t.Fatalf("bench: %v", err)
	}
	if summary.Errors != 0 {
		t.Fatalf("bench reported %d errors", summary.Errors)
	}
	if summary.UniqueKeys != 4 {
		t.Errorf("unique keys = %d, want 4", summary.UniqueKeys)
	}
	// 40 requests over 4 unique keys: at most 4 lab runs, the rest cache
	// hits or coalesced.
	if summary.LabRuns > 4 {
		t.Errorf("lab runs = %d, want <= 4 (caching/coalescing broken)", summary.LabRuns)
	}
	if summary.CacheHitRate == 0 {
		t.Errorf("cache hit rate = 0, want > 0 after %d replays", summary.Requests)
	}
	if summary.VerdictsPerS <= 0 || summary.ExecutionsPerS != 2*summary.VerdictsPerS {
		t.Errorf("throughput accounting wrong: %v verdicts/s, %v executions/s",
			summary.VerdictsPerS, summary.ExecutionsPerS)
	}
	if summary.LatencyMaxMs < summary.LatencyP50Ms {
		t.Errorf("latency percentiles inverted: p50 %v > max %v", summary.LatencyP50Ms, summary.LatencyMaxMs)
	}
	if !strings.Contains(summary.String(), "verdicts/s") {
		t.Errorf("summary rendering missing throughput: %s", summary)
	}
}

func TestBenchUnreachableDaemon(t *testing.T) {
	_, err := bench(benchOptions{
		Addr:    "http://127.0.0.1:1",
		N:       1,
		C:       1,
		Samples: []string{"kasidet"},
		Seeds:   1,
		Wait:    200 * time.Millisecond,
	})
	if err == nil || !strings.Contains(err.Error(), "never became healthy") {
		t.Fatalf("unreachable daemon: err = %v, want health-wait failure", err)
	}
}

func TestBenchNoSamples(t *testing.T) {
	srv := service.NewServer(service.Config{Workers: 1, QueueDepth: 4, CacheSize: 4})
	srv.Start()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	_, err := bench(benchOptions{Addr: ts.URL, N: 1, C: 1, Samples: []string{" "}, Seeds: 1, Wait: time.Second})
	if err == nil || !strings.Contains(err.Error(), "no samples") {
		t.Fatalf("empty sample list: err = %v, want no-samples failure", err)
	}
}

// The -campaign path against an in-process daemon with a real store: the
// cold sweep pays lab runs, the warm sweep replays from cache/WAL, and
// the speedup is measurable.
func TestBenchCampaignColdWarm(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatalf("store.Open: %v", err)
	}
	defer st.Close()
	srv := service.NewServer(service.Config{Workers: 4, QueueDepth: 32, CacheSize: 256, Store: st})
	srv.Start()
	eng := campaign.NewEngine(srv, campaign.Options{})
	mux := http.NewServeMux()
	mux.Handle("/", srv.Handler())
	eng.Register(mux)
	ts := httptest.NewServer(mux)
	defer ts.Close()

	report, err := benchCampaign(campaignOptions{Addr: ts.URL, Seeds: 1, Quota: 8, Wait: 5 * time.Second})
	if err != nil {
		t.Fatalf("benchCampaign: %v", err)
	}
	specimens := len(sweepSpecimens())
	if report.Jobs != specimens {
		t.Fatalf("jobs = %d, want %d (one per specimen)", report.Jobs, specimens)
	}
	if report.Cold.Completed != specimens || report.Warm.Completed != specimens {
		t.Fatalf("incomplete sweeps: cold %d warm %d of %d", report.Cold.Completed, report.Warm.Completed, specimens)
	}
	if report.Cold.Errors != 0 || report.Warm.Errors != 0 {
		t.Fatalf("sweep errors: cold %d warm %d", report.Cold.Errors, report.Warm.Errors)
	}
	if report.Warm.CacheHits != specimens {
		t.Fatalf("warm sweep cache hits = %d, want %d (everything replayed)", report.Warm.CacheHits, specimens)
	}
	if report.WarmSpeedup <= 1 {
		t.Fatalf("warm speedup = %.2fx, want > 1x", report.WarmSpeedup)
	}
	if !strings.Contains(report.String(), "warm speedup") {
		t.Fatalf("report rendering missing speedup: %s", report)
	}
	// The honest cold rate counts misses only. This daemon is fresh, so
	// every cold job is a miss and the uncached rate must equal the raw
	// one; the field must never exceed it (cache hits can only inflate
	// the raw number).
	wantUncached := float64(report.Cold.Completed-report.Cold.CacheHits) / report.Cold.WallS
	if diff := report.ColdUncachedVerdictsPerS - wantUncached; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("cold_uncached_verdicts_per_s = %.4f, want %.4f", report.ColdUncachedVerdictsPerS, wantUncached)
	}
	if report.ColdUncachedVerdictsPerS > report.Cold.VerdictsPerS {
		t.Fatalf("uncached rate %.1f/s exceeds the raw cold rate %.1f/s",
			report.ColdUncachedVerdictsPerS, report.Cold.VerdictsPerS)
	}
}

// The -hotpath pipeline end to end, sized small: every stage measured,
// every verdict cold, no errors. The real gate values are exercised by
// make bench-hotpath; here we only check the measurement machinery.
func TestBenchHotpath(t *testing.T) {
	if testing.Short() {
		t.Skip("hotpath micro-benchmarks take a few seconds")
	}
	report, err := benchHotpath(hotpathOptions{N: 16, Workers: 1, Baseline: 90})
	if err != nil {
		t.Fatalf("benchHotpath: %v", err)
	}
	if report.ColdErrors != 0 {
		t.Fatalf("cold pipeline reported %d errors", report.ColdErrors)
	}
	if report.ColdVerdictsPerS <= 0 || report.ColdWallS <= 0 {
		t.Fatalf("cold pipeline unmeasured: %+v", report)
	}
	if report.ColdSpeedup != report.ColdVerdictsPerS/90 {
		t.Fatalf("speedup %.2f does not match rate %.1f over baseline 90", report.ColdSpeedup, report.ColdVerdictsPerS)
	}
	for name, m := range map[string]MicroBench{
		"clone":    report.Clone,
		"record":   report.Record,
		"marshal":  report.Marshal,
		"put":      report.StorePutBatched,
		"hooked":   report.HookedCall,
		"unhooked": report.UnhookedCall,
		"spawner":  report.SpawnerVerdict,
	} {
		if m.NsPerOp <= 0 {
			t.Errorf("%s stage unmeasured: %+v", name, m)
		}
	}
	// The stage budgets the gate enforces must hold here too — a failure
	// in this test is the same regression make bench-hotpath would catch.
	// (Not under the race detector, which defeats sync.Pool reuse on
	// purpose and makes the pooled budgets unmeasurable.)
	if raceEnabled {
		return
	}
	if report.Clone.AllocsPerOp > budgetCloneAllocs {
		t.Errorf("clone allocs %.1f over budget %d", report.Clone.AllocsPerOp, budgetCloneAllocs)
	}
	if report.Record.AllocsPerOp > budgetRecordAllocs {
		t.Errorf("record allocs %.2f over budget %.1f", report.Record.AllocsPerOp, budgetRecordAllocs)
	}
	if report.Marshal.AllocsPerOp > budgetMarshalAllocs {
		t.Errorf("marshal allocs %.1f over budget %d", report.Marshal.AllocsPerOp, budgetMarshalAllocs)
	}
	if report.StorePutBatched.AllocsPerOp > budgetPutAllocs {
		t.Errorf("batched put allocs %.2f over budget %d", report.StorePutBatched.AllocsPerOp, budgetPutAllocs)
	}
	if report.HookedCall.AllocsPerOp > budgetHookedCallAllocs {
		t.Errorf("hooked call allocs %.2f over budget %.1f", report.HookedCall.AllocsPerOp, budgetHookedCallAllocs)
	}
	if report.UnhookedCall.AllocsPerOp > budgetUnhookedCallAllocs {
		t.Errorf("unhooked call allocs %.2f over budget %.1f", report.UnhookedCall.AllocsPerOp, budgetUnhookedCallAllocs)
	}
	if report.SpawnerVerdict.AllocsPerOp > budgetSpawnerVerdictAllocs {
		t.Errorf("spawner verdict allocs %.0f over budget %d", report.SpawnerVerdict.AllocsPerOp, budgetSpawnerVerdictAllocs)
	}
	if !strings.Contains(report.String(), "cold:") {
		t.Errorf("report rendering missing cold line: %s", report)
	}
}
