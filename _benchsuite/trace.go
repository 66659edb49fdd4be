package main

import (
	"fmt"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"scarecrow/internal/analysis"
	"scarecrow/internal/malware"
)

// replicaStride picks the traced cold-verdict requests that get a
// lab-stage replica: every 4th request of the traced pass.
const replicaStride = 4

// overheadPairs is how many untraced/traced pass pairs of the chosen
// workload measure the tracing overhead.
const overheadPairs = 2

// coldLayer is what the traced cold-verdict pass leaves for the
// per-layer metrics.
type coldLayer struct {
	submitted, rejected uint64
	wall                time.Duration
	meanDepth           float64
	compactions         uint64
	rewritten           int64
	perBackend          []int
	keep                map[int][]byte // served verdict bytes of the replicated requests
	reqs                []verdictReq
}

type warmLayer struct {
	campaigns           int
	hits, misses        uint64
	submitted, rejected uint64
	calls               int
	launch              []time.Duration
	engineWall          []time.Duration
	resolve             []time.Duration
}

type monitorLayer struct {
	reqs           []verdictReq
	runs, rejected uint64
}

// perLayer lists every per-layer metric a traced run prints, in order.
var perLayer = []struct{ name, unit string }{
	{"front.self_ms", "ms"},
	{"front.backend_ms", "ms"},
	{"front.shard_skew", "ratio"},
	{"front.first_backend_event_ms", "ms"},
	{"front.backend_calls_per_campaign", "count"},
	{"service.handler_ms", "ms"},
	{"service.monitor_handler_ms", "ms"},
	{"service.resolve_us", "us"},
	{"service.cache_hit_rate", "share"},
	{"service.rejected_share", "share"},
	{"campaign.engine_wall_ms", "ms"},
	{"campaign.launch_ms", "ms"},
	{"winsim.clone_us", "us"},
	{"analysis.judge_us", "us"},
	{"analysis.marshal_us", "us"},
	{"analysis.verdict_kb", "kB"},
	{"store.put_p50_us", "us"},
	{"store.put_p99_us", "us"},
	{"store.compactions", "count"},
	{"store.rewritten_mb", "MB"},
	{"winapi.raw_run_us", "us"},
	{"core.protected_run_us", "us"},
	{"core.injections_per_verdict", "count"},
	{"trace.events_per_verdict", "count"},
	{"trace.summary_us", "us"},
	{"deter.plant_us", "us"},
	{"deter.observe_ns_per_event", "ns"},
	{"analysis.monitored_run_us", "us"},
	{"replica.stage_coverage", "share"},
	{"runtime.gc_cpu_share", "share"},
	{"runtime.gc_cycles", "count"},
	{"bench.trace_overhead_pct", "%"},
}

// tracedPass sets a workload up, then runs one pass with the tracer
// recording (tr nil: an untraced pass of the same work).
func tracedPass(e *env, w workload, tr *tracer) (passResult, error) {
	inst, err := w.setup(e, tr)
	if err != nil {
		return passResult{}, fmt.Errorf("%s set-up: %w", w.name, err)
	}
	defer inst.close()
	if tr != nil {
		tr.active.Store(true)
		defer tr.active.Store(false)
	}
	p, err := timedPass(e, inst, tr)
	if err != nil {
		return p, fmt.Errorf("%s traced pass: %w", w.name, err)
	}
	return p, nil
}

// traceRun is the per-layer run. It measures the tracing overhead on the
// chosen workload (alternating untraced and traced passes of the same work),
// runs one traced pass of every other workload so that every layer is
// reached, then re-enacts traced requests through the lab-stage replica.
// Every per-layer metric comes from the workload the layer map names for
// it (README.md); the runtime and overhead metrics come from the chosen
// workload.
func traceRun(e *env, w workload) (result, []string, error) {
	tr := newTracer()
	res := result{Correct: true, Metrics: map[string]metric{}}
	set := func(name string, v float64) {
		for _, m := range perLayer {
			if m.name == name {
				res.Metrics[name] = metric{v, m.unit}
				return
			}
		}
		panic("benchsuite: unlisted per-layer metric " + name) // a bug in this file, not an input
	}
	count := func(p passResult) {
		res.Attempted += p.attempted
		res.Failed += p.failed
	}

	// Untraced and traced passes alternate, so neither side always runs
	// first in a fresh process; overhead compares the sides' medians.
	var untracedRate, tracedRate, untracedP50, tracedP50 []float64
	var traced passResult
	rate := func(p passResult) float64 { return float64(p.ops) / p.wall.Seconds() }
	for i := 0; i < overheadPairs; i++ {
		u, err := tracedPass(e, w, nil)
		if err != nil {
			return res, nil, err
		}
		count(u)
		if traced, err = tracedPass(e, w, tr); err != nil {
			return res, nil, err
		}
		count(traced)
		untracedRate = append(untracedRate, rate(u))
		tracedRate = append(tracedRate, rate(traced))
		untracedP50 = append(untracedP50, ms(quantile(u.lat, 0.5)))
		tracedP50 = append(tracedP50, ms(quantile(traced.lat, 0.5)))
	}
	set("bench.trace_overhead_pct", 100*(median(untracedRate)-median(tracedRate))/median(untracedRate))
	set("runtime.gc_cpu_share", traced.gcCPU)
	set("runtime.gc_cycles", float64(traced.gcCycles))
	lines := []string{fmt.Sprintf("traced run: overhead on %s over %d alternating pairs: untraced %.2f/s, traced %.2f/s, p50 %.3f ms untraced vs %.3f ms traced",
		w.name, overheadPairs, median(untracedRate), median(tracedRate), median(untracedP50), median(tracedP50))}
	for _, x := range workloads {
		if x.name == w.name {
			continue
		}
		p, err := tracedPass(e, x, tr)
		if err != nil {
			return res, nil, err
		}
		count(p)
	}

	// HTTP layers, joined by request key.
	byKey := func(name string, keys map[string]bool) map[string]span {
		out := map[string]span{}
		for _, s := range tr.named(name) {
			if keys[s.Key] {
				out[s.Key] = s
			}
		}
		return out
	}
	coldKeys := map[string]bool{}
	for _, r := range e.cold.reqs {
		coldKeys[string(r.body)] = true
	}
	monKeys := map[string]bool{}
	for _, r := range e.monitor.reqs {
		monKeys[string(r.body)] = true
	}
	fronts, hops := byKey("front.handler", coldKeys), byKey("front.backend", coldKeys)
	var self, hop, handler, monHandler []time.Duration
	for k, f := range fronts {
		if h, ok := hops[k]; ok {
			self = append(self, f.dur()-h.dur())
			hop = append(hop, h.dur())
		}
	}
	for _, s := range byKey("service.handler", coldKeys) {
		handler = append(handler, s.dur())
	}
	for _, s := range byKey("service.handler", monKeys) {
		monHandler = append(monHandler, s.dur())
	}
	set("front.self_ms", ms(quantile(self, 0.5)))
	set("front.backend_ms", ms(quantile(hop, 0.5)))
	set("service.handler_ms", ms(quantile(handler, 0.5)))
	set("service.monitor_handler_ms", ms(quantile(monHandler, 0.5)))
	maxN, sumN := 0, 0
	for _, n := range e.cold.perBackend {
		sumN += n
		maxN = max(maxN, n)
	}
	set("front.shard_skew", float64(maxN)*float64(len(e.cold.perBackend))/float64(sumN))
	lines = append(lines, fmt.Sprintf("cold-verdict backend calls per shard %v", e.cold.perBackend))
	// Little's law: mean jobs waiting = arrival rate x mean wait.
	arrivals := float64(e.cold.submitted) / e.cold.wall.Seconds()
	// Printed, not put in the JSON: with clientConns closed-loop clients
	// and GOMAXPROCS workers per backend no job ever queues, so the value
	// is a constant 0 here.
	lines = append(lines, fmt.Sprintf("service.queue_wait_ms %.4f ms (Little's law: mean queue depth %.4f / %.0f jobs/s)",
		1000*e.cold.meanDepth/arrivals, e.cold.meanDepth, arrivals))
	set("store.compactions", float64(e.cold.compactions))
	set("store.rewritten_mb", float64(e.cold.rewritten)/(1<<20))

	var firstEvent []time.Duration
	for _, s := range tr.named("front.backend") {
		if strings.HasSuffix(s.Key, "/events") && s.First > 0 {
			firstEvent = append(firstEvent, time.Duration(s.First-s.Start))
		}
	}
	set("front.first_backend_event_ms", ms(quantile(firstEvent, 0.5)))
	set("front.backend_calls_per_campaign", float64(e.warm.calls)/float64(e.warm.campaigns))
	set("service.resolve_us", us(quantile(e.warm.resolve, 0.5)))
	set("service.cache_hit_rate", float64(e.warm.hits)/float64(e.warm.hits+e.warm.misses))
	set("campaign.engine_wall_ms", ms(quantile(e.warm.engineWall, 0.5)))
	set("campaign.launch_ms", ms(quantile(e.warm.launch, 0.5)))
	attempts := e.cold.submitted + e.warm.submitted + e.monitor.runs + e.monitor.rejected
	set("service.rejected_share", float64(e.cold.rejected+e.warm.rejected+e.monitor.rejected)/float64(attempts))

	// Lab stages, from the replica over the traced cold requests...
	coldRep, err := replicateCold(e)
	if err != nil {
		return res, nil, err
	}
	set("winsim.clone_us", us(quantile(coldRep.tr.durations("winsim.clone"), 0.5)))
	set("analysis.judge_us", us(quantile(coldRep.tr.durations("analysis.judge"), 0.5)))
	set("analysis.marshal_us", us(quantile(coldRep.tr.durations("analysis.marshal"), 0.5)))
	set("store.put_p50_us", us(quantile(coldRep.tr.durations("store.put"), 0.5)))
	set("store.put_p99_us", us(quantile(coldRep.tr.durations("store.put"), 0.99)))
	set("analysis.verdict_kb", coldRep.docKB)
	set("replica.stage_coverage", coverage(coldRep.tr))

	// ...over a Figure 4 subset...
	figRep, err := replicateFigure4(e)
	if err != nil {
		return res, nil, err
	}
	set("winapi.raw_run_us", us(quantile(figRep.tr.durations("winapi.raw_run"), 0.5)))
	set("core.protected_run_us", us(quantile(figRep.tr.durations("core.protected_run"), 0.5)))
	set("trace.summary_us", us(quantile(figRep.tr.durations("trace.summary"), 0.5)))
	set("core.injections_per_verdict", float64(figRep.injections)/float64(figRep.verdicts))
	set("trace.events_per_verdict", float64(figRep.events)/float64(figRep.verdicts))

	// ...and over the traced monitors.
	monRep, err := replicateMonitors(e)
	if err != nil {
		return res, nil, err
	}
	set("deter.plant_us", us(quantile(monRep.tr.durations("deter.plant"), 0.5)))
	set("deter.observe_ns_per_event", float64(monRep.observeNS)/float64(monRep.observed))
	set("analysis.monitored_run_us", us(quantile(monRep.monitorRuns, 0.5)))

	lines = append(lines, fmt.Sprintf("replica: %d cold verdicts, %d Figure 4 verdicts, %d monitors re-enacted; bytes equal the lab's own runs",
		coldRep.verdicts, figRep.verdicts, monRep.verdicts))
	for _, rep := range []replicaRun{coldRep, figRep, monRep} {
		specs := make([]string, 0, len(rep.unreproducible))
		for spec := range rep.unreproducible {
			specs = append(specs, spec)
		}
		sort.Strings(specs)
		for _, spec := range specs {
			lines = append(lines, fmt.Sprintf("program defect: %d replicated %s requests are not reproducible in-process (repeated identical runs differ); not counted against the replica",
				rep.unreproducible[spec], spec))
		}
	}
	for _, m := range perLayer {
		lines = append(lines, fmt.Sprintf("%-34s %14.4f %s", m.name, res.Metrics[m.name].Value, m.unit))
	}
	for _, out := range []struct {
		name string
		tr   *tracer
	}{{"http", tr}, {"replica-cold", coldRep.tr}, {"replica-figure4", figRep.tr}, {"replica-monitor", monRep.tr}} {
		path := filepath.Join(e.work, fmt.Sprintf("spans-%s-%s-seed%d.jsonl", w.name, out.name, e.seed))
		if err := out.tr.write(path); err != nil {
			return res, nil, fmt.Errorf("writing spans: %w", err)
		}
		lines = append(lines, "spans written to "+path)
	}
	return res, lines, nil
}

// coverage is the share of the replica's per-verdict wall time that its
// stage spans cover (the rest is the replica's own glue).
func coverage(t *tracer) float64 {
	var root, stages time.Duration
	for _, s := range t.named("replica.verdict") {
		root += s.dur()
	}
	for _, name := range []string{"winsim.clone", "winapi.raw_run", "core.protected_run", "trace.summary", "analysis.judge", "analysis.marshal", "store.put"} {
		for _, d := range t.durations(name) {
			stages += d
		}
	}
	return float64(stages) / float64(root)
}

// replicaRun is a replica with the results of one replication.
type replicaRun struct {
	*replica
	docKB float64
}

// equivalent checks every candidate's bytes (the replica's, and the
// served ones where there are any) against the lab's own run of the same
// request; see matchesLab for requests the lab cannot reproduce.
func (r *replica) equivalent(specimen string, seed int64, lab func() ([]byte, error), candidates ...[]byte) error {
	for _, got := range candidates {
		nondet, err := matchesLab(got, lab)
		if err != nil {
			return fmt.Errorf("replica equivalence failed for %s seed %d: %w", specimen, seed, err)
		}
		if nondet {
			if r.unreproducible == nil {
				r.unreproducible = map[string]int{}
			}
			r.unreproducible[specimen]++
			return nil
		}
	}
	return nil
}

// replicateCold re-enacts every replicated traced cold request and checks
// that the served bytes, the replica's bytes and Lab.RunSampleSeeded's
// bytes are all equal.
func replicateCold(e *env) (replicaRun, error) {
	rep, err := newReplica(newTracer(), e.dir("replica"))
	if err != nil {
		return replicaRun{}, err
	}
	defer rep.close()
	rep.tr.active.Store(true)
	lab := serviceLab()
	var kb []float64
	for i := 0; i < len(e.cold.reqs); i += replicaStride {
		r := e.cold.reqs[i]
		served := e.cold.keep[i]
		spec, err := malware.Resolve(r.specimen)
		if err != nil {
			return replicaRun{}, err
		}
		got, err := rep.verdict(spec, r.seed, fmt.Sprintf("%s|%d", r.specimen, r.seed))
		if err != nil {
			return replicaRun{}, fmt.Errorf("replica of %s seed %d: %w", r.specimen, r.seed, err)
		}
		ref := func() ([]byte, error) { return inProcessVerdict(lab, r.specimen, r.seed) }
		if err := rep.equivalent(r.specimen, r.seed, ref, got, served); err != nil {
			return replicaRun{}, err
		}
		kb = append(kb, float64(len(got))/1024)
	}
	return replicaRun{replica: rep, docKB: median(kb)}, nil
}

// replicateFigure4 re-enacts every figure4WarmStride-th sample of the
// Figure 4 sweep with the machine seed the sweep gives it.
func replicateFigure4(e *env) (replicaRun, error) {
	rep, err := newReplica(newTracer(), e.dir("replica"))
	if err != nil {
		return replicaRun{}, err
	}
	defer rep.close()
	rep.tr.active.Store(true)
	lab := serviceLab()
	corpus := malware.MalGeneCorpus()
	for i := 0; i < len(corpus); i += figure4WarmStride {
		seed := e.seed ^ int64(i+1) // Lab.Sweep's machine seed for corpus index i
		s := corpus[i]
		got, err := rep.verdict(s, seed, fmt.Sprintf("mg:%s|%d", s.ID, seed))
		if err != nil {
			return replicaRun{}, fmt.Errorf("replica of %s: %w", s.ID, err)
		}
		ref := func() ([]byte, error) { return lab.RunSampleSeeded(s, seed).Doc().AppendJSON(nil) }
		if err := rep.equivalent("mg:"+s.ID, seed, ref, got); err != nil {
			return replicaRun{}, err
		}
	}
	return replicaRun{replica: rep}, nil
}

// replicateMonitors re-enacts every traced monitor and checks its
// document against Lab.RunMonitoredSeeded's.
func replicateMonitors(e *env) (replicaRun, error) {
	rep, err := newReplica(newTracer(), e.dir("replica"))
	if err != nil {
		return replicaRun{}, err
	}
	defer rep.close()
	rep.tr.active.Store(true)
	lab := serviceLab()
	for _, r := range e.monitor.reqs {
		spec, err := malware.Resolve(r.specimen)
		if err != nil {
			return replicaRun{}, err
		}
		got, err := rep.monitored(spec, r.seed, fmt.Sprintf("%s|%d", r.specimen, r.seed))
		if err != nil {
			return replicaRun{}, fmt.Errorf("monitor replica of %s seed %d: %w", r.specimen, r.seed, err)
		}
		ref := func() ([]byte, error) {
			spec, err := malware.Resolve(r.specimen)
			if err != nil {
				return nil, err
			}
			start := time.Now()
			res := lab.RunMonitoredSeeded(spec, r.seed, analysis.MonitorOptions{})
			rep.monitorRuns = append(rep.monitorRuns, time.Since(start))
			return res.Doc().Marshal()
		}
		if err := rep.equivalent("monitor "+r.specimen, r.seed, ref, got); err != nil {
			return replicaRun{}, err
		}
	}
	return replicaRun{replica: rep}, nil
}
