package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"scarecrow/internal/analysis"
	"scarecrow/internal/malware"
	"scarecrow/internal/winsim"
)

// The Figure 4 counts every sweep must reproduce (§IV-C: 89.56%
// deactivated, 78.08% self-spawn loops over 1,054 MalGene samples).
const (
	figure4Total       = 1054
	figure4Deactivated = 944
	figure4SpawnLoops  = 823
)

// figure4WarmStride picks the warm-up subset: every 8th corpus sample.
const figure4WarmStride = 8

var figure4Workload = workload{
	name:         "figure4-sweep",
	why:          "the paper's own 1,054-sample sweep in-process: lab layers only (spawn loop, injection, summary, GC), no serving tier",
	freshPerPass: true,
	setup: func(e *env, tr *tracer) (instance, error) {
		lab := analysis.NewLab(e.seed)
		corpus := malware.MalGeneCorpus()
		if len(corpus) != figure4Total {
			return nil, fmt.Errorf("MalGene corpus has %d samples, want %d", len(corpus), figure4Total)
		}
		var warm []*malware.Specimen
		for i := 0; i < len(corpus); i += figure4WarmStride {
			warm = append(warm, corpus[i])
		}
		if _, health := lab.Sweep(warm); health.VerdictErrors > 0 {
			return nil, fmt.Errorf("warm-up sweep: %d verdict errors", health.VerdictErrors)
		}
		return &figure4Inst{lab: lab, corpus: corpus}, nil
	},
}

type figure4Inst struct {
	lab    *analysis.Lab
	corpus []*malware.Specimen
}

func (f *figure4Inst) close() {}

// pass runs analysis.Figure4 over the whole corpus. Traced, it counts the
// samples the sweep starts through the lab's per-run hook (which returns
// no fault plan, so runs are unchanged) and records one span per sweep.
func (f *figure4Inst) pass(e *env, tr *tracer) (passResult, error) {
	var started atomic.Int64
	span := -1
	if tr != nil {
		f.lab.FaultPlanFor = func(index, attempt int) *winsim.FaultPlan {
			started.Add(1)
			return nil
		}
		defer func() { f.lab.FaultPlanFor = nil }()
		span = tr.begin("analysis.figure4", "figure4", -1)
	}
	start := time.Now()
	rep := analysis.Figure4(f.lab, f.corpus)
	wall := time.Since(start)
	if span >= 0 {
		tr.end(span)
	}
	p := passResult{ops: rep.Total, attempted: len(f.corpus), failed: rep.Health.VerdictErrors,
		wall: wall, lat: []time.Duration{wall}}
	if rep.Total != figure4Total || rep.Deactivated != figure4Deactivated || rep.SpawnLoopSamples != figure4SpawnLoops {
		return p, fmt.Errorf("figure 4 check failed: %d samples, %d deactivated, %d spawn loops (want %d, %d, %d)",
			rep.Total, rep.Deactivated, rep.SpawnLoopSamples, figure4Total, figure4Deactivated, figure4SpawnLoops)
	}
	if tr != nil && started.Load() != int64(len(f.corpus)) {
		return p, fmt.Errorf("traced sweep started %d samples, want %d", started.Load(), len(f.corpus))
	}
	p.notes = append(p.notes, fmt.Sprintf("check figure4: %d/%d deactivated, %d spawn loops (ok), sweep %.3fs",
		rep.Deactivated, rep.Total, rep.SpawnLoopSamples, wall.Seconds()))
	return p, nil
}
