package main

import (
	"fmt"
	"time"

	"scarecrow/internal/analysis"
	"scarecrow/internal/core"
	"scarecrow/internal/deter"
	"scarecrow/internal/malware"
	"scarecrow/internal/service"
	"scarecrow/internal/store"
	"scarecrow/internal/trace"
	"scarecrow/internal/winapi"
	"scarecrow/internal/winsim"
)

// replica re-enacts one scarecrowd worker's verdict from public calls
// only, with a span around each lab stage: Snapshot.Clone, the raw run
// (winapi.NewSystem + Launch + Run), the protected run (core.Deploy +
// LaunchTarget + Run), the subtree summary (Recorder.Filter +
// trace.Summarize), analysis.Judge, VerdictDoc.AppendJSON and
// Store.PutBatch. Its verdict bytes must equal Lab.RunSampleSeeded's; the
// traced run fails otherwise.
type replica struct {
	tr       *tracer
	template *winsim.Snapshot
	cfg      core.Config
	st       *store.Store

	verdicts   int
	events     int // trace events recorded across both runs
	injections int // processes carrying the hook DLL after protected runs

	observeNS   time.Duration // time inside deter.Monitor.Observe
	observed    int           // events the monitor observed
	monitorRuns []time.Duration

	// unreproducible counts, per specimen, requests whose lab run differs
	// between identical repetitions (a program defect the report names).
	unreproducible map[string]int
}

func newReplica(tr *tracer, dir string) (*replica, error) {
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		return nil, fmt.Errorf("opening replica store: %w", err)
	}
	return &replica{
		tr:       tr,
		template: winsim.NewProfileMachine(service.DefaultProfile, 0).Snapshot(),
		cfg:      core.RecommendedConfig(string(service.DefaultProfile)),
		st:       st,
	}, nil
}

func (r *replica) close() { _ = r.st.Close() } // scratch store, discarded with the run

// verdict runs the paired replica for (spec, seed) and returns its
// canonical verdict bytes.
func (r *replica) verdict(spec *malware.Specimen, seed int64, key string) ([]byte, error) {
	root := r.tr.begin("replica.verdict", key, -1)
	defer r.tr.end(root)
	raw, err := r.execute(spec, seed, false, key, root)
	if err != nil {
		return nil, err
	}
	prot, err := r.execute(spec, seed, true, key, root)
	if err != nil {
		return nil, err
	}
	if len(prot.Triggers) == 0 {
		prot.HookDetectionLikely = true
	}
	j := r.tr.begin("analysis.judge", key, root)
	res := analysis.SampleResult{Specimen: spec, Raw: raw, Protected: prot, Verdict: analysis.Judge(raw, prot), Attempts: 1}
	r.tr.end(j)
	m := r.tr.begin("analysis.marshal", key, root)
	doc, err := res.Doc().AppendJSON(nil)
	r.tr.end(m)
	if err != nil {
		return nil, err
	}
	p := r.tr.begin("store.put", key, root)
	err = r.st.PutBatch([]store.Record{{Key: key, Val: doc}})
	r.tr.end(p)
	if err != nil {
		return nil, fmt.Errorf("replica commit: %w", err)
	}
	r.verdicts++
	return doc, nil
}

// execute is one half of the paired run on a fresh clone.
func (r *replica) execute(spec *malware.Specimen, seed int64, protected bool, key string, parent int) (analysis.Execution, error) {
	c := r.tr.begin("winsim.clone", key, parent)
	m := r.template.Clone(seed)
	r.tr.end(c)

	name := "winapi.raw_run"
	if protected {
		name = "core.protected_run"
	}
	run := r.tr.begin(name, key, parent)
	sys := winapi.NewSystem(m)
	spec.Register(sys)
	m.FS.Touch(spec.Image, 180<<10)
	var (
		rootPID int
		ctrl    *core.Controller
	)
	if protected {
		var err error
		ctrl, err = core.Deploy(sys, core.NewEngine(core.NewDB(), r.cfg))
		if err != nil {
			return analysis.Execution{}, err
		}
		root, err := ctrl.LaunchTarget(spec.Image, spec.ID)
		if err != nil {
			return analysis.Execution{}, err
		}
		rootPID = root.PID
	} else {
		agent, err := agentProcess(m)
		if err != nil {
			return analysis.Execution{}, err
		}
		rootPID = sys.Launch(spec.Image, spec.ID, agent).PID
	}
	sys.Run(analysis.ObservationWindow)
	r.tr.end(run)

	r.events += m.Tracer.Len()
	if protected {
		for _, p := range m.Procs.All() {
			if ctrl.Injected(p.PID) {
				r.injections++
			}
		}
	}
	s := r.tr.begin("trace.summary", key, parent)
	desc := map[int]bool{rootPID: true}
	for _, p := range m.Procs.All() {
		if desc[p.ParentPID] {
			desc[p.PID] = true
		}
	}
	sum := trace.Summarize(m.Tracer.Filter(func(e trace.Event) bool { return desc[e.PID] }))
	r.tr.end(s)

	ex := analysis.Execution{Summary: sum, VirtualTime: m.Clock.Now()}
	if protected {
		ex.Triggers = ctrl.Session.Triggers()
		ex.Alerts = ctrl.Session.Alerts()
	}
	m.Tracer.Release()
	return ex, nil
}

// monitored re-enacts Lab.RunMonitoredSeeded with the default options,
// timing deter.Plant and every deter.Monitor.Observe call, and returns the
// monitor document's bytes.
func (r *replica) monitored(spec *malware.Specimen, seed int64, key string) ([]byte, error) {
	root := r.tr.begin("replica.monitor", key, -1)
	defer r.tr.end(root)
	c := r.tr.begin("winsim.clone", key, root)
	m := r.template.Clone(seed)
	r.tr.end(c)
	pl := r.tr.begin("deter.plant", key, root)
	plan, err := deter.Plant(m, deter.PlantConfig{})
	r.tr.end(pl)
	if err != nil {
		return nil, err
	}
	run := r.tr.begin("analysis.monitored_body", key, root)
	sys := winapi.NewSystem(m)
	spec.Register(sys)
	m.FS.Touch(spec.Image, 180<<10)
	agent, err := agentProcess(m)
	if err != nil {
		return nil, err
	}
	mon := deter.NewMonitor(m, plan, deter.MonitorConfig{})
	m.Tracer.Tap(func(e trace.Event) {
		start := time.Now()
		mon.Observe(e)
		r.observeNS += time.Since(start)
		r.observed++
	})
	sys.Enforcer = mon.Enforce
	sys.Launch(spec.Image, spec.ID, agent)
	sys.Run(analysis.ObservationWindow)
	res := analysis.MonitoredResult{Specimen: spec, Profile: service.DefaultProfile, Seed: seed,
		Outcome: mon.Outcome(), Category: analysis.VerdictSurvived, VirtualTime: m.Clock.Now()}
	if res.Outcome.Deterred {
		res.Category = analysis.VerdictDeterred
	}
	m.Tracer.Tap(nil)
	m.Tracer.Release()
	r.tr.end(run)
	r.verdicts++
	return res.Doc().Marshal()
}

// agentProcess mirrors the lab's choice of parent for a sample.
func agentProcess(m *winsim.Machine) (*winsim.Process, error) {
	for _, image := range []string{"python.exe", "pythonw.exe", "explorer.exe"} {
		if agents := m.Procs.FindByImage(image); len(agents) > 0 {
			return agents[0], nil
		}
	}
	return nil, fmt.Errorf("profile %q has no agent process", m.Profile)
}
