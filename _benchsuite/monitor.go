package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"time"

	"scarecrow/internal/analysis"
	"scarecrow/internal/service"
)

const (
	// monitorPerRow is how many unique-seed monitors each ransomware row
	// gets per timed pass.
	monitorPerRow = 900
	// monitorWarmPerRow sizes the untimed warm-up.
	monitorWarmPerRow = 80
	// maxMedianFilesLost is the deterrence tier's headline gate.
	maxMedianFilesLost = 5
)

// ransomwareRows are the catalog's stock and evasive-gated ransomware.
var ransomwareRows = []string{"wannacry", "locky", "wannacry-gated", "locky-gated", "cryptowall"}

var monitorWorkload = workload{
	name:         "monitor-stream",
	why:          "streamed POST /v1/monitor for the 5 ransomware rows: the only path through deter and RunMonitoredSeeded; no cache",
	freshPerPass: true,
	setup: func(e *env, tr *tracer) (instance, error) {
		f, err := startFleet(e.dir("monitor"), tr)
		if err != nil {
			return nil, err
		}
		e.pass++
		m := &monitorInst{f: f}
		warm := monitorRequests(monitorWarmPerRow, e.requestSeedBase(e.pass)+900_000, e)
		if failed, err := closedLoop(len(warm), func(i int) error {
			_, err := m.monitor(warm[i], nil)
			return err
		}); failed > 0 {
			f.close()
			return nil, fmt.Errorf("warm-up: %d of %d monitors failed: %v", failed, len(warm), err)
		}
		m.reqs = monitorRequests(monitorPerRow, e.requestSeedBase(e.pass), e)
		return m, nil
	},
}

func monitorRequests(perRow int, seedBase int64, e *env) []verdictReq {
	reqs := verdictRequests(ransomwareRows, perRow, seedBase, e.rng(seedBase))
	for i := range reqs {
		seed := reqs[i].seed
		reqs[i].body, _ = json.Marshal(service.MonitorRequest{SubmitRequest: service.SubmitRequest{Specimen: reqs[i].specimen, Seed: &seed}})
	}
	return reqs
}

type monitorInst struct {
	f    *fleet
	reqs []verdictReq
}

func (m *monitorInst) close() { m.f.close() }

// monitorRun is the client's view of one streamed monitor.
type monitorRun struct {
	first time.Duration // to the first detection frame
	total time.Duration // to the verdict frame
	doc   analysis.MonitorDoc
}

// monitor streams one /v1/monitor request and checks its frame order: at
// least one detection frame, then exactly one verdict frame last.
func (m *monitorInst) monitor(r verdictReq, tr *tracer) (monitorRun, error) {
	var run monitorRun
	id := -1
	if tr != nil {
		id = tr.begin("client", string(r.body), -1)
	}
	var orderErr, decodeErr error
	gotVerdict := false
	status, err := m.f.stream(http.MethodPost, "/v1/monitor", r.body, func(fr sseFrame) bool {
		switch fr.event {
		case "detection":
			if run.first == 0 {
				run.first = fr.at
			}
		case "verdict":
			gotVerdict = true
			run.total = fr.at
			if run.first == 0 {
				orderErr = fmt.Errorf("%s seed %d: verdict frame before any detection frame", r.specimen, r.seed)
			}
			decodeErr = json.Unmarshal(fr.data, &run.doc)
			return false
		}
		return true
	})
	if id >= 0 {
		tr.end(id)
	}
	switch {
	case err != nil:
		return run, err
	case status != http.StatusOK:
		return run, fmt.Errorf("%s seed %d: status %d", r.specimen, r.seed, status)
	case !gotVerdict:
		return run, fmt.Errorf("%s seed %d: stream ended without a verdict frame", r.specimen, r.seed)
	case orderErr != nil:
		return run, orderErr
	case decodeErr != nil:
		return run, fmt.Errorf("%s seed %d: decoding verdict: %w", r.specimen, r.seed, decodeErr)
	case !run.doc.Deterred:
		return run, fmt.Errorf("%s seed %d: not deterred (category %s)", r.specimen, r.seed, run.doc.Category)
	}
	return run, nil
}

func (m *monitorInst) pass(e *env, tr *tracer) (passResult, error) {
	n := len(m.reqs)
	runs := make([]monitorRun, n)
	before := m.f.stats()
	start := time.Now()
	failed, firstErr := closedLoop(n, func(i int) error {
		r, err := m.monitor(m.reqs[i], tr)
		runs[i] = r
		return err
	})
	wall := time.Since(start)
	after := m.f.stats()
	p := passResult{ops: n - failed, attempted: n, failed: failed, wall: wall}
	if failed > 0 {
		return p, fmt.Errorf("%d of %d monitors failed: %v", failed, n, firstErr)
	}
	lost := make([]int, n)
	for i, r := range runs {
		p.lat = append(p.lat, r.total)
		p.first = append(p.first, r.first)
		lost[i] = r.doc.FilesLost
	}
	sort.Ints(lost)
	medianLost := lost[n/2]
	if medianLost > maxMedianFilesLost {
		return p, fmt.Errorf("median files lost %d exceeds %d", medianLost, maxMedianFilesLost)
	}
	p.notes = append(p.notes, fmt.Sprintf("check monitor-stream: %d/%d deterred, detection frame before every verdict frame, median files lost %d (<= %d)",
		n, n, medianLost, maxMedianFilesLost))
	if tr != nil {
		e.monitor = &monitorLayer{
			reqs:     m.reqs,
			runs:     after.MonitorRuns - before.MonitorRuns,
			rejected: after.MonitorRejected - before.MonitorRejected,
		}
	}
	return p, nil
}
