package main

import (
	"encoding/json"
	"fmt"
	"maps"
	"net/http"
	"strings"
	"time"

	"scarecrow/internal/campaign"
	"scarecrow/internal/malware"
)

// familyCampaign is one MalGene family as a campaign manifest.
type familyCampaign struct {
	family string
	body   []byte
	cells  []campaign.Cell
}

// familyCampaigns splits the MalGene corpus into one campaign per family
// (61), each cell with its own seed drawn from the workload seed.
func familyCampaigns(e *env) []familyCampaign {
	base := e.requestSeedBase(0)
	byFamily := map[string][]campaign.Cell{}
	for i, s := range malware.MalGeneCorpus() {
		byFamily[s.Family] = append(byFamily[s.Family], campaign.Cell{Specimen: "mg:" + s.ID, Seed: base + int64(i)})
	}
	var out []familyCampaign
	for _, fam := range malware.FamilyNames() {
		cells := byFamily[fam]
		if len(cells) == 0 {
			continue
		}
		body, _ := json.Marshal(campaign.Manifest{Cells: cells}) // plain data, cannot fail
		out = append(out, familyCampaign{family: fam, body: body, cells: cells})
	}
	return out
}

var warmWorkload = workload{
	name: "warm-campaign",
	why:  "MalGene replayed warm as 61 family campaigns, 2 in flight: front fan-out and SSE merge, campaign engine, cache and resolve do all the work",
	setup: func(e *env, tr *tracer) (instance, error) {
		f, err := startFleet(e.dir("warm"), tr)
		if err != nil {
			return nil, err
		}
		w := &warmInst{f: f, camps: familyCampaigns(e), cold: map[string]map[string]int{}}
		runs, failed, err := w.sweep(nil)
		if failed > 0 {
			f.close()
			return nil, fmt.Errorf("cold corpus pass: %d of %d campaigns failed: %v", failed, len(w.camps), err)
		}
		for i, r := range runs {
			s := r.sum
			if s.Errors != 0 || s.Completed != s.Total || s.Total != len(w.camps[i].cells) {
				f.close()
				return nil, fmt.Errorf("cold campaign %s: %d/%d completed, %d errors", w.camps[i].family, s.Completed, s.Total, s.Errors)
			}
			w.cold[w.camps[i].family] = s.Categories
		}
		return w, nil
	},
}

type warmInst struct {
	f     *fleet
	camps []familyCampaign
	cold  map[string]map[string]int // family -> categories of the cold pass
}

func (w *warmInst) close() { w.f.close() }

// campaignRun is the client's view of one campaign.
type campaignRun struct {
	launch time.Duration // POST /v1/campaign round trip
	first  time.Duration // launch to the first verdict event
	total  time.Duration // launch to the summary event
	sum    campaign.Summary
}

// sweep runs every family campaign through the front, clientConns in
// flight, each client following its campaign's event stream to the end.
func (w *warmInst) sweep(tr *tracer) ([]campaignRun, int, error) {
	runs := make([]campaignRun, len(w.camps))
	failed, err := closedLoop(len(w.camps), func(i int) error {
		r, err := w.f.runCampaign(w.camps[i].body, tr)
		runs[i] = r
		return err
	})
	return runs, failed, err
}

func (f *fleet) runCampaign(body []byte, tr *tracer) (campaignRun, error) {
	var run campaignRun
	start := time.Now()
	status, resp, err := f.post("/v1/campaign", body, tr)
	run.launch = time.Since(start)
	if err != nil {
		return run, err
	}
	if status != http.StatusCreated {
		return run, fmt.Errorf("campaign launch: status %d: %s", status, strings.TrimSpace(string(resp)))
	}
	var launched struct {
		Events string `json:"events"`
	}
	if err := json.Unmarshal(resp, &launched); err != nil {
		return run, fmt.Errorf("decoding launch response: %w", err)
	}
	var decodeErr error
	status, err = f.stream(http.MethodGet, launched.Events, nil, func(fr sseFrame) bool {
		switch fr.event {
		case "verdict":
			if run.first == 0 {
				run.first = time.Since(start)
			}
		case "summary":
			var ev campaign.Event
			if decodeErr = json.Unmarshal(fr.data, &ev); decodeErr == nil && ev.Summary != nil {
				run.sum = *ev.Summary
				run.total = time.Since(start)
			}
			return false
		}
		return true
	})
	switch {
	case err != nil:
		return run, err
	case status != http.StatusOK:
		return run, fmt.Errorf("campaign events: status %d", status)
	case decodeErr != nil:
		return run, fmt.Errorf("decoding summary: %w", decodeErr)
	case run.total == 0:
		return run, fmt.Errorf("campaign stream ended without a summary")
	}
	return run, nil
}

func (w *warmInst) pass(e *env, tr *tracer) (passResult, error) {
	before := w.f.stats()
	seen := map[string]bool{}
	if tr != nil {
		for _, n := range w.f.nodes {
			for _, s := range n.eng.List() {
				seen[s.ID] = true
			}
		}
	}
	start := time.Now()
	runs, failed, err := w.sweep(tr)
	wall := time.Since(start)
	after := w.f.stats()
	cells := 0
	p := passResult{attempted: len(w.camps), failed: failed, wall: wall}
	if failed > 0 {
		return p, fmt.Errorf("%d of %d warm campaigns failed: %v", failed, len(w.camps), err)
	}
	for i, r := range runs {
		s := r.sum
		fam := w.camps[i].family
		if s.Errors != 0 || s.CacheHits != s.Total || s.Completed != s.Total || s.Total != len(w.camps[i].cells) {
			return p, fmt.Errorf("warm campaign %s: %d cells, %d completed, %d cache hits, %d errors (want all cells cache hits)",
				fam, s.Total, s.Completed, s.CacheHits, s.Errors)
		}
		if !maps.Equal(s.Categories, w.cold[fam]) {
			return p, fmt.Errorf("warm campaign %s categories %v differ from the cold pass %v", fam, s.Categories, w.cold[fam])
		}
		cells += s.Total
		p.lat = append(p.lat, r.total)
		p.first = append(p.first, r.first)
	}
	if labRuns := after.LabRuns - before.LabRuns; labRuns != 0 {
		return p, fmt.Errorf("warm pass ran the lab %d times", labRuns)
	}
	p.ops = cells
	p.notes = append(p.notes, fmt.Sprintf("check warm-campaign: %d campaigns, %d cells, all cache hits, categories equal the cold pass", len(runs), cells))
	if tr != nil {
		layer := &warmLayer{
			campaigns: len(runs),
			hits:      after.CacheHits - before.CacheHits,
			misses:    after.CacheMisses - before.CacheMisses,
			submitted: after.Submitted - before.Submitted,
			rejected:  after.Rejected - before.Rejected,
		}
		for _, r := range runs {
			layer.launch = append(layer.launch, r.launch)
		}
		for _, n := range w.f.nodes {
			for _, s := range n.eng.List() {
				if !seen[s.ID] {
					layer.engineWall = append(layer.engineWall, time.Duration(s.WallS*float64(time.Second)))
				}
			}
		}
		layer.calls, _ = w.f.hop.counts()
		layer.resolve = timeResolve(w.camps)
		e.warm = layer
	}
	return p, nil
}

// timeResolve times malware.Resolve, the lookup scarecrowd's Submit makes
// for every request before its cache lookup, over one cell per family.
func timeResolve(camps []familyCampaign) []time.Duration {
	var out []time.Duration
	for _, c := range camps {
		start := time.Now()
		if _, err := malware.Resolve(c.cells[0].Specimen); err == nil {
			out = append(out, time.Since(start))
		}
	}
	return out
}
