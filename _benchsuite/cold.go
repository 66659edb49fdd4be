package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"scarecrow/internal/analysis"
	"scarecrow/internal/core"
	"scarecrow/internal/malware"
	"scarecrow/internal/service"
)

const (
	// coldPerRow is how many unique-seed requests each catalog row gets
	// per timed pass: 22 rows x 182 = 4,004 verdicts, enough that each
	// backend's WAL seals and compacts several 4 MiB segments.
	coldPerRow = 182
	// coldWarmPerRow sizes the untimed warm-up (220 verdicts).
	coldWarmPerRow = 10
	// coldChecked is how many responses per pass are compared byte for
	// byte with an in-process run.
	coldChecked = 16
	// heavyRowFactor splits the mix into cost classes; see costClasses.
	heavyRowFactor = 10
)

// catalogRows is the cold-verdict request mix: the catalog case studies
// plus the 13 Joe Security Table I samples (scarebench's sweep corpus).
func catalogRows() []string {
	names := malware.CatalogNames()
	for _, s := range malware.JoeSecuritySamples() {
		names = append(names, "joe:"+s.ID)
	}
	return names
}

var coldWorkload = workload{
	name:         "cold-verdict",
	why:          "unique (specimen, seed) POST /v1/verdict through front, queue, lab and WAL: serving and commit costs are a large share",
	freshPerPass: true,
	setup: func(e *env, tr *tracer) (instance, error) {
		if !e.mixDone {
			e.mixDone = true
			lines, err := costClasses(e)
			if err != nil {
				return nil, err
			}
			e.header = append(e.header, lines...)
		}
		f, err := startFleet(e.dir("cold"), tr)
		if err != nil {
			return nil, err
		}
		e.pass++
		in := &coldInst{f: f, passNo: e.pass}
		warm := verdictRequests(catalogRows(), coldWarmPerRow, e.requestSeedBase(e.pass)+900_000, e.rng(int64(e.pass)*7+1))
		if failed, err := closedLoop(len(warm), func(i int) error {
			_, err := in.verdict(warm[i], nil)
			return err
		}); failed > 0 {
			f.close()
			return nil, fmt.Errorf("warm-up: %d of %d verdicts failed: %v", failed, len(warm), err)
		}
		in.reqs = verdictRequests(catalogRows(), coldPerRow, e.requestSeedBase(e.pass), e.rng(int64(e.pass)*7+2))
		return in, nil
	},
}

// requestSeedBase gives every pass of every run its own machine-seed
// range, so every (specimen, seed) key of a run is unique.
func (e *env) requestSeedBase(pass int) int64 {
	return (e.seed%1_000_000)*100_000_000 + int64(pass)*1_000_000 + 1
}

// verdictReq is one generated /v1/verdict request.
type verdictReq struct {
	specimen string
	seed     int64
	body     []byte
}

// verdictRequests builds perRow unique-seed requests for every row, in a
// seeded shuffled order; each row keeps exactly its share of the mix.
func verdictRequests(rows []string, perRow int, seedBase int64, rng *rand.Rand) []verdictReq {
	var reqs []verdictReq
	for j := 0; j < perRow; j++ {
		for _, row := range rows {
			seed := seedBase + int64(j)
			body, _ := json.Marshal(service.SubmitRequest{Specimen: row, Seed: &seed}) // plain data, cannot fail
			reqs = append(reqs, verdictReq{specimen: row, seed: seed, body: body})
		}
	}
	out := make([]verdictReq, len(reqs))
	for i, p := range rng.Perm(len(reqs)) {
		out[i] = reqs[p]
	}
	return out
}

type coldInst struct {
	f      *fleet
	passNo int
	reqs   []verdictReq
}

func (c *coldInst) close() { c.f.close() }

// verdict posts one request and returns the canonical verdict bytes.
func (c *coldInst) verdict(r verdictReq, tr *tracer) ([]byte, error) {
	status, body, err := c.f.post("/v1/verdict", r.body, tr)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("%s seed %d: status %d: %s", r.specimen, r.seed, status, strings.TrimSpace(string(body)))
	}
	return bytes.TrimSuffix(body, []byte("\n")), nil
}

func (c *coldInst) pass(e *env, tr *tracer) (passResult, error) {
	n := len(c.reqs)
	lat := make([]time.Duration, n)
	check := map[int][]byte{}
	for _, i := range e.rng(int64(c.passNo)*7 + 3).Perm(n)[:coldChecked] {
		check[i] = nil
	}
	var keep map[int][]byte
	if tr != nil {
		keep = map[int][]byte{}
	}
	var sampler *queueSampler
	if tr != nil {
		sampler = startSampler(c.f)
	}
	before := c.f.stats()
	compBefore := c.f.compactions()
	var mu sync.Mutex
	start := time.Now()
	failed, firstErr := closedLoop(n, func(i int) error {
		t0 := time.Now()
		body, err := c.verdict(c.reqs[i], tr)
		lat[i] = time.Since(t0)
		if err != nil {
			return err
		}
		_, checked := check[i]
		if checked || (keep != nil && i%replicaStride == 0) {
			mu.Lock()
			if checked {
				check[i] = body
			}
			if keep != nil && i%replicaStride == 0 {
				keep[i] = body
			}
			mu.Unlock()
		}
		return nil
	})
	wall := time.Since(start)
	if sampler != nil {
		sampler.finish()
	}
	after := c.f.stats()
	compactions := c.f.compactions() - compBefore
	p := passResult{ops: n - failed, attempted: n, failed: failed, wall: wall, lat: lat}
	if failed > 0 {
		return p, fmt.Errorf("%d of %d verdicts failed: %v", failed, n, firstErr)
	}
	if got := after.LabRuns - before.LabRuns; got != uint64(n) {
		return p, fmt.Errorf("cold pass ran the lab %d times for %d unique requests", got, n)
	}
	unreproducible, err := checkVerdictBytes(c.reqs, check)
	if err != nil {
		return p, err
	}
	p.notes = append(p.notes, fmt.Sprintf("check cold-verdict: %d of %d sampled responses byte-identical to in-process runs; %d store compactions",
		len(check)-len(unreproducible), len(check), compactions))
	for _, r := range unreproducible {
		p.notes = append(p.notes, "program defect: verdict for "+r+" is not reproducible in-process (repeated identical runs differ); not counted against the serving path")
	}
	if tr != nil {
		layer := &coldLayer{
			submitted:   after.Submitted - before.Submitted,
			rejected:    after.Rejected - before.Rejected,
			wall:        wall,
			meanDepth:   sampler.meanDepth(),
			compactions: compactions,
			rewritten:   sampler.rewritten,
			keep:        keep,
			reqs:        c.reqs,
		}
		_, layer.perBackend = c.f.hop.counts()
		e.cold = layer
	}
	return p, nil
}

// checkVerdictBytes compares served verdicts with in-process
// Lab.RunSampleSeeded(...).Doc().AppendJSON for the same request. A
// mismatch fails the pass unless the in-process run itself is not
// reproducible; those requests are returned so the report names them.
func checkVerdictBytes(reqs []verdictReq, got map[int][]byte) ([]string, error) {
	lab := serviceLab()
	idx := make([]int, 0, len(got))
	for i := range got {
		idx = append(idx, i)
	}
	sort.Ints(idx)
	var unreproducible []string
	for _, i := range idx {
		r := reqs[i]
		nondet, err := matchesLab(got[i], func() ([]byte, error) { return inProcessVerdict(lab, r.specimen, r.seed) })
		if err != nil {
			return nil, fmt.Errorf("served verdict for %s seed %d: %w", r.specimen, r.seed, err)
		}
		if nondet {
			unreproducible = append(unreproducible, fmt.Sprintf("%s seed %d", r.specimen, r.seed))
		}
	}
	return unreproducible, nil
}

// labReruns is how many extra in-process runs decide whether a mismatch
// is the program's own nondeterminism. A nondeterministic verdict can
// favour one outcome heavily (toolkiller's does), so a handful of
// agreeing reruns proves nothing; thirty that agree with a 0.7-likely
// outcome happen once in 40,000 checks.
const labReruns = 30

// matchesLab compares got with the bytes of an in-process run. On a
// mismatch it repeats the in-process run: if those runs disagree among
// themselves, the request's verdict is not reproducible even in-process
// (a defect of the program, not of the path under test) and nondet is
// true; otherwise the mismatch is an error.
func matchesLab(got []byte, run func() ([]byte, error)) (nondet bool, err error) {
	want, err := run()
	if err != nil {
		return false, err
	}
	if bytes.Equal(got, want) {
		return false, nil
	}
	for i := 0; i < labReruns; i++ {
		again, err := run()
		if err != nil {
			return false, err
		}
		if !bytes.Equal(again, want) {
			return true, nil
		}
	}
	return false, fmt.Errorf("differs from the reproducible in-process run (%d vs %d bytes)", len(got), len(want))
}

// serviceLab is a lab configured the way scarecrowd's workers configure
// theirs for the default profile.
func serviceLab() *analysis.Lab {
	return &analysis.Lab{Profile: service.DefaultProfile, Config: core.RecommendedConfig(string(service.DefaultProfile))}
}

func inProcessVerdict(lab *analysis.Lab, specimen string, seed int64) ([]byte, error) {
	s, err := malware.Resolve(specimen)
	if err != nil {
		return nil, err
	}
	return lab.RunSampleSeeded(s, seed).Doc().AppendJSON(nil)
}

// costClasses times in-process paired runs of every catalog row, splits
// the mix into light and heavy rows, and places p50 and p99 against the
// class boundary so that neither percentile sits on it. A row is heavy
// when its best of three runs costs heavyRowFactor times the median row's:
// the self-spawn rows cost about 25 times the rest, so the split holds on
// a fast machine and on a slow one alike.
func costClasses(e *env) ([]string, error) {
	lab := serviceLab()
	rows := catalogRows()
	cost := make([]time.Duration, len(rows))
	rng := e.rng(99)
	for i, row := range rows {
		s, err := malware.Resolve(row)
		if err != nil {
			return nil, err
		}
		seed := rng.Int63n(1 << 30)
		lab.RunSampleSeeded(s, seed) // warm the template and pools
		for rep := int64(1); rep <= 3; rep++ {
			start := time.Now()
			lab.RunSampleSeeded(s, seed+rep)
			if d := time.Since(start); cost[i] == 0 || d < cost[i] {
				cost[i] = d
			}
		}
	}
	typical := quantile(cost, 0.5)
	var heavy []string
	for i, row := range rows {
		if cost[i] >= heavyRowFactor*typical {
			heavy = append(heavy, row)
		}
	}
	lightShare := 100 * float64(len(rows)-len(heavy)) / float64(len(rows))
	position := func(q float64) string {
		d := q - lightShare
		if math.Abs(d) < boundaryMargin {
			return fmt.Sprintf("p%.0f %+.1f points (AT the boundary)", q, d)
		}
		return fmt.Sprintf("p%.0f %+.1f points", q, d)
	}
	return []string{
		fmt.Sprintf("cold-verdict mix: %d rows, equal shares; cost classes light %.1f%%, heavy (>= %dx the median row's %v paired lab run) %.1f%% %v",
			len(rows), lightShare, heavyRowFactor, typical.Round(time.Microsecond), 100-lightShare, heavy),
		fmt.Sprintf("cold-verdict percentile positions vs the light|heavy boundary at %.1f%%: %s, %s (for reference %s)",
			lightShare, position(50), position(99), position(95)),
	}, nil
}

// boundaryMargin is how close, in percentile points, a percentile may sit
// to a cost-class boundary before the header flags it.
const boundaryMargin = 2.0
