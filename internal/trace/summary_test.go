package trace

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// Pools the random event streams draw from. Images and targets mix case,
// path separators and non-ASCII runes whose lowering changes byte length
// (Kelvin sign, dotted capital I), so self-spawn matching and key lowering
// see every shape.
var (
	summaryKinds = []Kind{
		KindProcessCreate, KindProcessExit, KindFileCreate, KindFileWrite,
		KindFileRead, KindFileDelete, KindRegCreateKey, KindRegSetValue,
		KindRegDeleteKey, KindRegDeleteValue, KindRegOpenKey, KindDNSQuery,
		KindAPICall, KindProcessInject, KindImageLoad,
	}
	summaryPaths = []string{
		`C:\Users\admin\sample.exe`, `c:\users\admin\SAMPLE.EXE`, `sample.exe`,
		`C:/Temp/Dropper.exe`, `C:\Temp\dropper.exe`, `C:\Windows\explorer.exe`,
		"C:\\Temp\\\u212Aey.exe", `C:\Temp\key.exe`, "C:\\Temp\\\u0130mage.exe",
		`C:\Temp\image.exe`, `HKLM\Software\Run`, `hklm\software\run`,
		`IsDebuggerPresent`, `GetTickCount`, `EVIL.example.com`, ``,
	}
)

// randomRecorder fills a recorder with n random events over the given PIDs.
func randomRecorder(rng *rand.Rand, n int, pids []int) *Recorder {
	r := NewRecorder()
	for i := 0; i < n; i++ {
		r.Record(Event{
			Kind:    summaryKinds[rng.Intn(len(summaryKinds))],
			PID:     pids[rng.Intn(len(pids))],
			Image:   summaryPaths[rng.Intn(len(summaryPaths))],
			Target:  summaryPaths[rng.Intn(len(summaryPaths))],
			Success: rng.Intn(4) != 0,
		})
	}
	return r
}

// The verdict path summarises in place (SummarizeWhere); the benchmark
// replica and MalGene alignment still copy through Filter and Summarize.
// Over random event streams and random PID predicates the two must agree
// exactly, or verdict bytes would depend on which path built them.
func TestSummarizeWhereMatchesFilterSummarize(t *testing.T) {
	pids := []int{4, 8, 12, 16, 20, 24}
	property := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := randomRecorder(rng, rng.Intn(400), pids)
		defer r.Release()
		keep := make(map[int]bool)
		for _, pid := range pids {
			keep[pid] = rng.Intn(2) == 0
		}
		pred := func(e Event) bool { return keep[e.PID] }
		got := r.SummarizeWhere(pred)
		want := Summarize(r.Filter(pred))
		if !reflect.DeepEqual(got, want) {
			t.Logf("seed %d: in-place %+v\ncopied %+v", seed, got, want)
			return false
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
