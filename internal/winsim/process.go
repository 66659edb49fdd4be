package winsim

import (
	"sort"
	"strings"
	"time"
)

// ProcessState describes where a process is in its lifecycle at the end of
// an observation window.
type ProcessState int

// Process lifecycle states.
const (
	// ProcessPending has been created but not yet scheduled.
	ProcessPending ProcessState = iota + 1
	// ProcessRunning is executing (or was still executing when the
	// observation window closed).
	ProcessRunning
	// ProcessExited terminated voluntarily or was killed.
	ProcessExited
)

// PEB models the fields of the Process Environment Block that evasive
// malware reads directly from memory, bypassing any user-level API hooks.
// The paper's one deactivation failure (sample cbdda64...) read
// NumberOfProcessors out of the PEB instead of calling an API, which
// user-level hooking cannot intercept; the model preserves exactly that
// blind spot.
type PEB struct {
	// BeingDebugged is the byte IsDebuggerPresent reads. It reflects the
	// machine's real debugger state, never Scarecrow's deception.
	BeingDebugged bool
	// NumberOfProcessors mirrors the hardware core count.
	NumberOfProcessors int
	// ImageBaseAddress is the load address of the main module.
	ImageBaseAddress uint64
}

// Process is a kernel process object.
type Process struct {
	PID       int
	ParentPID int
	// Image is the full path of the executable.
	Image string
	// CommandLine is the command line the process was created with.
	CommandLine string
	// PEB is the process environment block, readable without any API call.
	PEB PEB
	// Modules is the list of loaded module (DLL) base names, in load order.
	Modules []string
	// State, ExitCode, StartTime, and ExitTime describe lifecycle.
	State     ProcessState
	ExitCode  int
	StartTime time.Duration
	ExitTime  time.Duration
	// Protected marks processes that may not be terminated by untrusted
	// software (the paper protects its 24 deceptive analysis-tool
	// processes from being killed).
	Protected bool
	// SpawnDepth counts CreateProcess generations from the root sample;
	// used by the harness to detect self-spawning loops.
	SpawnDepth int
}

// ImageBase returns the lowercased base name of the process image.
func (p *Process) ImageBase() string {
	img := p.Image
	if i := strings.LastIndexAny(img, `\/`); i >= 0 {
		img = img[i+1:]
	}
	return strings.ToLower(img)
}

// HasModule reports whether a module with the given base name is loaded
// (case-insensitive).
func (p *Process) HasModule(name string) bool {
	for _, m := range p.Modules {
		if strings.EqualFold(m, name) {
			return true
		}
	}
	return false
}

// LoadModule appends a module if not already present and reports whether it
// was newly loaded.
func (p *Process) LoadModule(name string) bool {
	if p.HasModule(name) {
		return false
	}
	p.Modules = append(p.Modules, name)
	return true
}

// ProcessTable is the machine's process list.
type ProcessTable struct {
	nextPID int
	procs   map[int]*Process
	order   []int          // creation order
	faults  *FaultInjector // nil unless the machine is armed (faults.go)
}

// NewProcessTable returns an empty table. PIDs start at 4 (the System
// process) and advance by 4, matching Windows allocation granularity.
func NewProcessTable() *ProcessTable {
	return &ProcessTable{nextPID: 4, procs: make(map[int]*Process)}
}

// newProcess co-allocates a process with room for its first three modules
// (the two every process starts with plus one injected DLL), so creating
// and hooking a process costs one allocation.
type newProcess struct {
	p       Process
	modules [3]string
}

// Create registers a new process and returns it.
func (t *ProcessTable) Create(image, cmdline string, parentPID int, start time.Duration) *Process {
	t.faults.procOp()
	np := &newProcess{modules: [3]string{"ntdll.dll", "kernel32.dll"}}
	np.p = Process{
		PID:         t.nextPID,
		ParentPID:   parentPID,
		Image:       image,
		CommandLine: cmdline,
		State:       ProcessPending,
		StartTime:   start,
		Modules:     np.modules[:2],
	}
	p := &np.p
	t.nextPID += 4
	t.procs[p.PID] = p
	t.order = append(t.order, p.PID)
	return p
}

// Get returns the process with the given PID.
func (t *ProcessTable) Get(pid int) (*Process, bool) {
	p, ok := t.procs[pid]
	return p, ok
}

// All returns all processes (including exited ones) in creation order.
func (t *ProcessTable) All() []*Process {
	out := make([]*Process, 0, len(t.order))
	for _, pid := range t.order {
		out = append(out, t.procs[pid])
	}
	return out
}

// Running returns the processes not yet exited, in creation order.
func (t *ProcessTable) Running() []*Process {
	var out []*Process
	for _, pid := range t.order {
		if p := t.procs[pid]; p.State != ProcessExited {
			out = append(out, p)
		}
	}
	return out
}

// FindByImage returns the running processes whose image base name matches
// (case-insensitive).
func (t *ProcessTable) FindByImage(base string) []*Process {
	want := strings.ToLower(base)
	var out []*Process
	for _, p := range t.Running() {
		if p.ImageBase() == want {
			out = append(out, p)
		}
	}
	return out
}

// ImageNames returns the sorted distinct image base names of running
// processes, which is what a Toolhelp process snapshot exposes to malware.
func (t *ProcessTable) ImageNames() []string {
	seen := make(map[string]struct{})
	var out []string
	for _, p := range t.Running() {
		name := p.ImageBase()
		if _, ok := seen[name]; ok {
			continue
		}
		seen[name] = struct{}{}
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
