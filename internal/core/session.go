package core

import (
	"fmt"
	"sync"
	"time"
)

// TriggerReport is one fingerprinting attempt a hook observed and deceived:
// the scarecrow.dll → scarecrow.exe IPC message of Figure 2. The JSON tags
// fix the wire shape scarecrowd's verdict documents embed (virtual time as
// integer nanoseconds, lower-snake names).
type TriggerReport struct {
	// Time is the virtual time of the call.
	Time time.Duration `json:"time_ns"`
	// PID is the probing process.
	PID int `json:"pid"`
	// API is the hooked entry point that fired.
	API string `json:"api"`
	// Category classifies the deceived resource.
	Category Category `json:"category"`
	// Vendor is the analysis-environment vendor profile the resource
	// imitates.
	Vendor VendorProfile `json:"vendor,omitempty"`
	// Resource names the specific probed resource.
	Resource string `json:"resource"`
}

// String renders the report like the paper's Table I trigger column.
func (r TriggerReport) String() string {
	return fmt.Sprintf("%s() [%s/%s] %s", r.API, r.Category, r.Vendor, r.Resource)
}

// Session is the per-deployment IPC endpoint: hook handlers running inside
// target processes report triggers here; the controller reads them out.
// A session also carries the spawn ledger the active-mitigation policy
// watches.
type Session struct {
	mu       sync.Mutex
	triggers []TriggerReport
	// spawnCounts tracks CreateProcess calls per image base name for
	// fork-bomb detection (§VI-C).
	spawnCounts map[string]int
	// disabledVendors is used by profile isolation (§VI-B): once one
	// vendor's artifact is probed, conflicting vendors go dark.
	activeVendor    VendorProfile
	disabledVendors map[VendorProfile]bool
	alerts          []string
}

// NewSession returns an empty IPC session.
func NewSession() *Session {
	return &Session{
		spawnCounts:     make(map[string]int),
		disabledVendors: make(map[VendorProfile]bool),
	}
}

// Report records one deceived fingerprinting attempt.
func (s *Session) Report(r TriggerReport) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.triggers = append(s.triggers, r)
}

// Triggers returns all reports in order.
func (s *Session) Triggers() []TriggerReport {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]TriggerReport, len(s.triggers))
	copy(out, s.triggers)
	return out
}

// TakeTriggers hands the report slice over to the caller without the
// defensive copy Triggers makes, and leaves the session with no reports.
// The lab takes a finished run's triggers this way: the session is
// discarded with the run, so nothing else can observe the slice.
func (s *Session) TakeTriggers() []TriggerReport {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := s.triggers
	s.triggers = nil
	return out
}

// FirstTrigger returns the earliest report, matching Table I's "first
// trigger" column.
func (s *Session) FirstTrigger() (TriggerReport, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.triggers) == 0 {
		return TriggerReport{}, false
	}
	return s.triggers[0], true
}

// TriggerCount returns the number of reports.
func (s *Session) TriggerCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.triggers)
}

// NoteSpawn records a CreateProcess of the given image and returns the new
// count for that image.
func (s *Session) NoteSpawn(image string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.spawnCounts[image]++
	return s.spawnCounts[image]
}

// SpawnCount returns the recorded spawn count for an image.
func (s *Session) SpawnCount(image string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.spawnCounts[image]
}

// Alert records a mitigation alarm message.
func (s *Session) Alert(msg string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.alerts = append(s.alerts, msg)
}

// Alerts returns all mitigation alarms raised so far.
func (s *Session) Alerts() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, len(s.alerts))
	copy(out, s.alerts)
	return out
}

// vendorAllowed implements profile isolation: the first probed vendor
// becomes active and every other VM vendor is disabled. Vendor-neutral
// profiles (generic, debugger, sandboxie, wine, cuckoo) are never disabled
// — only mutually exclusive VM identities conflict (§VI-B's example:
// a machine cannot be a VMware and a VirtualBox guest at once).
func (s *Session) vendorAllowed(v VendorProfile, isolation bool) bool {
	if !isolation {
		return true
	}
	switch v {
	case VendorVMware, VendorVBox, VendorQemu, VendorBochs:
	default:
		return true
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.disabledVendors[v] {
		return false
	}
	if s.activeVendor == "" {
		s.activeVendor = v
		for _, other := range []VendorProfile{VendorVMware, VendorVBox, VendorQemu, VendorBochs} {
			if other != v {
				s.disabledVendors[other] = true
			}
		}
	}
	return s.activeVendor == v
}

// ActiveVendor returns the VM vendor profile locked in by profile
// isolation (empty when none probed yet or isolation is off).
func (s *Session) ActiveVendor() VendorProfile {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.activeVendor
}

// TriggerHistogram aggregates the trigger stream by category — the
// at-a-glance view the controller UI shows an operator.
func (s *Session) TriggerHistogram() map[Category]int {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[Category]int)
	for _, tr := range s.triggers {
		out[tr.Category]++
	}
	return out
}
