package winapi

import (
	"testing"
	"time"

	"scarecrow/internal/winsim"
)

func TestTimingAndDebugAuxiliaryAPIs(t *testing.T) {
	m := winsim.NewCuckooSandbox(1, false)
	sys := NewSystem(m)
	ctx := sys.Context(sys.Launch(`C:\a.exe`, "", nil))

	ctx.OutputDebugString("probe")
	ctx.SetUnhandledExceptionFilter()
	if d := ctx.RaiseException(); d <= 0 {
		t.Errorf("exception dispatch cost = %v", d)
	}
	q1 := ctx.QueryPerformanceCounter()
	ctx.Sleep(10 * time.Millisecond)
	q2 := ctx.QueryPerformanceCounter()
	if q2 <= q1 {
		t.Error("QPC not monotonic across sleep")
	}
	c1 := ctx.RDTSC()
	res := ctx.CPUID()
	c2 := ctx.RDTSC()
	if c2 <= c1 {
		t.Error("TSC not monotonic across CPUID")
	}
	if !res.HypervisorBit {
		t.Error("stock VM must expose the hypervisor bit")
	}
}

func TestProcessAuxiliaryAPIs(t *testing.T) {
	m := winsim.NewBareMetalSandbox(1)
	sys := NewSystem(m)
	p := sys.Launch(`C:\a.exe`, "a.exe --flag", nil)
	ctx := sys.Context(p)

	if got := ctx.GetCurrentProcessId(); got != p.PID {
		t.Errorf("PID = %d, want %d", got, p.PID)
	}
	if got := ctx.GetCommandLine(); got != "a.exe --flag" {
		t.Errorf("command line = %q", got)
	}
	entries := ctx.CreateToolhelp32Snapshot()
	if len(entries) < 8 {
		t.Errorf("snapshot = %d entries", len(entries))
	}
	seenSelf := false
	for _, e := range entries {
		if e.PID == p.PID && e.Image == "a.exe" {
			seenSelf = true
		}
	}
	if !seenSelf {
		t.Error("snapshot missing the calling process")
	}

	explorer := m.Procs.FindByImage("explorer.exe")[0]
	if st := ctx.OpenProcess(explorer.PID); !st.OK() {
		t.Errorf("OpenProcess(explorer) = %v", st)
	}
	if st := ctx.OpenProcess(999999); st.OK() {
		t.Error("OpenProcess on bogus PID succeeded")
	}
	if st := ctx.TerminateProcess(999999); st.OK() {
		t.Error("TerminateProcess on bogus PID succeeded")
	}

	// WaitForSingleObject: queued (not yet run) children time out; exited
	// children signal immediately.
	child, st := ctx.CreateProcess(`C:\child.exe`, "")
	if !st.OK() {
		t.Fatal(st)
	}
	if st := ctx.WaitForSingleObject(child, 100*time.Millisecond); st != StatusTimeout {
		t.Errorf("wait on pending child = %v, want TIMEOUT", st)
	}
	m.ExitProcess(child, 0)
	if st := ctx.WaitForSingleObject(child, time.Millisecond); !st.OK() {
		t.Errorf("wait on exited child = %v", st)
	}

	// ShellExecuteExW launches like CreateProcess.
	sh, st := ctx.ShellExecuteExW(`C:\shelled.exe`, "shelled")
	if !st.OK() || sh == nil {
		t.Errorf("ShellExecuteExW = %v", st)
	}
}

func TestNetworkAuxiliaryAPIs(t *testing.T) {
	m := winsim.NewEndUserMachine(1)
	sys := NewSystem(m)
	ctx := sys.Context(sys.Launch(`C:\a.exe`, "", nil))

	addr, st := ctx.Getaddrinfo("site001.example.com")
	if !st.OK() || addr == "" {
		t.Errorf("getaddrinfo = %q, %v", addr, st)
	}
	if st := ctx.Connect(addr); !st.OK() {
		t.Errorf("connect = %v", st)
	}
	if st := ctx.Connect("203.0.113.200"); st.OK() {
		t.Error("connect to dead address succeeded")
	}
	cache := ctx.DnsGetCacheDataTable()
	if len(cache) == 0 {
		t.Error("DNS cache empty on end-user machine")
	}
}

func TestRegistryAuxiliaryAPIs(t *testing.T) {
	_, ctx := newTestSystem(t)
	if st := ctx.RegCreateKeyEx(`HKLM\SOFTWARE\Aux\One`); !st.OK() {
		t.Fatal(st)
	}
	name, st := ctx.NtEnumerateKey(`HKLM\SOFTWARE\Aux`, 0)
	if !st.OK() || name != "One" {
		t.Errorf("NtEnumerateKey = %q, %v", name, st)
	}
	if _, st := ctx.NtEnumerateKey(`HKLM\SOFTWARE\Aux`, 5); st != StatusNoMoreItems {
		t.Errorf("past-end enum = %v", st)
	}
	if _, st := ctx.NtEnumerateKey(`HKLM\Missing`, 0); st.OK() {
		t.Error("enum on missing key succeeded")
	}
	if st := ctx.NtCreateFile(`C:\Windows\System32\kernel32.dll`); !st.OK() {
		t.Errorf("NtCreateFile = %v", st)
	}
	info, st := ctx.GetFileAttributes(`C:\Windows\explorer.exe`)
	if !st.OK() || info.Kind != winsim.FileRegular {
		t.Errorf("GetFileAttributes = %+v, %v", info, st)
	}
}

func TestSystemIntrospection(t *testing.T) {
	m := winsim.NewBareMetalSandbox(1)
	sys := NewSystem(m)
	p := sys.Launch(`C:\a.exe`, "", nil)
	ctx := sys.Context(p)

	if ctx.System() != sys {
		t.Error("Context.System mismatch")
	}
	if err := sys.InstallHook(p.PID, "GetTickCount", func(c *Context, call *Call) Result {
		return call.Original()
	}); err != nil {
		t.Fatal(err)
	}
	if got := sys.HookedAPIs(p.PID); len(got) != 1 || got[0] != "GetTickCount" {
		t.Errorf("HookedAPIs = %v", got)
	}
	data := sys.ProcData(p.PID)
	data["key"] = 7
	if sys.ProcData(p.PID)["key"] != 7 {
		t.Error("ProcData not persistent")
	}
	if s := sys.String(); s == "" {
		t.Error("System.String empty")
	}
	if names := APINames(); len(names) < 40 {
		t.Errorf("APINames = %d entries", len(names))
	}
	if sys.QueueLen() != 1 || sys.ExecutedCount() != 0 {
		t.Errorf("queue=%d executed=%d", sys.QueueLen(), sys.ExecutedCount())
	}
}

func TestKernelHookDispatchPaths(t *testing.T) {
	m := winsim.NewEndUserMachine(1)
	sys := NewSystem(m)
	p := sys.Launch(`C:\a.exe`, "", nil)
	ctx := sys.Context(p)

	calls := 0
	err := sys.InstallKernelHook("NtQueryAttributesFile", func(c *Context, call *Call) Result {
		calls++
		if call.StrArg(0) == `C:\fake.sys` {
			return Result{Status: StatusSuccess}
		}
		return call.Original()
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := sys.KernelHookedAPIs(); len(got) != 1 {
		t.Errorf("KernelHookedAPIs = %v", got)
	}
	// Route 1: the ntdll-routed API crosses the gate.
	if _, st := ctx.NtQueryAttributesFile(`C:\fake.sys`); !st.OK() {
		t.Error("API route not intercepted at the kernel gate")
	}
	// Route 2: the raw syscall stub crosses the gate too.
	if got := ctx.DirectSyscall("NtQueryAttributesFile", `C:\fake.sys`); got != StatusSuccess {
		t.Errorf("raw syscall route = %v", got)
	}
	// Pass-through stays genuine on both routes.
	if _, st := ctx.NtQueryAttributesFile(`C:\Windows\explorer.exe`); !st.OK() {
		t.Error("genuine pass-through broken")
	}
	if calls < 3 {
		t.Errorf("kernel handler saw %d calls", calls)
	}
	// Unknown raw syscalls report NOT_SUPPORTED.
	if got := ctx.DirectSyscall("NtBogus"); got != StatusNotSupported {
		t.Errorf("unknown syscall = %v", got)
	}
}

func TestCallArgAccessors(t *testing.T) {
	call := &Call{Name: "X", Args: []any{"s", 7}}
	if call.Arg(0) != "s" || call.Arg(1) != 7 {
		t.Error("Arg")
	}
	if call.Arg(-1) != nil || call.Arg(5) != nil {
		t.Error("out-of-range Arg should be nil")
	}
	if call.StrArg(0) != "s" || call.StrArg(1) != "" {
		t.Error("StrArg")
	}
}

func TestStatusStringAllCodes(t *testing.T) {
	codes := []Status{
		StatusSuccess, StatusFileNotFound, StatusAccessDenied,
		StatusInvalidParam, StatusNotSupported, StatusNoMoreItems,
		StatusNotFound, StatusHostNotFound, StatusTimeout,
		StatusInvalidHandle, StatusAlreadyExists, StatusWriteProtected,
	}
	seen := map[string]bool{}
	for _, c := range codes {
		s := c.String()
		if s == "" || seen[s] {
			t.Errorf("status %d renders %q", int(c), s)
		}
		seen[s] = true
	}
}
