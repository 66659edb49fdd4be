package winapi

import (
	"time"

	"scarecrow/internal/trace"
	"scarecrow/internal/winsim"
)

// ProcessEntry is one row of a Toolhelp process snapshot.
type ProcessEntry struct {
	PID       int
	ParentPID int
	Image     string // base name, lowercased
}

// CreateProcess launches a new process from the given image. The child is
// queued on the scheduler and runs after the current body yields. The
// returned process handle is the child's kernel object.
func (c *Context) CreateProcess(image, cmdline string) (*winsim.Process, Status) {
	r := c.invoke("CreateProcess", []any{image, cmdline}, func(c *Context) Result {
		child := c.sys.Launch(image, cmdline, c.P)
		return Result{Status: StatusSuccess, Proc: child}
	})
	return r.Proc, r.Status
}

// ShellExecuteExW launches a process through the shell; behaviourally
// identical to CreateProcess here, but a separate hookable entry point
// (stock Cuckoo hooks it — Table II's lone Hook trigger without Scarecrow).
func (c *Context) ShellExecuteExW(image, cmdline string) (*winsim.Process, Status) {
	r := c.invoke("ShellExecuteExW", []any{image, cmdline}, func(c *Context) Result {
		child := c.sys.Launch(image, cmdline, c.P)
		return Result{Status: StatusSuccess, Proc: child}
	})
	return r.Proc, r.Status
}

// ExitProcess terminates the calling process; it does not return.
func (c *Context) ExitProcess(code int) {
	c.invoke("ExitProcess", []any{code}, func(c *Context) Result {
		panic(exitPanic{code: code})
	})
	panic(exitPanic{code: code}) // a hook swallowed the exit; force it anyway
}

// TerminateProcess kills another process by PID. Protected processes (the
// deceptive analysis-tool processes Scarecrow plants) refuse termination
// with access denied, as §II-B(b) of the paper requires.
func (c *Context) TerminateProcess(pid int) Status {
	res := c.invoke("TerminateProcess", []any{pid}, func(c *Context) Result {
		p, ok := c.M.Procs.Get(pid)
		if !ok || p.State == winsim.ProcessExited {
			return Result{Status: StatusInvalidParam}
		}
		if p.Protected {
			return Result{Status: StatusAccessDenied}
		}
		c.M.ExitProcess(p, 1)
		return Result{Status: StatusSuccess}
	})
	return res.Status
}

// OpenProcess opens a handle to a process, failing for protected targets.
func (c *Context) OpenProcess(pid int) Status {
	res := c.invoke("OpenProcess", []any{pid}, func(c *Context) Result {
		p, ok := c.M.Procs.Get(pid)
		if !ok {
			return Result{Status: StatusInvalidParam}
		}
		if p.Protected {
			return Result{Status: StatusAccessDenied}
		}
		return Result{Status: StatusSuccess}
	})
	return res.Status
}

// CreateToolhelp32Snapshot returns the process list (the
// Process32First/Next sweep collapsed into one call).
func (c *Context) CreateToolhelp32Snapshot() []ProcessEntry {
	res := c.invoke("CreateToolhelp32Snapshot", nil, func(c *Context) Result {
		running := c.M.Procs.Running()
		entries := make([]ProcessEntry, 0, len(running))
		for _, p := range running {
			entries = append(entries, ProcessEntry{
				PID: p.PID, ParentPID: p.ParentPID, Image: p.ImageBase(),
			})
		}
		return Result{Status: StatusSuccess, Entries: entries}
	})
	return res.Entries
}

// GetCurrentProcessId returns the caller's PID.
func (c *Context) GetCurrentProcessId() int {
	c.invoke("GetCurrentProcessId", nil, func(c *Context) Result { return Result{Status: StatusSuccess} })
	return c.P.PID
}

// GetModuleFileName returns the full path of the process image.
func (c *Context) GetModuleFileName() string {
	res := c.invoke("GetModuleFileName", nil, func(c *Context) Result {
		return Result{Status: StatusSuccess, Str: c.P.Image}
	})
	return res.Str
}

// GetCommandLine returns the command line of the process.
func (c *Context) GetCommandLine() string {
	res := c.invoke("GetCommandLine", nil, func(c *Context) Result {
		return Result{Status: StatusSuccess, Str: c.P.CommandLine}
	})
	return res.Str
}

// ParentProcessImage resolves the parent process's image base name via
// NtQueryInformationProcess, the check malware uses to spot analysis
// daemons as parents (the Scarecrow controller deliberately mimics this).
func (c *Context) ParentProcessImage() string {
	res := c.invoke("NtQueryInformationProcess", []any{"ParentProcess"}, func(c *Context) Result {
		parent, ok := c.M.Procs.Get(c.P.ParentPID)
		if !ok {
			return Result{Status: StatusNotFound}
		}
		return Result{Status: StatusSuccess, Str: parent.ImageBase()}
	})
	return res.Str
}

// Sleep suspends the caller for the given duration of virtual time (scaled
// by the machine's sleep factor).
func (c *Context) Sleep(d time.Duration) {
	c.invoke("Sleep", []any{d}, func(c *Context) Result {
		c.M.Sleep(d)
		return Result{Status: StatusSuccess}
	})
}

// WaitForSingleObject waits on a process handle. Because the scheduler is
// cooperative FIFO, a child cannot complete while its parent blocks; the
// call models the polling wait malware droppers use, advancing time and
// reporting whether the target has already exited.
func (c *Context) WaitForSingleObject(p *winsim.Process, timeout time.Duration) Status {
	res := c.invoke("WaitForSingleObject", []any{p, timeout}, func(c *Context) Result {
		if p != nil && p.State == winsim.ProcessExited {
			return Result{Status: StatusSuccess}
		}
		c.M.Sleep(timeout)
		return Result{Status: StatusTimeout}
	})
	return res.Status
}

// InjectIntoProcess models cross-process code injection (WriteProcessMemory
// + CreateRemoteThread collapsed into one observable operation). Injection
// into protected processes fails.
func (c *Context) InjectIntoProcess(pid int) Status {
	p, ok := c.M.Procs.Get(pid)
	success := ok && p.State != winsim.ProcessExited && !p.Protected
	target := ""
	if ok {
		target = p.Image
	}
	c.M.Record(trace.Event{
		Kind: trace.KindProcessInject, PID: c.P.PID, Image: c.P.Image,
		Target: target, Success: success,
	})
	c.M.Clock.Advance(2 * time.Millisecond)
	if !success {
		return StatusAccessDenied
	}
	return StatusSuccess
}
