package winapi

import "time"

// Real-time enforcement: the deterrence tier (internal/deter) watches the
// live trace through the recorder tap and decides, per process, whether a
// payload must be stopped. The decision cannot be applied at the moment of
// detection — the tap fires deep inside the API call that tripped it, with
// no unwinding channel of its own — so it is applied here, at the next API
// boundary the offending process crosses. That is exactly how a real EDR
// sensor works: the kernel callback that saw the canary touch flags the
// process, and the user-mode hook kills it on its next system call.

// EnforcementAction classifies what the enforcer does to a flagged
// process at its next API call.
type EnforcementAction int

const (
	// EnforceNone lets the call proceed untouched.
	EnforceNone EnforcementAction = iota
	// EnforceKill terminates the calling process before the call runs.
	EnforceKill
	// EnforceThrottle injects virtual-clock delay ahead of every call, so
	// the observation window closes before the payload gets far.
	EnforceThrottle
	// EnforceIsolate denies network APIs (DNS, connect, HTTP) while
	// letting local calls proceed — the quarantine-VLAN move.
	EnforceIsolate
)

func (a EnforcementAction) String() string {
	switch a {
	case EnforceNone:
		return "none"
	case EnforceKill:
		return "kill"
	case EnforceThrottle:
		return "throttle"
	case EnforceIsolate:
		return "isolate"
	default:
		return "none"
	}
}

// Enforcement is the decision an Enforcer returns for one API call.
type Enforcement struct {
	Action EnforcementAction
	// ExitCode is the exit status a kill imposes (0 defaults to 137, the
	// conventional SIGKILL status).
	ExitCode int
	// Delay is the virtual time a throttle injects ahead of the call.
	Delay time.Duration
}

// killExitCode is the default exit status an enforcement kill imposes.
const killExitCode = 137

// networkAPIs lists the API names an isolated process is denied. The set
// mirrors internal/winapi/network.go's entry points.
var networkAPIs = map[string]bool{
	"DnsQuery":        true,
	"getaddrinfo":     true,
	"InternetOpenUrl": true,
	"connect":         true,
}

// applyEnforcement consults the system's enforcer before an API call
// executes. It reports true when the call must not run — an isolated
// process's network call, which the caller denies with access denied —
// and unwinds the program body entirely for a kill (the scheduler's
// exitPanic channel, the same one ExitProcess uses). Throttles charge
// their delay and let the call proceed; the charge may itself raise
// winsim.BudgetExceeded, which the scheduler recovers as the window
// closing on the throttled payload. The caller checks for a nil Enforcer
// first, so unmonitored runs pay nothing here.
func (c *Context) applyEnforcement(name string) bool {
	enf := c.sys.Enforcer(c.P.PID, name)
	switch enf.Action {
	case EnforceKill:
		code := enf.ExitCode
		if code == 0 {
			code = killExitCode
		}
		panic(exitPanic{code: code})
	case EnforceThrottle:
		if enf.Delay > 0 {
			c.M.Clock.Advance(enf.Delay)
		}
	case EnforceIsolate:
		return networkAPIs[name]
	}
	return false
}
