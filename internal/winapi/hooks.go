package winapi

import (
	"fmt"
	"sort"
	"time"
)

// HookHandler is customized code interposed on an API function. It receives
// the call description and must return the API's result bundle. Handlers
// may inspect and rewrite arguments, fabricate results, or call
// call.Original() to invoke the next handler in the chain (ultimately the
// real function) — the trampoline of classic inline hooking. Results travel
// by value: a hooked call boxes nothing. The Call is recycled once the
// outermost handler returns, so a handler must not retain it.
type HookHandler func(c *Context, call *Call) Result

// HookTable is a prebuilt, shareable set of hook chains: the in-memory
// image of an injected DLL's patch set. A deployment builds its table once
// and attaches it to every target process with InstallHookTable — O(1) per
// process instead of re-installing every hook chain per injection, which
// is exactly how a real DLL's hook body is mapped once and patched into
// each process. A table must not be mutated after its first install; the
// processes sharing it would observe the change retroactively.
type HookTable struct {
	handlers map[string][]HookHandler
}

// NewHookTable returns an empty hook table.
func NewHookTable() *HookTable {
	return &HookTable{handlers: make(map[string][]HookHandler)}
}

// Hook appends handler to the table's chain for the named API, validating
// the name against the catalog exactly like InstallHook. Later hooks wrap
// earlier ones once the table is installed.
func (t *HookTable) Hook(api string, handler HookHandler) error {
	meta, ok := apiCatalog[api]
	if !ok {
		return fmt.Errorf("winapi: unknown API %q", api)
	}
	if !meta.hookable {
		return fmt.Errorf("winapi: API %q is not hookable from user mode", api)
	}
	t.handlers[api] = append(t.handlers[api], handler)
	return nil
}

// hook appends without catalog validation — for the sandbox monitor table
// built from profile data in NewSystem, which must not fail construction.
func (t *HookTable) hook(api string, handler HookHandler) {
	t.handlers[api] = append(t.handlers[api], handler)
}

// Call describes one in-flight API invocation as seen by a hook handler.
// Dispatch is by index into the process's combined hook chain (kernel
// chain below, user chain above), so one Call value serves the whole
// chain with no per-handler trampoline closures. Calls come from the
// System's free list (see newCall).
type Call struct {
	// Name is the API name from the catalog.
	Name string
	// Args are the call arguments in declaration order.
	Args []any

	c       *Context
	st      *procState // user-mode chain source; nil for pure kernel dispatch
	kchain  []HookHandler
	genuine func(*Context) Result
	idx     int // combined-chain index of the running handler
}

// Original invokes the rest of the hook chain and finally the genuine API,
// returning its result bundle. Calling it more than once re-executes the
// remainder of the chain.
func (call *Call) Original() Result { return call.run(call.idx - 1) }

// run executes combined-chain position i: a handler for i >= 0, the
// genuine implementation below the chain for i < 0.
func (call *Call) run(i int) Result {
	if i < 0 {
		return call.genuine(call.c)
	}
	h := call.handler(i)
	saved := call.idx
	call.idx = i
	out := h(call.c, call)
	call.idx = saved
	return out
}

// handler resolves combined-chain position i: kernel hooks occupy the low
// indices (they sit at the syscall gate, beneath every user-mode hook),
// user-mode hooks the high ones. Higher index = installed later = runs
// earlier.
func (call *Call) handler(i int) HookHandler {
	if i < len(call.kchain) {
		return call.kchain[i]
	}
	h, _ := call.st.handlerAt(call.Name, i-len(call.kchain))
	return h
}

// AttachedAt returns the virtual time at which the hook table holding the
// running handler was attached to the calling process — the injection
// moment of the DLL the handler belongs to. It is zero for kernel hooks
// and per-process installs.
func (call *Call) AttachedAt() time.Duration {
	i := call.idx - len(call.kchain)
	if i < 0 {
		return 0
	}
	_, at := call.st.handlerAt(call.Name, i)
	return at
}

// newCall takes a Call from the system's free list. The scheduler runs one
// API call at a time per System, and nesting (a handler issuing another
// API) pops a distinct Call, so a list of a few entries serves a whole run.
// A Call lost to a panic unwinding its handler is simply left to the
// garbage collector.
func (s *System) newCall() *Call {
	if n := len(s.calls); n > 0 {
		call := s.calls[n-1]
		s.calls = s.calls[:n-1]
		return call
	}
	return new(Call)
}

// freeCall clears a finished Call (dropping its references) and returns it
// to the free list.
func (s *System) freeCall(call *Call) {
	*call = Call{}
	s.calls = append(s.calls, call)
}

// Arg returns argument i, or nil when absent.
func (call *Call) Arg(i int) any {
	if i < 0 || i >= len(call.Args) {
		return nil
	}
	return call.Args[i]
}

// StrArg returns argument i as a string ("" when absent or not a string).
func (call *Call) StrArg(i int) string {
	s, _ := call.Arg(i).(string)
	return s
}

// Classic hot-patch prologue of Win32 API functions: mov edi,edi; push
// ebp; mov ebp,esp. Anti-hooking code checks the first two bytes (Figure 1
// of the paper).
var cleanPrologue = []byte{0x8B, 0xFF, 0x55, 0x8B, 0xEC}

// hookedPrologue returns the prologue after an inline hook is written: a
// JMP rel32 to the hook body. The displacement bytes are synthesized from
// the API name so different hooks look different, as in reality.
func hookedPrologue(api string) []byte {
	var h uint32 = 2166136261
	for i := 0; i < len(api); i++ {
		h = (h ^ uint32(api[i])) * 16777619
	}
	return []byte{0xE9, byte(h), byte(h >> 8), byte(h >> 16), byte(h >> 24)}
}

// prologueCache precomputes the hooked prologue for every catalog entry:
// the bytes are a pure function of the API name, so every process hooking
// an API shows the same patch, and reads need no per-call synthesis.
// Read-only after init.
var prologueCache = func() map[string][]byte {
	m := make(map[string][]byte, len(apiCatalog))
	for name := range apiCatalog {
		m[name] = hookedPrologue(name)
	}
	return m
}()

// attachedTable is one hook table attached to a process, with the virtual
// time of the attach.
type attachedTable struct {
	t  *HookTable
	at time.Duration
}

// procState is the per-process user-mode state the System tracks: the
// process's API context, attached hook tables, per-process hook chains,
// and arbitrary per-process data hook packages stash (e.g. a deception
// session). Maps are allocated lazily, and the first two table attaches
// (the environment monitor and one injected DLL) fill an inline slot, so
// a followed child costs this one struct.
type procState struct {
	// ctx is the context the process's body runs with; runOne fills it.
	ctx Context
	// tables are shared hook tables in attach order; their chains sit
	// below (run after) any per-process installs.
	tables    []attachedTable
	tablesBuf [2]attachedTable
	// local holds per-process InstallHook chains.
	local map[string][]HookHandler
	// Data lets hook packages (Scarecrow) keep per-process state.
	Data map[string]any
}

// attach appends a hook table to the process's chain.
func (st *procState) attach(t *HookTable, at time.Duration) {
	if st.tables == nil {
		st.tables = st.tablesBuf[:0]
	}
	st.tables = append(st.tables, attachedTable{t: t, at: at})
}

// chainLen returns the combined user-mode chain length for the API.
func (st *procState) chainLen(api string) int {
	n := len(st.local[api])
	for _, a := range st.tables {
		n += len(a.t.handlers[api])
	}
	return n
}

// handlerAt resolves user-chain position i in install order: attached
// tables first (attach order, each in table order), then local installs.
// It also returns the attach time of the table holding the handler (zero
// for local installs).
func (st *procState) handlerAt(api string, i int) (HookHandler, time.Duration) {
	for _, a := range st.tables {
		chain := a.t.handlers[api]
		if i < len(chain) {
			return chain[i], a.at
		}
		i -= len(chain)
	}
	return st.local[api][i], 0
}

// hooked reports whether any user-mode hook covers the API.
func (st *procState) hooked(api string) bool {
	if len(st.local[api]) > 0 {
		return true
	}
	for _, a := range st.tables {
		if len(a.t.handlers[api]) > 0 {
			return true
		}
	}
	return false
}

// InstallHook interposes handler on the named API for the given process.
// The target function's prologue is rewritten to a JMP, making the hook
// itself observable to anti-hooking checks — which is a feature, not a bug,
// for Scarecrow. Later installs wrap earlier ones, and per-process installs
// wrap any attached hook table.
func (s *System) InstallHook(pid int, api string, handler HookHandler) error {
	if s.M.Faults.InjectionFault() {
		return fmt.Errorf("winapi: injected fault: hook installation for %q failed in PID %d", api, pid)
	}
	meta, ok := apiCatalog[api]
	if !ok {
		return fmt.Errorf("winapi: unknown API %q", api)
	}
	if !meta.hookable {
		return fmt.Errorf("winapi: API %q is not hookable from user mode", api)
	}
	st := s.stateFor(pid)
	if st.local == nil {
		st.local = make(map[string][]HookHandler)
	}
	st.local[api] = append(st.local[api], handler)
	return nil
}

// InstallHookTable attaches a prebuilt hook table to the process: one
// injection, one fault point, every chain in the table live at once. The
// same table may be attached to any number of processes; it must not be
// mutated afterwards.
func (s *System) InstallHookTable(pid int, t *HookTable) error {
	if s.M.Faults.InjectionFault() {
		return fmt.Errorf("winapi: injected fault: hook table installation failed in PID %d", pid)
	}
	s.stateFor(pid).attach(t, s.M.Clock.Now())
	return nil
}

// HookedAPIs returns the names of APIs currently hooked in the process,
// sorted so reports built from it replay deterministically.
func (s *System) HookedAPIs(pid int) []string {
	st := s.stateFor(pid)
	seen := make(map[string]bool)
	for name, chain := range st.local {
		if len(chain) > 0 {
			seen[name] = true
		}
	}
	for _, a := range st.tables {
		for name, chain := range a.t.handlers {
			if len(chain) > 0 {
				seen[name] = true
			}
		}
	}
	out := make([]string, 0, len(seen))
	for name := range seen {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// ReadFunctionPrologue models reading the first bytes of an API function's
// code directly from memory. It is not an API call: it cannot be hooked,
// consumes only a memory-read cost, and is exactly how anti-hooking malware
// detects inline hooks.
func (c *Context) ReadFunctionPrologue(api string) []byte {
	c.M.Clock.Advance(memoryReadCost)
	src := cleanPrologue
	if c.state().hooked(api) {
		if b, ok := prologueCache[api]; ok {
			src = b
		} else {
			src = hookedPrologue(api)
		}
	}
	out := make([]byte, len(src))
	copy(out, src)
	return out
}

// PrologueIntact reports whether the named API still begins with the
// hot-patch prologue (mov edi,edi) in this process — the check_hook test
// from Figure 1 of the paper.
func (c *Context) PrologueIntact(api string) bool {
	c.M.Clock.Advance(memoryReadCost)
	return !c.state().hooked(api)
}

// invoke runs one API call: it charges the call cost, records the APICall
// trace event, then dispatches through the process's hook chain (outermost
// handler first) down to the genuine implementation. Native entry points
// bottom out at the kernel syscall gate, where machine-wide kernel hooks
// (if any) interpose beneath the user-mode chain. genuine receives the
// calling context, so an implementation that reads nothing else captures
// nothing and its closure costs no allocation.
func (c *Context) invoke(name string, args []any, genuine func(*Context) Result) Result {
	meta, ok := apiCatalog[name]
	if !ok {
		panic(fmt.Sprintf("winapi: API %q missing from catalog", name))
	}
	// Real-time enforcement happens before the call executes: a killed
	// process never reaches its next API, an isolated one has network
	// calls denied here, a throttled one pays injected delay first.
	if c.sys.Enforcer != nil && c.applyEnforcement(name) {
		c.M.Clock.Advance(meta.cost)
		c.recordAPICall(name)
		return Result{Status: StatusAccessDenied}
	}
	c.M.Clock.Advance(meta.cost)
	c.recordAPICall(name)

	st := c.state()
	userLen := st.chainLen(name)
	var kchain []HookHandler
	if kernelHookable(name) {
		kchain = c.sys.kernelHooks[name]
	}
	total := len(kchain) + userLen
	if total == 0 {
		return genuine(c)
	}
	call := c.sys.newCall()
	*call = Call{Name: name, Args: args, c: c, st: st, kchain: kchain, genuine: genuine, idx: total}
	out := call.run(total - 1)
	c.sys.freeCall(call)
	return out
}
