package core

import "testing"

// Per-call allocation budgets of the hook dispatch path, mirrored by the
// scarebench -hotpath gates (which allow a sliver for the amortized growth
// of the trace and trigger slices; AllocsPerRun rounds that away). Results
// travel by value, Call values come from the System's free list, and an
// API without arguments has a capture-free genuine implementation, so
// neither call allocates.
const (
	budgetHookedCallAllocs   = 0
	budgetUnhookedCallAllocs = 0
)

func TestHookDispatchAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation makes allocation budgets unmeasurable")
	}
	_, ctx := deployOnEndUser(t, DefaultConfig())
	// One warm-up call of each sizes the free list and the trigger slice.
	ctx.IsDebuggerPresent()
	ctx.GetCommandLine()
	// IsDebuggerPresent runs scarecrow.dll's handler, which fabricates the
	// answer and reports a trigger; GetCommandLine is not hooked.
	hooked := testing.AllocsPerRun(1000, func() { ctx.IsDebuggerPresent() })
	if hooked > budgetHookedCallAllocs {
		t.Errorf("hooked IsDebuggerPresent allocates %.2f objects/call, budget is %d", hooked, budgetHookedCallAllocs)
	}
	unhooked := testing.AllocsPerRun(1000, func() { ctx.GetCommandLine() })
	if unhooked > budgetUnhookedCallAllocs {
		t.Errorf("unhooked GetCommandLine allocates %.2f objects/call, budget is %d", unhooked, budgetUnhookedCallAllocs)
	}
}
