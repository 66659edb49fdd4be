package evasion

import (
	"testing"
	"time"

	"scarecrow/internal/core"
	"scarecrow/internal/winapi"
	"scarecrow/internal/winsim"
)

func ctxOn(m *winsim.Machine) *winapi.Context {
	sys := winapi.NewSystem(m)
	p := sys.Launch(`C:\probe.exe`, "probe.exe", nil)
	return sys.Context(p)
}

func TestChecksOnStockCuckoo(t *testing.T) {
	ctx := ctxOn(winsim.NewCuckooSandbox(1, false))
	tests := []struct {
		check Check
		want  bool
	}{
		{RegistryKey("guestadd", `HKLM\SOFTWARE\Oracle\VirtualBox Guest Additions`), true},
		{NtRegistryKey("svc", `HKLM\SYSTEM\CurrentControlSet\Services\VBoxGuest`), true},
		{RegistryValueContains("bios", `HKLM\HARDWARE\Description\System`, "SystemBiosVersion", "VBOX"), true},
		{FileExists("vboxmouse", `C:\Windows\System32\drivers\VBoxMouse.sys`), true},
		{DeviceOpens("vboxguest", `\\.\VBoxGuest`), true},
		{ProcessRunning("tray", "vboxtray.exe"), true},
		{ProcessRunning("nothing", "idontexist.exe"), false},
		{ModuleLoaded("sbie", "SbieDll.dll"), false},
		{DebuggerAPI(), false},
		{RemoteDebugger(), false},
		{CPUIDHypervisorBit(), true},
		{CPUIDVendor("VBoxVBoxVBox"), true},
		{CPUIDVendor("VMwareVMware"), false},
		{RDTSCVMExit(1000), true},
		{VMMAC("08:00:27"), true},
		{VMMAC("00:50:56"), false},
		{DiskModelContains("model", "VBOX"), true},
		{SmallRAM(1 << 30), true},
		{SmallDisk(60 << 30), false},
		{FewCoresAPI(2), false},
		{LowUptime(12 * time.Minute), false},
		{WMIIdentity("wmi", "Win32_ComputerSystem", "Model", "VirtualBox"), true},
		{InlineHook("ShellExecuteExW"), true}, // Cuckoo monitor hook
		{InlineHook("DeleteFile"), false},
	}
	for _, tt := range tests {
		t.Run(tt.check.Name, func(t *testing.T) {
			if got := tt.check.Detect(ctx); got != tt.want {
				t.Errorf("detect = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestChecksOnEndUser(t *testing.T) {
	ctx := ctxOn(winsim.NewEndUserMachine(1))
	tests := []struct {
		check Check
		want  bool
	}{
		{RegistryKey("guestadd", `HKLM\SOFTWARE\Oracle\VirtualBox Guest Additions`), false},
		{FileExists("vboxmouse", `C:\Windows\System32\drivers\VBoxMouse.sys`), false},
		{CPUIDHypervisorBit(), false},
		{VMMAC("00:50:56"), true}, // VMware Workstation vmnet adapter
		{SmallRAM(1 << 30), false},
		{FewCoresPEB(2), false},
		{SuspiciousUserName("sandbox", "currentuser"), false},
		{SuspiciousComputerName("sandbox"), false},
		{NXDomainResolves("kjqwerhkjqwhe.invalid"), false},
		{MouseInactive(2 * time.Second), true}, // nobody at the mouse during the run
		{SleepPatch(500 * time.Millisecond), false},
	}
	for _, tt := range tests {
		t.Run(tt.check.Name, func(t *testing.T) {
			if got := tt.check.Detect(ctx); got != tt.want {
				t.Errorf("detect = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestSandboxParentCheck(t *testing.T) {
	m := winsim.NewCuckooSandbox(1, false)
	sys := winapi.NewSystem(m)
	agent := m.Procs.FindByImage("pythonw.exe")[0]
	p := sys.Launch(`C:\sample.exe`, "", agent)
	if !SandboxParent().Detect(sys.Context(p)) {
		t.Error("analysis-daemon parent not flagged")
	}
	explorer := m.Procs.FindByImage("explorer.exe")[0]
	p2 := sys.Launch(`C:\sample.exe`, "", explorer)
	if SandboxParent().Detect(sys.Context(p2)) {
		t.Error("explorer parent flagged")
	}
}

func TestNXDomainResolvesOnSinkholingSandbox(t *testing.T) {
	ctx := ctxOn(winsim.NewCuckooSandbox(1, false))
	if !NXDomainResolves("kjqwerhkjqwhe.invalid").Detect(ctx) {
		t.Error("sinkholing sandbox should answer NX domains")
	}
}

func TestPEBChecks(t *testing.T) {
	ctx := ctxOn(winsim.NewCuckooSandbox(1, false))
	if FewCoresPEB(2).Detect(ctx) {
		t.Error("2-core guest flagged by <2 check")
	}
	if !FewCoresPEB(4).Detect(ctx) {
		t.Error("2-core guest not flagged by <4 check")
	}
	if PEBBeingDebugged().Detect(ctx) {
		t.Error("PEB debugger flag set without debugger")
	}
}

func TestAnyDetectsShortCircuits(t *testing.T) {
	ctx := ctxOn(winsim.NewCuckooSandbox(1, false))
	calls := 0
	counting := Check{Name: "counting", Technique: TechFile, Probe: func(*winapi.Context) bool {
		calls++
		return false
	}}
	hit, ok := AnyDetects(ctx, []Check{
		counting,
		CPUIDHypervisorBit(), // fires
		counting,             // must not run
	})
	if !ok || hit.Name != "cpuid_hv_bit" {
		t.Fatalf("AnyDetects = %v, %v", hit.Name, ok)
	}
	if calls != 1 {
		t.Errorf("short-circuit broken: %d probe calls", calls)
	}
	if _, ok := AnyDetects(ctx, nil); ok {
		t.Error("empty disjunction detected something")
	}
}

func TestDirectSyscallRegistryKeyBypassesHooks(t *testing.T) {
	m := winsim.NewEndUserMachine(1)
	sys := winapi.NewSystem(m)
	p := sys.Launch(`C:\probe.exe`, "", nil)
	ctx := sys.Context(p)
	// Hook NtOpenKeyEx to lie; the direct-syscall check must see through.
	err := sys.InstallHook(p.PID, "NtOpenKeyEx", func(c *winapi.Context, call *winapi.Call) winapi.Result {
		return winapi.Result{Status: winapi.StatusSuccess}
	})
	if err != nil {
		t.Fatal(err)
	}
	hooked := NtRegistryKey("hooked", `HKLM\SOFTWARE\Oracle\VirtualBox Guest Additions`)
	direct := DirectSyscallRegistryKey("direct", `HKLM\SOFTWARE\Oracle\VirtualBox Guest Additions`)
	if !hooked.Detect(ctx) {
		t.Error("hooked probe should be deceived")
	}
	if direct.Detect(ctx) {
		t.Error("direct syscall probe must bypass the hook")
	}
}

func TestAdditionalChecksAgainstScarecrow(t *testing.T) {
	// Deploy a default-config Scarecrow and confirm the remaining check
	// constructors are deceived (or correctly not).
	m := winsim.NewEndUserMachine(1)
	sys := winapi.NewSystem(m)
	sys.RegisterProgram(`C:\t.exe`, func(ctx *winapi.Context) int { return 0 })
	ctrl, err := core.Deploy(sys, core.NewEngine(core.NewDB(), core.RecommendedConfig(m.Profile)))
	if err != nil {
		t.Fatal(err)
	}
	target, err := ctrl.LaunchTarget(`C:\t.exe`, "")
	if err != nil {
		t.Fatal(err)
	}
	ctx := sys.Context(target)

	tests := []struct {
		check Check
		want  bool
	}{
		{ExportResolves("wine", "kernel32.dll", "wine_get_unix_file_name"), true},
		{WindowPresent("olly", "OLLYDBG"), true},
		{WindowPresent("nothing", "RealAppClass"), false},
		{SamplePath(), true},
		{NtRegistryValueContains("bios", `HKLM\HARDWARE\Description\System`, "SystemBiosVersion", "VBOX"), true},
		{NtRegistryValueContains("bios-neg", `HKLM\HARDWARE\Description\System`, "SystemBiosVersion", "PHOENIX"), false},
		{KernelDebugger(), true},
		{RemoteDebugger(), false}, // unhooked in the final 29: stays genuine
		{WMIIdentityEquals("serial", "Win32_BIOS", "SerialNumber", "0"), false}, // WMI unreachable by user hooks
	}
	for _, tt := range tests {
		t.Run(tt.check.Name, func(t *testing.T) {
			if got := tt.check.Detect(ctx); got != tt.want {
				t.Errorf("detect = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestWMIIdentityEqualsOnGuest(t *testing.T) {
	ctx := ctxOn(winsim.NewCuckooSandbox(1, false))
	if !WMIIdentityEquals("serial", "Win32_BIOS", "SerialNumber", "0").Detect(ctx) {
		t.Error("VBox default BIOS serial not flagged")
	}
	if WMIIdentityEquals("serial", "Win32_BIOS", "SerialNumber", "00").Detect(ctx) {
		t.Error("near-miss serial flagged")
	}
}

func TestSlowExceptionDispatch(t *testing.T) {
	ctx := ctxOn(winsim.NewEndUserMachine(1))
	if SlowExceptionDispatch(time.Millisecond).Detect(ctx) {
		t.Error("native dispatch flagged as slow")
	}
	if !SlowExceptionDispatch(time.Nanosecond).Detect(ctx) {
		t.Error("nanosecond threshold should always flag")
	}
}

func TestSamplePathVariants(t *testing.T) {
	m := winsim.NewBareMetalSandbox(1)
	sys := winapi.NewSystem(m)
	for _, tt := range []struct {
		image string
		want  bool
	}{
		{`C:\sample.exe`, true},
		{`C:\virus\a.exe`, true},
		{`C:\malware\b.exe`, true},
		{`C:\Users\john\report.exe`, false},
	} {
		p := sys.Launch(tt.image, "", nil)
		if got := SamplePath().Detect(sys.Context(p)); got != tt.want {
			t.Errorf("SamplePath(%q) = %v, want %v", tt.image, got, tt.want)
		}
	}
}
