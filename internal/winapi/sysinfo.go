package winapi

import (
	"strings"
)

// SystemInfo is the GetSystemInfo result bundle.
type SystemInfo struct {
	NumberOfProcessors int
	ProcessorBrand     string
}

// MemoryStatus is the GlobalMemoryStatusEx result bundle.
type MemoryStatus struct {
	TotalPhysBytes uint64
	AvailPhysBytes uint64
}

// OSVersionInfo is the GetVersionEx result bundle.
type OSVersionInfo struct {
	Major int
	Minor int
	Build int
}

// AdapterInfo is one GetAdaptersInfo row.
type AdapterInfo struct {
	MAC string
}

// GetSystemInfo reports processor topology.
func (c *Context) GetSystemInfo() SystemInfo {
	res := c.invoke("GetSystemInfo", nil, func(c *Context) Result {
		return Result{Status: StatusSuccess, SysInfo: SystemInfo{
			NumberOfProcessors: c.M.HW.NumCores,
			ProcessorBrand:     c.M.HW.CPUBrand,
		}}
	})
	return res.SysInfo
}

// GlobalMemoryStatusEx reports physical memory. Table I's sample 9fac72a
// was deactivated by Scarecrow's deceptive answer here.
func (c *Context) GlobalMemoryStatusEx() MemoryStatus {
	res := c.invoke("GlobalMemoryStatusEx", nil, func(c *Context) Result {
		total := c.M.HW.RAMBytes
		return Result{Status: StatusSuccess, Mem: MemoryStatus{
			TotalPhysBytes: total, AvailPhysBytes: total / 2,
		}}
	})
	return res.Mem
}

// GetComputerName returns the host name.
func (c *Context) GetComputerName() string {
	res := c.invoke("GetComputerName", nil, func(c *Context) Result {
		return Result{Status: StatusSuccess, Str: c.M.HW.ComputerName}
	})
	return res.Str
}

// GetUserName returns the logged-in user name.
func (c *Context) GetUserName() string {
	res := c.invoke("GetUserName", nil, func(c *Context) Result {
		return Result{Status: StatusSuccess, Str: c.M.HW.UserName}
	})
	return res.Str
}

// GetVersionEx returns the OS version.
func (c *Context) GetVersionEx() OSVersionInfo {
	res := c.invoke("GetVersionEx", nil, func(c *Context) Result {
		return Result{Status: StatusSuccess, Ver: OSVersionInfo{
			Major: c.M.OS.Major, Minor: c.M.OS.Minor, Build: c.M.OS.Build,
		}}
	})
	return res.Ver
}

// IsNativeVhdBoot reports whether the system booted from a VHD. The API
// only exists from Windows 8 (6.2); on the evaluation's Windows 7 machines
// it fails with ERROR_NOT_SUPPORTED — the paper's explanation for one
// missed Pafish feature.
func (c *Context) IsNativeVhdBoot() (bool, Status) {
	r := c.invoke("IsNativeVhdBoot", nil, func(c *Context) Result {
		if !c.M.OS.AtLeast(6, 2) {
			return Result{Status: StatusNotSupported}
		}
		return Result{Status: StatusSuccess, Bool: false}
	})
	return r.Bool, r.Status
}

// System information classes modeled by NtQuerySystemInformation.
const (
	SystemProcessInformation        = "SystemProcessInformation"
	SystemRegistryQuotaInformation  = "SystemRegistryQuotaInformation"
	SystemKernelDebuggerInformation = "SystemKernelDebuggerInformation"
)

// NtQuerySystemInformation answers the modeled information classes:
// process counts, registry quota usage (the regSize wear-and-tear
// artifact), and kernel debugger presence.
func (c *Context) NtQuerySystemInformation(class string) (uint64, Status) {
	r := c.invoke("NtQuerySystemInformation", []any{class}, func(c *Context) Result {
		return c.genuineSystemInformation(class)
	})
	return r.Num, r.Status
}

func (c *Context) genuineSystemInformation(class string) Result {
	switch class {
	case SystemProcessInformation:
		return Result{Status: StatusSuccess, Num: uint64(len(c.M.Procs.Running()))}
	case SystemRegistryQuotaInformation:
		return Result{Status: StatusSuccess, Num: c.M.RegistryQuotaUsed}
	case SystemKernelDebuggerInformation:
		var n uint64
		if c.M.KernelDebuggerPresent {
			n = 1
		}
		return Result{Status: StatusSuccess, Num: n}
	default:
		return Result{Status: StatusInvalidParam}
	}
}

// GetAdaptersInfo lists network adapters with their MAC addresses.
func (c *Context) GetAdaptersInfo() []AdapterInfo {
	res := c.invoke("GetAdaptersInfo", nil, func(c *Context) Result {
		adapters := make([]AdapterInfo, 0, len(c.M.HW.MACs))
		for _, mac := range c.M.HW.MACs {
			adapters = append(adapters, AdapterInfo{MAC: mac})
		}
		return Result{Status: StatusSuccess, Adapters: adapters}
	})
	return res.Adapters
}

// PackCursorPos packs a cursor position into the Num field of a Result,
// the transport GetCursorPos uses through hook chains.
func PackCursorPos(x, y int) uint64 {
	return uint64(uint32(x))<<32 | uint64(uint32(y))
}

// GetCursorPos samples the pointer position at the current virtual time.
func (c *Context) GetCursorPos() (x, y int) {
	res := c.invoke("GetCursorPos", nil, func(c *Context) Result {
		cx, cy := c.M.Mouse.CursorAt(c.M.Clock.TickCount())
		return Result{Status: StatusSuccess, Num: PackCursorPos(cx, cy)}
	})
	packed := res.Num
	return int(int32(uint32(packed >> 32))), int(int32(uint32(packed)))
}

// EvtNext pages through the system event log, returning up to max event
// source names starting at offset. Total event volume and source diversity
// are the sysevt/syssrc wear-and-tear artifacts.
func (c *Context) EvtNext(offset, max int) ([]string, int) {
	r := c.invoke("EvtNext", []any{offset, max}, func(c *Context) Result {
		return Result{
			Status: StatusSuccess,
			Strs:   c.M.EventLog.Sources(),
			Num:    uint64(c.M.EventLog.Count()),
		}
	})
	total := int(r.Num)
	if offset >= total {
		return nil, total
	}
	// The returned page carries source names cyclically; callers count
	// events and distinct sources from the pages.
	n := max
	if offset+n > total {
		n = total - offset
	}
	page := make([]string, 0, n)
	for i := 0; i < n; i++ {
		if len(r.Strs) == 0 {
			break
		}
		page = append(page, r.Strs[(offset+i)%len(r.Strs)])
	}
	return page, total
}

// DnsGetCacheDataTable returns the client DNS cache entries (the
// dnscacheEntries wear-and-tear artifact).
func (c *Context) DnsGetCacheDataTable() []string {
	res := c.invoke("DnsGetCacheDataTable", nil, func(c *Context) Result {
		return Result{Status: StatusSuccess, Strs: c.M.Net.Cache.Entries()}
	})
	return res.Strs
}

// WMIQuery answers a WMI identity query of the form class.property against
// the hardware profile. COM-based WMI is a separate transport from the
// Win32 APIs, which is why Scarecrow's user-level hooks do not cover it
// (the three WMI-based Pafish VirtualBox checks stay un-deceived).
func (c *Context) WMIQuery(class, property string) (string, Status) {
	r := c.invoke("WMIQuery", []any{class, property}, func(c *Context) Result {
		hw := c.M.HW
		switch strings.ToLower(class + "." + property) {
		case "win32_bios.serialnumber":
			return Result{Status: StatusSuccess, Str: hw.BIOSSerial}
		case "win32_computersystem.manufacturer":
			return Result{Status: StatusSuccess, Str: hw.SystemManufacturer}
		case "win32_computersystem.model":
			return Result{Status: StatusSuccess, Str: hw.SystemProductName}
		case "win32_diskdrive.model":
			return Result{Status: StatusSuccess, Str: hw.DiskModel}
		default:
			return Result{Status: StatusInvalidParam}
		}
	})
	return r.Str, r.Status
}
