package core

import (
	"fmt"
	"strings"

	"scarecrow/internal/winapi"
)

// WearTearFakes are the deceptive wear-and-tear answers of Table III,
// chosen from the sandbox-environment statistics of Miramirkhani et al.:
// a machine that has barely been used.
type WearTearFakes struct {
	DNSCacheEntries   int    // dnscacheEntries: "Recent 4 entries"
	EventTotal        int    // sysevt: "Recent 8K system events"
	EventSources      int    // syssrc: sources within those events
	DeviceClasses     int    // deviceClsCount: 29 subkeys
	AutoRunEntries    int    // autoRunCount: 3 value entries
	RegistryQuota     uint64 // regSize: 53M bytes
	UninstallEntries  int
	SharedDlls        int
	AppPaths          int
	ActiveSetup       int
	UserAssistEntries int
	ShimCacheEntries  int
	MUICacheEntries   int
	FirewallRules     int
	USBStorDevices    int
}

// DefaultWearTearFakes returns the Table III values.
func DefaultWearTearFakes() WearTearFakes {
	return WearTearFakes{
		DNSCacheEntries:   4,
		EventTotal:        8000,
		EventSources:      9,
		DeviceClasses:     29,
		AutoRunEntries:    3,
		RegistryQuota:     53 << 20,
		UninstallEntries:  6,
		SharedDlls:        115,
		AppPaths:          14,
		ActiveSetup:       12,
		UserAssistEntries: 7,
		ShimCacheEntries:  40,
		MUICacheEntries:   12,
		FirewallRules:     130,
		USBStorDevices:    1,
	}
}

// wtKeyFakes maps a lowercased registry-key suffix to the deceptive
// subkey/value counts NtQueryKey reports for it.
func (e *Engine) wtKeyFakes() map[string]winapi.KeyInfo {
	f := e.WearTear
	return map[string]winapi.KeyInfo{
		`control\deviceclasses`:             {SubkeyCount: f.DeviceClasses},
		`currentversion\run`:                {ValueCount: f.AutoRunEntries},
		`currentversion\uninstall`:          {SubkeyCount: f.UninstallEntries},
		`currentversion\shareddlls`:         {ValueCount: f.SharedDlls},
		`currentversion\app paths`:          {SubkeyCount: f.AppPaths},
		`active setup\installed components`: {SubkeyCount: f.ActiveSetup},
		`session manager\appcompatcache`:    {ValueCount: f.ShimCacheEntries},
		`windows\shell\muicache`:            {ValueCount: f.MUICacheEntries},
		`firewallpolicy\firewallrules`:      {ValueCount: f.FirewallRules},
		`services\usbstor`:                  {SubkeyCount: f.USBStorDevices},
	}
}

// hookWearAndTear adds the Table III hooks to the deployment table:
// EvtNext, DnsGetCacheDataTable, NtQuerySystemInformation, and
// count-steering NtQueryKey answers for the usage-related registry keys.
// The base NtOpenKey and NtQueryValueKey hooks from the 29 stay in place;
// these wrap them.
func (e *Engine) hookWearAndTear(t *winapi.HookTable, session *Session) error {
	report := func(c *winapi.Context, api, artifact string) {
		session.Report(TriggerReport{
			Time: c.M.Clock.Now(), PID: c.P.PID, API: api,
			Category: CategoryWearTear, Vendor: VendorGeneric, Resource: artifact,
		})
	}
	fakes := e.wtKeyFakes()

	hooks := map[string]winapi.HookHandler{
		"DnsGetCacheDataTable": func(c *winapi.Context, call *winapi.Call) winapi.Result {
			report(c, call.Name, "dnscacheEntries")
			genuine := call.Original()
			if len(genuine.Strs) > e.WearTear.DNSCacheEntries {
				genuine.Strs = genuine.Strs[len(genuine.Strs)-e.WearTear.DNSCacheEntries:]
			}
			return genuine
		},
		"EvtNext": func(c *winapi.Context, call *winapi.Call) winapi.Result {
			report(c, call.Name, "sysevt/syssrc")
			genuine := call.Original()
			genuine.Num = uint64(e.WearTear.EventTotal)
			if len(genuine.Strs) > e.WearTear.EventSources {
				genuine.Strs = genuine.Strs[:e.WearTear.EventSources]
			}
			return genuine
		},
		"NtQuerySystemInformation": func(c *winapi.Context, call *winapi.Call) winapi.Result {
			if call.StrArg(0) == winapi.SystemRegistryQuotaInformation {
				report(c, call.Name, "regSize")
				return winapi.Result{Status: winapi.StatusSuccess, Num: e.WearTear.RegistryQuota}
			}
			return call.Original()
		},
		"NtQueryKey": func(c *winapi.Context, call *winapi.Call) winapi.Result {
			path := strings.ToLower(call.StrArg(0))
			if strings.Contains(path, "userassist") && strings.HasSuffix(path, `\count`) {
				report(c, call.Name, "usrassistCount")
				return winapi.Result{Status: winapi.StatusSuccess,
					KeyInfo: winapi.KeyInfo{ValueCount: e.WearTear.UserAssistEntries}}
			}
			for suffix, info := range fakes {
				if strings.HasSuffix(path, suffix) {
					report(c, call.Name, suffix)
					return winapi.Result{Status: winapi.StatusSuccess, KeyInfo: info}
				}
			}
			return call.Original()
		},
	}
	for api, h := range hooks {
		if err := t.Hook(api, h); err != nil {
			return fmt.Errorf("hooking %s: %w", api, err)
		}
	}
	return nil
}
