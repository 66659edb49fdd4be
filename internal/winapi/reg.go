package winapi

import (
	"scarecrow/internal/trace"
	"scarecrow/internal/winsim"
)

// KeyInfo is the result bundle of NtQueryKey: the counts a caller needs to
// size enumeration buffers — and the counts wear-and-tear fingerprinting
// cares about.
type KeyInfo struct {
	SubkeyCount int
	ValueCount  int
}

// RegOpenKeyEx opens a registry key, returning StatusSuccess when it
// exists. This is the classic existence probe evasive malware uses against
// keys such as SOFTWARE\Oracle\VirtualBox Guest Additions.
func (c *Context) RegOpenKeyEx(path string) Status {
	res := c.invoke("RegOpenKeyEx", []any{path}, func(c *Context) Result {
		ok := c.M.Registry.KeyExists(path)
		c.M.Record(trace.Event{
			Kind: trace.KindRegOpenKey, PID: c.P.PID, Image: c.P.Image,
			Target: path, Success: ok,
		})
		if !ok {
			return Result{Status: StatusFileNotFound}
		}
		return Result{Status: StatusSuccess}
	})
	return res.Status
}

// NtOpenKeyEx is the native-layer variant of RegOpenKeyEx. Scarecrow hooks
// both layers (Table III lists NtOpenKeyEx among the wear-and-tear APIs).
func (c *Context) NtOpenKeyEx(path string) Status {
	res := c.invoke("NtOpenKeyEx", []any{path}, func(c *Context) Result {
		ok := c.M.Registry.KeyExists(path)
		c.M.Record(trace.Event{
			Kind: trace.KindRegOpenKey, PID: c.P.PID, Image: c.P.Image,
			Target: path, Success: ok,
		})
		if !ok {
			return Result{Status: StatusFileNotFound}
		}
		return Result{Status: StatusSuccess}
	})
	return res.Status
}

// RegQueryValueEx reads a value under a key.
func (c *Context) RegQueryValueEx(path, name string) (winsim.Value, Status) {
	r := c.invoke("RegQueryValueEx", []any{path, name}, func(c *Context) Result {
		return c.genuineQueryValue(path, name)
	})
	return r.Value, r.Status
}

// NtQueryValueKey is the native-layer value read.
func (c *Context) NtQueryValueKey(path, name string) (winsim.Value, Status) {
	r := c.invoke("NtQueryValueKey", []any{path, name}, func(c *Context) Result {
		return c.genuineQueryValue(path, name)
	})
	return r.Value, r.Status
}

func (c *Context) genuineQueryValue(path, name string) Result {
	v, ok := c.M.Registry.QueryValue(path, name)
	c.M.Record(trace.Event{
		Kind: trace.KindRegQueryValue, PID: c.P.PID, Image: c.P.Image,
		Target: path, Detail: "value=" + name, Success: ok,
	})
	if !ok {
		return Result{Status: StatusFileNotFound}
	}
	return Result{Status: StatusSuccess, Value: v}
}

// NtQueryKey returns subkey/value counts for a key.
func (c *Context) NtQueryKey(path string) (KeyInfo, Status) {
	r := c.invoke("NtQueryKey", []any{path}, func(c *Context) Result {
		k, ok := c.M.Registry.OpenKey(path)
		c.M.Record(trace.Event{
			Kind: trace.KindRegQueryValue, PID: c.P.PID, Image: c.P.Image,
			Target: path, Detail: "info", Success: ok,
		})
		if !ok {
			return Result{Status: StatusFileNotFound}
		}
		return Result{Status: StatusSuccess, KeyInfo: KeyInfo{
			SubkeyCount: k.SubkeyCount(), ValueCount: k.ValueCount(),
		}}
	})
	return r.KeyInfo, r.Status
}

// RegEnumKeyEx returns the name of the index-th subkey.
func (c *Context) RegEnumKeyEx(path string, index int) (string, Status) {
	r := c.invoke("RegEnumKeyEx", []any{path, index}, func(c *Context) Result {
		k, ok := c.M.Registry.OpenKey(path)
		if !ok {
			return Result{Status: StatusFileNotFound}
		}
		names := k.SubkeyNames()
		c.M.Record(trace.Event{
			Kind: trace.KindRegEnumKey, PID: c.P.PID, Image: c.P.Image,
			Target: path, Success: true,
		})
		if index < 0 || index >= len(names) {
			return Result{Status: StatusNoMoreItems}
		}
		return Result{Status: StatusSuccess, Str: names[index]}
	})
	return r.Str, r.Status
}

// NtEnumerateKey is the native-layer subkey enumeration.
func (c *Context) NtEnumerateKey(path string, index int) (string, Status) {
	r := c.invoke("NtEnumerateKey", []any{path, index}, func(c *Context) Result {
		k, ok := c.M.Registry.OpenKey(path)
		if !ok {
			return Result{Status: StatusFileNotFound}
		}
		names := k.SubkeyNames()
		if index < 0 || index >= len(names) {
			return Result{Status: StatusNoMoreItems}
		}
		return Result{Status: StatusSuccess, Str: names[index]}
	})
	return r.Str, r.Status
}

// RegCreateKeyEx creates a key (and ancestors).
func (c *Context) RegCreateKeyEx(path string) Status {
	res := c.invoke("RegCreateKeyEx", []any{path}, func(c *Context) Result {
		_, err := c.M.Registry.CreateKey(path)
		c.M.Record(trace.Event{
			Kind: trace.KindRegCreateKey, PID: c.P.PID, Image: c.P.Image,
			Target: path, Success: err == nil,
		})
		if err != nil {
			return Result{Status: StatusInvalidParam}
		}
		return Result{Status: StatusSuccess}
	})
	return res.Status
}

// RegSetValueEx writes a value, creating the key if needed.
func (c *Context) RegSetValueEx(path, name string, v winsim.Value) Status {
	res := c.invoke("RegSetValueEx", []any{path, name, v}, func(c *Context) Result {
		err := c.M.Registry.SetValue(path, name, v)
		c.M.Record(trace.Event{
			Kind: trace.KindRegSetValue, PID: c.P.PID, Image: c.P.Image,
			Target: path, Detail: "value=" + name, Success: err == nil,
		})
		if err != nil {
			return Result{Status: StatusInvalidParam}
		}
		return Result{Status: StatusSuccess}
	})
	return res.Status
}

// RegDeleteKey removes a key and its subtree.
func (c *Context) RegDeleteKey(path string) Status {
	res := c.invoke("RegDeleteKey", []any{path}, func(c *Context) Result {
		ok := c.M.Registry.DeleteKey(path)
		c.M.Record(trace.Event{
			Kind: trace.KindRegDeleteKey, PID: c.P.PID, Image: c.P.Image,
			Target: path, Success: ok,
		})
		if !ok {
			return Result{Status: StatusFileNotFound}
		}
		return Result{Status: StatusSuccess}
	})
	return res.Status
}
