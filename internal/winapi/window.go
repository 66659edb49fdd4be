package winapi

import (
	"scarecrow/internal/trace"

	"scarecrow/internal/winsim"
)

// FindWindow looks for a top-level window by class and/or title —
// the debugger-window probe from §II-B(d) of the paper.
func (c *Context) FindWindow(class, title string) (winsim.Window, Status) {
	r := c.invoke("FindWindow", []any{class, title}, func(c *Context) Result {
		w, ok := c.M.Windows.Find(class, title)
		c.M.Record(trace.Event{
			Kind: trace.KindWindowQuery, PID: c.P.PID, Image: c.P.Image,
			Target: class + "|" + title, Success: ok,
		})
		if !ok {
			return Result{Status: StatusNotFound}
		}
		return Result{Status: StatusSuccess, Window: w}
	})
	return r.Window, r.Status
}

// EnumWindows returns the class names of all top-level windows.
func (c *Context) EnumWindows() []string {
	res := c.invoke("EnumWindows", nil, func(c *Context) Result {
		return Result{Status: StatusSuccess, Strs: c.M.Windows.Classes()}
	})
	return res.Strs
}
