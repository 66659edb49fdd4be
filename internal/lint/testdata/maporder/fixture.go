// Fixture: map iteration order flowing into ordered output. Loaded under
// a determinism-scoped import path; unsorted emission is a finding,
// commutative aggregation and the collect-then-sort idiom are clean.
package lintfixture

import (
	"fmt"
	"sort"
	"strings"
)

// Render streams map entries in iteration order: flagged.
func Render(counts map[string]int) string {
	var sb strings.Builder
	for k, v := range counts { // want `iteration order of counts flows into ordered output`
		fmt.Fprintf(&sb, "%s=%d\n", k, v)
	}
	return sb.String()
}

// Keys accumulates in iteration order and never sorts: flagged.
func Keys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m { // want `iteration order of m flows into ordered output`
		out = append(out, k)
	}
	return out
}

// bundle is a result with a slice field, like winapi.Result's Entries.
type bundle struct{ names []string }

// Fill appends to a field of a value declared outside the loop, in
// iteration order: flagged.
func Fill(m map[string]int) bundle {
	var b bundle
	for k := range m { // want `iteration order of m flows into ordered output`
		b.names = append(b.names, k)
	}
	return b
}

// CountLocal appends only to a field of a loop-local value, which never
// leaves the iteration: clean.
func CountLocal(m map[string]int) int {
	n := 0
	for k := range m {
		var b bundle
		b.names = append(b.names, k)
		n += len(b.names)
	}
	return n
}

// SortedKeys is the sanctioned collect-sort-iterate idiom: clean.
func SortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Sum folds commutatively; order cannot be observed: clean.
func Sum(m map[string]int) int {
	total := 0
	for _, v := range m {
		total += v
	}
	return total
}

// Invert writes into another map; order cannot be observed: clean.
func Invert(m map[string]string) map[string]string {
	out := make(map[string]string, len(m))
	for k, v := range m {
		out[v] = k
	}
	return out
}

// Broadcast pokes every subscriber; the annotation accepts the
// order-irrelevant send.
func Broadcast(subs map[chan struct{}]bool) {
	for ch := range subs { //maporder:ok — wakeup poke, order is moot
		select {
		case ch <- struct{}{}:
		default:
		}
	}
}
