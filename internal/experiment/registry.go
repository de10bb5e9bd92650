package experiment

import (
	"fmt"
	"sync"
)

// The registry maps experiment names to implementations. Registration
// order is preserved so listings and the default `chipletqc run` follow
// the paper's figure order.
var (
	regMu    sync.RWMutex
	registry = map[string]Experiment{}
	order    []string
)

// Register adds an experiment to the registry. It panics on an empty or
// duplicate name — registration happens at init time, where a panic is
// the loudest available diagnostic.
func Register(e Experiment) {
	name := e.Name()
	if name == "" {
		panic("experiment: Register with empty name")
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("experiment: duplicate registration of %q", name))
	}
	registry[name] = e
	order = append(order, name)
}

// Lookup returns the experiment registered under name.
func Lookup(name string) (Experiment, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	e, ok := registry[name]
	return e, ok
}

// All returns every registered experiment in registration order (the
// catalog registers in paper order: fig1..fig10, table2, eq1, ...).
func All() []Experiment {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]Experiment, 0, len(order))
	for _, name := range order {
		out = append(out, registry[name])
	}
	return out
}

// Names returns the registered experiment names in registration order.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	return append([]string(nil), order...)
}
