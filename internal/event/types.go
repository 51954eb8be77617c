package event

import (
	"fmt"
	"sync"
)

// The type registry maps Type values to human-readable names. Event types in
// CEP either carry a type attribute or must be inferable (§2); we make the
// type explicit, as the paper's POJO child classes do.
//
// The registry is global because event types name schema-level concepts
// shared by generators, patterns, and operators across a process. Access is
// synchronized so tests and concurrent pipelines may register types freely.
var registry = struct {
	sync.RWMutex
	names  map[Type]string
	byName map[string]Type
	next   Type
}{
	names:  make(map[Type]string),
	byName: make(map[string]Type),
	next:   1,
}

// RegisterType returns the Type for name, allocating a fresh one on first
// use. Registration is idempotent: the same name always yields the same
// Type within a process.
func RegisterType(name string) Type {
	registry.Lock()
	defer registry.Unlock()
	if t, ok := registry.byName[name]; ok {
		return t
	}
	t := registry.next
	registry.next++
	registry.names[t] = name
	registry.byName[name] = t
	return t
}

// LookupType resolves a registered type name. ok is false if the name was
// never registered.
func LookupType(name string) (Type, bool) {
	registry.RLock()
	defer registry.RUnlock()
	t, ok := registry.byName[name]
	return t, ok
}

// TypeName returns the registered name of t, or a placeholder for unknown
// types.
func TypeName(t Type) string {
	registry.RLock()
	defer registry.RUnlock()
	if n, ok := registry.names[t]; ok {
		return n
	}
	return fmt.Sprintf("type(%d)", t)
}
