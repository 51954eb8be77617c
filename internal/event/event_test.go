package event

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

func TestRegisterTypeIdempotent(t *testing.T) {
	a := RegisterType("TestQ")
	b := RegisterType("TestQ")
	if a != b {
		t.Fatalf("RegisterType not idempotent: %d vs %d", a, b)
	}
	if got := TypeName(a); got != "TestQ" {
		t.Fatalf("TypeName = %q, want TestQ", got)
	}
	if lt, ok := LookupType("TestQ"); !ok || lt != a {
		t.Fatalf("LookupType = %d,%v want %d,true", lt, ok, a)
	}
}

func TestLookupUnknown(t *testing.T) {
	if _, ok := LookupType("never-registered-type"); ok {
		t.Fatal("LookupType returned ok for unknown name")
	}
	if got := TypeName(Type(1 << 30)); got == "" {
		t.Fatal("TypeName for unknown type should be non-empty placeholder")
	}
}

func TestEventAttr(t *testing.T) {
	e := Event{Type: 1, ID: 7, Lat: 52.5, Lon: 13.4, TS: 42, Value: 99.5, AuxTS: 50}
	tests := []struct {
		name string
		want float64
	}{
		{AttrID, 7},
		{AttrLat, 52.5},
		{AttrLon, 13.4},
		{AttrTS, 42},
		{AttrValue, 99.5},
		{AttrAuxTS, 50},
	}
	for _, tc := range tests {
		f, ok := Accessor(tc.name)
		if got := f.Of(&e); !ok || got != tc.want {
			t.Errorf("Accessor(%q) reads %v,%v want %v,true", tc.name, got, ok, tc.want)
		}
	}
	if _, ok := Accessor("nope"); ok {
		t.Error("Accessor of unknown name returned ok")
	}
}

// One partition-key function serves every keyed operator: fractional values
// must not collapse onto their integer part, and the id keys by itself even
// where a float64 would round it.
func TestFieldKey(t *testing.T) {
	lat, _ := Accessor(AttrLat)
	keys := make(map[int64]float64)
	for _, v := range []float64{1, 1.2, 1.7, 2, -1.2, -1} {
		k := lat.Key(&Event{Lat: v})
		if prev, dup := keys[k]; dup {
			t.Fatalf("lat %g and %g share key %d", prev, v, k)
		}
		keys[k] = v
	}
	if k := lat.Key(&Event{Lat: 7}); k != 7 {
		t.Fatalf("integral lat 7 keys as %d, want 7", k)
	}
	id, _ := Accessor(AttrID)
	for _, v := range []int64{0, 7, -3, 1<<53 + 1, math.MaxInt64} {
		if k := id.Key(&Event{ID: v}); k != v {
			t.Fatalf("id %d keys as %d, want the id", v, k)
		}
	}
}

func TestNewMatchTimestamps(t *testing.T) {
	m := NewMatch(
		Event{Type: 1, TS: 30},
		Event{Type: 2, TS: 10},
		Event{Type: 3, TS: 20},
	)
	if m.TsB != 10 || m.TsE != 30 {
		t.Fatalf("TsB,TsE = %d,%d want 10,30", m.TsB, m.TsE)
	}
}

func TestNewMatchEmpty(t *testing.T) {
	m := NewMatch()
	if m.TsB != 0 || m.TsE != 0 {
		t.Fatalf("empty match TsB,TsE = %d,%d want 0,0", m.TsB, m.TsE)
	}
}

func TestMatchIngest(t *testing.T) {
	m := NewMatch(Event{Ingest: 5}, Event{Ingest: 42}, Event{Ingest: 17})
	if got := m.Ingest(); got != 42 {
		t.Fatalf("Ingest = %d, want 42", got)
	}
}

func TestMatchKeyDistinguishes(t *testing.T) {
	a := NewMatch(Event{Type: 1, ID: 1, TS: 10}, Event{Type: 2, ID: 1, TS: 20})
	b := NewMatch(Event{Type: 1, ID: 1, TS: 10}, Event{Type: 2, ID: 1, TS: 21})
	c := NewMatch(Event{Type: 1, ID: 1, TS: 10}, Event{Type: 2, ID: 1, TS: 20})
	if a.Key() == b.Key() {
		t.Fatal("different matches share a key")
	}
	if a.Key() != c.Key() {
		t.Fatal("identical matches have different keys")
	}
}

// sprintfKey is the formulation Match.Key replaced: the reference for its
// format, which sink and window-join checkpoints persist.
func sprintfKey(m *Match) string {
	parts := make([]string, len(m.Events))
	for i, e := range m.Events {
		parts[i] = fmt.Sprintf("%d:%d:%d", e.Type, e.ID, e.TS)
	}
	sort.Strings(parts)
	return strings.Join(parts, "|")
}

// keyTestValue draws from a few small values (so parts tie and share
// prefixes such as "1:" and "10:"), negative ones and the int64 extremes.
func keyTestValue(rng *rand.Rand) int64 {
	switch rng.Intn(6) {
	case 0:
		return math.MinInt64
	case 1:
		return math.MaxInt64
	case 2:
		return -rng.Int63n(1000)
	case 3:
		return rng.Int63()
	default:
		return rng.Int63n(12)
	}
}

func keyTestMatch(rng *rand.Rand, arity int) *Match {
	evs := make([]Event, arity)
	for i := range evs {
		if i > 0 && rng.Intn(4) == 0 {
			evs[i] = evs[rng.Intn(i)] // the same constituent twice
			continue
		}
		typ := Type(rng.Intn(12))
		switch rng.Intn(8) {
		case 0:
			typ = math.MinInt32
		case 1:
			typ = math.MaxInt32
		}
		evs[i] = Event{Type: typ, ID: keyTestValue(rng), TS: keyTestValue(rng), Value: rng.Float64()}
	}
	return NewMatch(evs...)
}

// TestMatchKeyFormatIsStable holds Match.Key byte-identical to the
// Sprintf/sort.Strings/Join formulation over randomized matches of arity
// 0-12 (past the stack buffers), so keys in old checkpoints still
// deduplicate after a restore.
func TestMatchKeyFormatIsStable(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20_000; i++ {
		m := keyTestMatch(rng, rng.Intn(13))
		if got, want := m.Key(), sprintfKey(m); got != want {
			t.Fatalf("case %d: Key() = %q, want %q", i, got, want)
		}
	}
	// String order, not numeric: "10:…" sorts before "9:…".
	m := NewMatch(Event{Type: 9, ID: 1, TS: 5}, Event{Type: 10, ID: -2, TS: -7})
	if got, want := m.Key(), "10:-2:-7|9:1:5"; got != want {
		t.Fatalf("Key() = %q, want %q", got, want)
	}
}

// TestMatchKeyAllocatesOnce holds Match.Key to one allocation, the
// returned string, up to the stack buffers' arity, at the widest parts.
func TestMatchKeyAllocatesOnce(t *testing.T) {
	for arity := 1; arity <= keyStackParts; arity++ {
		evs := make([]Event, arity)
		for i := range evs {
			evs[i] = Event{Type: math.MinInt32, ID: math.MinInt64 + int64(i), TS: math.MinInt64}
		}
		m := NewMatch(evs...)
		if n := testing.AllocsPerRun(100, func() { _ = m.Key() }); n != 1 {
			t.Fatalf("arity %d: Key() allocates %v times, want 1", arity, n)
		}
	}
}

func BenchmarkMatchKey(b *testing.B) {
	for _, arity := range []int{2, 4} {
		evs := make([]Event, arity)
		for i := range evs {
			evs[i] = Event{Type: 3, ID: int64(100 + i), TS: 1_700_000_000_000 + int64(60_000*(arity-i))}
		}
		m := NewMatch(evs...)
		b.Run(fmt.Sprintf("arity=%d", arity), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = m.Key()
			}
		})
	}
}
