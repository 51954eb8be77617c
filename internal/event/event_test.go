package event

import "testing"

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
		got, ok := e.Attr(tc.name)
		if !ok || got != tc.want {
			t.Errorf("Attr(%q) = %v,%v want %v,true", tc.name, got, ok, tc.want)
		}
	}
	if _, ok := e.Attr("nope"); ok {
		t.Error("Attr of unknown name returned ok")
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
