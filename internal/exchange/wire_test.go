package exchange

import (
	"bytes"
	"encoding/gob"
	"reflect"
	"testing"

	"cep2asp/internal/asp"
	"cep2asp/internal/core"
)

// processLocal lists the asp.Config fields a worker supplies itself rather
// than receiving them from the coordinator: its own registry, injector,
// quarantine, distribution splice, tracer, logger, checkpoint wiring and
// teardown bound.
var processLocal = map[string]bool{
	"Metrics":         true,
	"Chaos":           true,
	"Quarantine":      true,
	"Dist":            true,
	"Trace":           true,
	"Log":             true,
	"Checkpoint":      true,
	"ShutdownTimeout": true,
}

// TestJobSpecCarriesEveryEngineSetting is the wire contract of asp.Config:
// every exported field either reaches a worker's engine unchanged — through
// newJobSpec, the gob-encoded Prepare envelope and the settings buildSlice
// builds its engine from — or is listed in processLocal. A field added to
// asp.Config without that decision fails here.
func TestJobSpecCarriesEveryEngineSetting(t *testing.T) {
	var sent asp.Config
	sv := reflect.ValueOf(&sent).Elem()
	typ := sv.Type()
	for name := range processLocal {
		if _, ok := typ.FieldByName(name); !ok {
			t.Errorf("processLocal names %s, which asp.Config no longer has", name)
		}
	}
	shipped := 0
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if f.IsExported() && !processLocal[f.Name] {
			fillDistinct(t, f.Name, sv.Field(i), int64(10*i+1))
			shipped++
		}
	}

	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&Envelope{Kind: MsgPrepare, Spec: newJobSpec(nil, core.BuildConfig{Engine: sent})}); err != nil {
		t.Fatalf("encoding the job spec: %v", err)
	}
	var env Envelope
	if err := gob.NewDecoder(&buf).Decode(&env); err != nil {
		t.Fatalf("decoding the job spec: %v", err)
	}
	built := reflect.ValueOf(env.Spec.Engine.config())
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if !f.IsExported() || processLocal[f.Name] {
			continue
		}
		if want, got := sv.Field(i).Interface(), built.Field(i).Interface(); !reflect.DeepEqual(want, got) {
			t.Errorf("asp.Config.%s does not reach the worker: sent %+v, worker builds %+v; ship it in engineSettings or list it in processLocal", f.Name, want, got)
		}
	}
	t.Logf("%d asp.Config fields shipped to workers, %d process-local", shipped, len(processLocal))
}

// fillDistinct sets every leaf of v to a non-zero value derived from seed,
// so a field dropped or swapped on the way shows as a difference.
func fillDistinct(t *testing.T, name string, v reflect.Value, seed int64) {
	t.Helper()
	switch v.Kind() {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(seed)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(uint64(seed))
	case reflect.Float32, reflect.Float64:
		v.SetFloat(float64(seed) / 1000)
	case reflect.Bool:
		v.SetBool(true)
	case reflect.String:
		v.SetString(name)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				fillDistinct(t, name+"."+v.Type().Field(i).Name, v.Field(i), seed+int64(i)+1)
			}
		}
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		fillDistinct(t, name, v.Elem(), seed)
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 1, 1))
		fillDistinct(t, name, v.Index(0), seed)
	default:
		t.Fatalf("asp.Config.%s has kind %s, which cannot cross the wire; list it in processLocal", name, v.Kind())
	}
}
