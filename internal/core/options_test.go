package core

import (
	"reflect"
	"testing"
)

// TestCacheTagCoversSolutionFields sets each Options field to a non-zero
// value in turn: CacheTag and the incremental options check must both see
// the change, unless the field is one documented on Options.solution as
// unable to change the solution. A solution-changing knob added later
// cannot be left out of either.
func TestCacheTagCoversSolutionFields(t *testing.T) {
	neutral := map[string]bool{"Provenance": true, "Incremental": true, "ReferenceSolver": true, "Trace": true}
	base := Options{}.CacheTag()
	typ := reflect.TypeOf(Options{})
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		var o Options
		switch f := reflect.ValueOf(&o).Elem().Field(i); f.Kind() {
		case reflect.Bool:
			f.SetBool(true)
		case reflect.Int:
			f.SetInt(1)
		case reflect.Pointer:
			f.Set(reflect.New(f.Type().Elem()))
		default:
			t.Fatalf("Options.%s: no non-zero test value for kind %s", name, f.Kind())
		}
		if tagged := o.CacheTag() != base; tagged == neutral[name] {
			t.Errorf("Options.%s: changes CacheTag = %t, want %t", name, tagged, !neutral[name])
		}
		if keyed := o.solution() != (Options{}).solution(); keyed == neutral[name] {
			t.Errorf("Options.%s: changes the incremental options key = %t, want %t", name, keyed, !neutral[name])
		}
	}
}
