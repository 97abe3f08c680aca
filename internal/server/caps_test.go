package server

import (
	"reflect"
	"strings"
	"testing"

	"samielsq/internal/core"
	"samielsq/internal/cpu"
	"samielsq/internal/experiments"
)

// TestWithinCapsCoversEveryIntField walks every int field of RunSpec,
// cpu.Config and core.Config by reflection, sets it one above the cap
// in a normalized SAMIE spec that is otherwise within it, and expects
// withinCaps to refuse the spec naming the field's JSON path. A field
// added to any of the three is capped with no edit to the server.
func TestWithinCapsCoversEveryIntField(t *testing.T) {
	const limit = 1 << 10
	base := func() experiments.RunSpec {
		return experiments.Normalize(experiments.RunSpec{Benchmark: "gzip", Model: experiments.ModelSAMIE})
	}
	if err := withinCaps(base(), limit); err != nil {
		t.Fatalf("the paper SAMIE spec is over a cap of %d: %v", limit, err)
	}
	intType := reflect.TypeFor[int]()
	// A field is its JSON path and a base spec with it over the cap.
	type field struct {
		path string
		over func() experiments.RunSpec
	}
	var fields []field
	specType := reflect.TypeFor[experiments.RunSpec]()
	for i := range specType.NumField() {
		f := specType.Field(i)
		name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		if f.Type == intType {
			fields = append(fields, field{name, func() experiments.RunSpec {
				n := base()
				reflect.ValueOf(&n).Elem().Field(i).SetInt(limit + 1)
				return n
			}})
		}
	}
	for _, cfg := range []struct {
		prefix string
		typ    reflect.Type
		elem   func(n *experiments.RunSpec) reflect.Value
	}{
		{"cpu.", reflect.TypeFor[cpu.Config](), func(n *experiments.RunSpec) reflect.Value { return reflect.ValueOf(n.CPU).Elem() }},
		{"samie.", reflect.TypeFor[core.Config](), func(n *experiments.RunSpec) reflect.Value { return reflect.ValueOf(n.SAMIE).Elem() }},
	} {
		for i := range cfg.typ.NumField() {
			if cfg.typ.Field(i).Type != intType {
				continue
			}
			fields = append(fields, field{cfg.prefix + cfg.typ.Field(i).Name, func() experiments.RunSpec {
				n := base()
				cfg.elem(&n).Field(i).SetInt(limit + 1)
				return n
			}})
		}
	}
	if len(fields) < 25 {
		t.Fatalf("found %d int fields; the walk missed the configs", len(fields))
	}
	for _, f := range fields {
		err := withinCaps(f.over(), limit)
		if want := f.path + " 1025 exceeds the server cap 1024"; err == nil || err.Error() != want {
			t.Errorf("%s over the cap: error %v, want %q", f.path, err, want)
		}
	}
}
