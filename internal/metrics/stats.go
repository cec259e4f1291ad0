package metrics

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
)

// statField is one exported int64 field of a Stats struct, as its
// `metric` tag declares it.
type statField struct {
	index int
	name  string // series name after the prefix; "" for metric:"-"
	kind  Kind
	max   bool // AddStats takes the maximum (a high-water mark), not the sum
}

// statPlans caches each Stats type's fields, so the tags are parsed
// once per type and not once per flow.
var statPlans sync.Map // reflect.Type -> []statField

// statFields parses t's metric tags. It panics on an exported int64
// field without one: a new counter cannot be left out of the registry
// by forgetting it, only by writing metric:"-".
func statFields(t reflect.Type) []statField {
	if p, ok := statPlans.Load(t); ok {
		return p.([]statField)
	}
	var plan []statField
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if !f.IsExported() || f.Type.Kind() != reflect.Int64 {
			continue
		}
		tag, ok := f.Tag.Lookup("metric")
		if !ok || tag == "" {
			panic(fmt.Sprintf("metrics: %v.%s has no metric tag", t, f.Name))
		}
		name, opts, _ := strings.Cut(tag, ",")
		sf := statField{index: i, kind: KindCounter}
		if name != "-" {
			sf.name = name
		}
		for _, o := range strings.Split(opts, ",") {
			switch o {
			case "":
			case "gauge":
				sf.kind = KindGauge
			case "max":
				sf.max = true
			default:
				panic(fmt.Sprintf("metrics: %v.%s: unknown metric tag option %q", t, f.Name, o))
			}
		}
		plan = append(plan, sf)
	}
	statPlans.Store(t, plan)
	return plan
}

// BindStats registers one series per exported int64 field of *stats,
// named prefix + "." + the field's `metric` tag and backed by the
// field itself: the struct stays the only storage and the registry
// reads it at Snapshot time, unsynchronized, as it reads a GaugeFunc;
// rebinding a name replaces its series. The tag grammar is
//
//	metric:"frag_bytes"        a counter
//	metric:"dead,gauge"        a gauge (a level, not a count)
//	metric:"queue_max,gauge,max"  AddStats takes the maximum
//	metric:"-"                 no series
//
// and an int64 field with no tag panics, so adding a counter is one
// line — the field and its tag. On a nil registry BindStats returns
// before any reflection, label handling or allocation.
func BindStats[T any](r *Registry, prefix string, stats *T, labels ...string) {
	if r == nil {
		return
	}
	v := reflect.ValueOf(stats).Elem()
	for _, f := range statFields(v.Type()) {
		if f.name == "" {
			continue
		}
		ptr := v.Field(f.index).Addr().Interface().(*int64)
		r.put(&series{name: prefix + "." + f.name, kind: f.kind, ptr: ptr}, labels)
	}
}

// AddStats adds every exported int64 field of *src into *dst; fields
// tagged ",max" aggregate by maximum. Fields kept out of the registry
// with metric:"-" are still summed.
func AddStats[T any](dst, src *T) {
	d, s := reflect.ValueOf(dst).Elem(), reflect.ValueOf(src).Elem()
	for _, f := range statFields(d.Type()) {
		df, n := d.Field(f.index), s.Field(f.index).Int()
		switch {
		case !f.max:
			df.SetInt(df.Int() + n)
		case n > df.Int():
			df.SetInt(n)
		}
	}
}
