package metrics

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"unsafe"
)

// statField is one exported int64 field of a Stats struct, as its
// `metric` tag declares it.
type statField struct {
	off  uintptr // the field's offset in its struct
	name string  // series name after the prefix; "" for metric:"-"
	kind Kind
	max  bool // AddStats takes the maximum (a high-water mark), not the sum
}

// in returns the field within the struct at p.
func (f *statField) in(p unsafe.Pointer) *int64 { return (*int64)(unsafe.Add(p, f.off)) }

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
		sf := statField{off: f.Offset, kind: KindCounter}
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
	for _, f := range statFields(reflect.TypeFor[T]()) {
		if f.name != "" {
			r.put(&series{name: prefix + "." + f.name, kind: f.kind, ptr: f.in(unsafe.Pointer(stats))}, labels)
		}
	}
}

// AddStats adds every exported int64 field of *src into *dst; fields
// tagged ",max" aggregate by maximum. Fields kept out of the registry
// with metric:"-" are still summed. It reaches each field by its offset
// in the cached plan, with no reflection per field.
func AddStats[T any](dst, src *T) {
	for _, f := range statFields(reflect.TypeFor[T]()) {
		d, n := f.in(unsafe.Pointer(dst)), *f.in(unsafe.Pointer(src))
		if !f.max {
			*d += n
		} else if n > *d {
			*d = n
		}
	}
}
