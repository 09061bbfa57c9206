package beldi

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"sync"
)

// The Value codec behind the typed facade (NewTable, RegisterFunc): a
// reflection-based, deterministic mapping between Go values and the
// dynamic Value type the runtime stores and logs. The mapping is
// structural — structs become map Values keyed by field name (or the
// `beldi:"name"` tag), slices become lists, integers and floats become
// numbers — so a typed Put and a hand-built dynamic Map(...) of the same
// shape produce byte-identical stored state, which is what the
// typed-vs-dynamic equivalence property test pins.
//
// A conversion allocates what it returns and a constant per map it walks,
// not a copy per entry: map entries pass through one reused key and element.
// A map Value is a field list sorted by key (see Fields): a struct's fields
// are converted in a per-type order sorted once, by name, and a Go map's
// entries are sorted once, after they are converted.

// exactInt bounds the integers a number holds exactly: numbers are float64,
// so every integer in [-2^53, 2^53] survives a round trip and no wider
// range does.
const exactInt = 1 << 53

// ToValue converts a Go value into a dynamic Value.
//
// Supported kinds: bool, all int/uint widths, float32/64, string, []byte,
// slices/arrays, maps with string keys, structs (exported fields; a
// `beldi:"-"` tag skips a field, `beldi:"name"` renames it), pointers
// (nil becomes Null), and Value itself (passed through). Integers must lie
// in [-2^53, 2^53], the range a number stores exactly; one outside it is an
// error naming its path, not a silently rounded value. Unsupported kinds
// (chan, func, complex, interface holding nothing) return an error.
func ToValue(v any) (Value, error) {
	if v == nil {
		return Null, nil
	}
	if val, ok := v.(Value); ok {
		return val, nil
	}
	return toValue(reflect.ValueOf(v))
}

var valueType = reflect.TypeOf(Value{})

func toValue(rv reflect.Value) (Value, error) {
	if rv.Type() == valueType {
		return rv.Interface().(Value), nil
	}
	switch rv.Kind() {
	case reflect.Bool:
		return BoolVal(rv.Bool()), nil
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		n := rv.Int()
		if n < -exactInt || n > exactInt {
			return Null, codecErr("ToValue", "integer %d is outside ±2^53, the range a number holds exactly", n)
		}
		return Int(n), nil
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		n := rv.Uint()
		if n > exactInt {
			return Null, codecErr("ToValue", "integer %d is outside ±2^53, the range a number holds exactly", n)
		}
		return Int(int64(n)), nil
	case reflect.Float32, reflect.Float64:
		return Num(rv.Float()), nil
	case reflect.String:
		return Str(rv.String()), nil
	case reflect.Pointer, reflect.Interface:
		if rv.IsNil() {
			return Null, nil
		}
		return toValue(rv.Elem())
	case reflect.Slice:
		if rv.Type().Elem().Kind() == reflect.Uint8 {
			return Bytes(append([]byte(nil), rv.Bytes()...)), nil
		}
		fallthrough
	case reflect.Array:
		elems := make([]Value, rv.Len())
		for i := 0; i < rv.Len(); i++ {
			ev, err := toValue(rv.Index(i))
			if err != nil {
				return Null, within(err, fmt.Sprintf("[%d]", i))
			}
			elems[i] = ev
		}
		return List(elems...), nil
	case reflect.Map:
		t := rv.Type()
		if t.Key().Kind() != reflect.String {
			return Null, codecErr("ToValue", "map key type %s is not string", t.Key())
		}
		fs := make([]Field, 0, rv.Len())
		key, elem := reflect.New(t.Key()).Elem(), reflect.New(t.Elem()).Elem()
		for iter := rv.MapRange(); iter.Next(); {
			key.SetIterKey(iter)
			elem.SetIterValue(iter)
			ev, err := toValue(elem)
			if err != nil {
				return Null, within(err, fmt.Sprintf("[%q]", key.String()))
			}
			fs = append(fs, F(key.String(), ev))
		}
		return Fields(fs...), nil
	case reflect.Struct:
		sfs := structFieldsOf(rv.Type())
		fs := make([]Field, len(sfs))
		for i, sf := range sfs {
			ev, err := toValue(rv.Field(sf.index))
			if err != nil {
				return Null, within(err, "."+rv.Type().Field(sf.index).Name)
			}
			fs[i] = F(sf.name, ev)
		}
		return Fields(fs...), nil
	default:
		return Null, codecErr("ToValue", "unsupported kind %s", rv.Kind())
	}
}

// FromValue converts a dynamic Value back into *out, the inverse of
// ToValue. Null decodes to the zero value (and to nil for pointers);
// numbers decode into any numeric kind, except that a number an integer
// kind cannot hold — fractional, negative into an unsigned kind, or out of
// the kind's range — is an error naming its path, never a wrapped or
// truncated value; missing map keys leave struct fields at their zero
// value, mirroring how never-written table keys read as Null.
func FromValue(v Value, out any) error {
	rv := reflect.ValueOf(out)
	if rv.Kind() != reflect.Pointer || rv.IsNil() {
		return fmt.Errorf("beldi: FromValue: out must be a non-nil pointer, got %T", out)
	}
	return fromValue(v, rv.Elem())
}

func fromValue(v Value, rv reflect.Value) error {
	if rv.Type() == valueType {
		rv.Set(reflect.ValueOf(v))
		return nil
	}
	if rv.Kind() == reflect.Pointer {
		if v.IsNull() {
			rv.SetZero()
			return nil
		}
		if rv.IsNil() {
			rv.Set(reflect.New(rv.Type().Elem()))
		}
		return fromValue(v, rv.Elem())
	}
	if v.IsNull() {
		rv.SetZero()
		return nil
	}
	switch rv.Kind() {
	case reflect.Bool:
		rv.SetBool(v.BoolVal())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		f := v.Num()
		switch {
		case f != math.Trunc(f):
			return codecErr("FromValue", "number %v is not an integer, decoding into %s", f, rv.Type())
		case f < math.MinInt64 || f >= math.MaxInt64 || rv.OverflowInt(int64(f)):
			return codecErr("FromValue", "number %v overflows %s", f, rv.Type())
		}
		rv.SetInt(int64(f))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		f := v.Num()
		switch {
		case f != math.Trunc(f):
			return codecErr("FromValue", "number %v is not an integer, decoding into %s", f, rv.Type())
		case f < 0:
			return codecErr("FromValue", "negative number %v into unsigned %s", f, rv.Type())
		case f >= math.MaxUint64 || rv.OverflowUint(uint64(f)):
			return codecErr("FromValue", "number %v overflows %s", f, rv.Type())
		}
		rv.SetUint(uint64(f))
	case reflect.Float32, reflect.Float64:
		rv.SetFloat(v.Num())
	case reflect.String:
		rv.SetString(v.Str())
	case reflect.Slice:
		if rv.Type().Elem().Kind() == reflect.Uint8 {
			rv.SetBytes(append([]byte(nil), v.BytesVal()...))
			return nil
		}
		list := v.List()
		out := reflect.MakeSlice(rv.Type(), len(list), len(list))
		for i, ev := range list {
			if err := fromValue(ev, out.Index(i)); err != nil {
				return within(err, fmt.Sprintf("[%d]", i))
			}
		}
		rv.Set(out)
	case reflect.Array:
		list := v.List()
		if len(list) != rv.Len() {
			return codecErr("FromValue", "list of %d elements into array %s", len(list), rv.Type())
		}
		for i, ev := range list {
			if err := fromValue(ev, rv.Index(i)); err != nil {
				return within(err, fmt.Sprintf("[%d]", i))
			}
		}
	case reflect.Map:
		t := rv.Type()
		if t.Key().Kind() != reflect.String {
			return codecErr("FromValue", "map key type %s is not string", t.Key())
		}
		out := reflect.MakeMapWithSize(t, v.MapLen())
		// One key and one element carry every entry: SetMapIndex copies
		// both into the map, and the element is zeroed first so that nothing
		// the previous entry decoded into it (a pointer's target, a field)
		// is shared with this one.
		key, elem := reflect.New(t.Key()).Elem(), reflect.New(t.Elem()).Elem()
		for k, ev := range v.Entries() {
			elem.SetZero()
			if err := fromValue(ev, elem); err != nil {
				return within(err, fmt.Sprintf("[%q]", k))
			}
			key.SetString(k)
			out.SetMapIndex(key, elem)
		}
		rv.Set(out)
	case reflect.Struct:
		t := rv.Type()
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if !f.IsExported() {
				continue
			}
			name := fieldName(f)
			if name == "" {
				continue
			}
			fv, ok := v.MapGet(name)
			if !ok {
				rv.Field(i).SetZero()
				continue
			}
			if err := fromValue(fv, rv.Field(i)); err != nil {
				return within(err, "."+f.Name)
			}
		}
	default:
		return codecErr("FromValue", "unsupported kind %s", rv.Kind())
	}
	return nil
}

// structField is one field of a struct type as ToValue writes it: its Value
// map key and its index.
type structField struct {
	name  string
	index int
}

// structFields caches structFieldsOf per type.
var structFields sync.Map // reflect.Type -> []structField

// structFieldsOf lists t's exported, named fields in the order of their map
// keys: the order of the field list a struct converts to. A key two fields
// share (by tag) is the later field's, as it would be were the fields
// assigned into a Go map in declaration order.
func structFieldsOf(t reflect.Type) []structField {
	if sfs, ok := structFields.Load(t); ok {
		return sfs.([]structField)
	}
	var sfs []structField
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if name := fieldName(f); f.IsExported() && name != "" {
			sfs = append(sfs, structField{name, i})
		}
	}
	slices.SortStableFunc(sfs, func(a, b structField) int { return strings.Compare(a.name, b.name) })
	out := sfs[:0]
	for i, sf := range sfs {
		if i+1 == len(sfs) || sfs[i+1].name != sf.name {
			out = append(out, sf)
		}
	}
	structFields.Store(t, out)
	return out
}

// fieldName resolves a struct field's Value map key: the `beldi` tag when
// present ("" means the Go field name, "-" skips the field).
func fieldName(f reflect.StructField) string {
	tag, ok := f.Tag.Lookup("beldi")
	if !ok {
		return f.Name
	}
	if tag == "-" {
		return ""
	}
	return tag
}

// codecError is a conversion failure, with the path inside the converted
// value where it happened: ".Field", "[3]" and `["key"]` steps, outermost
// first.
type codecError struct {
	op, path, msg string
}

func codecErr(op, format string, args ...any) error {
	return &codecError{op: op, msg: fmt.Sprintf(format, args...)}
}

// within prefixes err's path with one step, on the way out of a container.
func within(err error, step string) error {
	if ce, ok := err.(*codecError); ok {
		ce.path = step + ce.path
	}
	return err
}

func (e *codecError) Error() string {
	if e.path == "" {
		return "beldi: " + e.op + ": " + e.msg
	}
	return "beldi: " + e.op + ": " + strings.TrimPrefix(e.path, ".") + ": " + e.msg
}
