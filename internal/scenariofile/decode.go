package scenariofile

import (
	"fmt"
	"math"
	"slices"
	"strings"
)

// dec holds what one Parse call shares across its sections: the document
// name and the first error. Once err is set every read returns its
// default and every later failure is dropped, so decoders run straight
// through and report the first error.
type dec struct {
	name string
	err  error
	// read stacks the keys the open sections have read. Sections nest, and
	// each is done before its parent reads again, so a section's reads are
	// the tail of read from its start.
	read []string
}

// loc names a place in the document by its keys below the root, so a
// path string is built only when an error is reported there. The deepest
// section is three keys down (shards[i].fleet[j].generator).
type loc struct {
	keys  [3]string
	index [3]int // list position under each key, or -1
	n     int
}

// child returns the location of key (list position index, or -1) in l.
func (l loc) child(key string, index int) loc {
	l.keys[l.n], l.index[l.n] = key, index
	l.n++
	return l
}

// path renders l: "document" at the root, dotted keys below it, so the
// root's own sections are named bare ("fleet[0]", "assert").
func (l *loc) path() string {
	if l.n == 0 {
		return "document"
	}
	var b strings.Builder
	for i, key := range l.keys[:l.n] {
		if i > 0 {
			b.WriteByte('.')
		}
		b.WriteString(key)
		if l.index[i] >= 0 {
			fmt.Fprintf(&b, "[%d]", l.index[i])
		}
	}
	return b.String()
}

// section reads one parsed mapping. Every typed read records its key;
// done rejects any key no read named and lists the keys read, in read
// order, as the allowed set — so each key is declared once, by its read.
type section struct {
	d     *dec
	m     *Map // nil once the section failed to decode
	at    loc
	start int // where this section's keys begin in d.read
	seen  int // reads that found their key in m
}

// fail records a positioned error at key inside s (s itself when key is
// "") unless an earlier error stands.
func (s *section) fail(key, format string, args ...any) {
	if s.d.err != nil {
		return
	}
	p := s.at.path()
	if key != "" {
		p += "." + key
	}
	s.d.err = fmt.Errorf("%s: %s: %s", s.d.name, p, fmt.Sprintf(format, args...))
}

// failIn records an error at key named as a section: bare at the root
// ("fleet"), where fail would name a scalar ("document.horizon").
func (s *section) failIn(key, format string, args ...any) {
	at := section{d: s.d, at: s.at.child(key, -1)}
	at.fail("", format, args...)
}

// value records key as read and returns its raw value and whether the
// key is present (a present key may hold null).
func (s *section) value(key string) (any, bool) {
	if s.d.err != nil {
		return nil, false
	}
	s.d.read = append(s.d.read, key)
	v, ok := s.m.Get(key)
	if ok {
		s.seen++
	}
	return v, ok
}

// present reports whether key is set, even to null, without reading it.
func (s *section) present(key string) bool {
	if s.m == nil {
		return false
	}
	_, ok := s.m.Get(key)
	return ok
}

// done closes s: it returns the first error, or else rejects the first
// key of the mapping that no read named.
func (s *section) done() error {
	read := s.d.read[s.start:]
	s.d.read = s.d.read[:s.start]
	if s.d.err != nil || s.seen == s.m.Len() {
		return s.d.err
	}
	for _, k := range s.m.Keys() {
		if !slices.Contains(read, k) {
			s.fail("", "unknown key %q (allowed: %s)", k, strings.Join(read, ", "))
			break
		}
	}
	return s.d.err
}

// str reads an optional string.
func (s *section) str(key, def string) string {
	v, _ := s.value(key)
	if v == nil {
		return def
	}
	t, ok := v.(string)
	if !ok {
		s.fail(key, "expected a string, got %s", typeName(v))
		return def
	}
	return t
}

// optNum reads an optional number (integers coerce) and whether it is set.
func (s *section) optNum(key string) (float64, bool) {
	v, _ := s.value(key)
	if v == nil {
		return 0, false
	}
	f, err := asFloat(v)
	if err != nil {
		s.fail(key, "%v", err)
		return 0, false
	}
	return f, true
}

// num reads an optional number.
func (s *section) num(key string, def float64) float64 {
	if f, ok := s.optNum(key); ok {
		return f
	}
	return def
}

// integer reads an optional integer (integral floats coerce).
func (s *section) integer(key string, def int) int {
	v, _ := s.value(key)
	if v == nil {
		return def
	}
	i, err := asInt(v)
	if err != nil {
		s.fail(key, "%v", err)
		return def
	}
	return i
}

// atLeast reads an optional integer that must be >= lo.
func (s *section) atLeast(key string, def, lo int) int {
	i := s.integer(key, def)
	if i < lo {
		s.fail(key, "must be >= %d, got %d", lo, i)
	}
	return i
}

// optBool reads an optional bool and whether it is set.
func (s *section) optBool(key string) (bool, bool) {
	v, _ := s.value(key)
	if v == nil {
		return false, false
	}
	b, ok := v.(bool)
	if !ok {
		s.fail(key, "expected a bool, got %s", typeName(v))
	}
	return b, ok
}

// boolean reads an optional bool.
func (s *section) boolean(key string, def bool) bool {
	if b, ok := s.optBool(key); ok {
		return b
	}
	return def
}

// list reads an optional list; nil when unset.
func (s *section) list(key string) []any {
	v, _ := s.value(key)
	if v == nil {
		return nil
	}
	l, ok := v.([]any)
	if !ok {
		s.failIn(key, "expected a list, got %s", typeName(v))
	}
	return l
}

// mapping opens v, the value at key (and list index, or -1) inside s, as
// a section.
func (s *section) mapping(key string, index int, v any) section {
	m, ok := v.(*Map)
	c := section{d: s.d, m: m, at: s.at.child(key, index), start: len(s.d.read)}
	if !ok {
		c.fail("", "expected a mapping, got %s", typeName(v))
	}
	return c
}

// child opens the optional mapping at key; ok is false when it is unset.
func (s *section) child(key string) (c section, ok bool) {
	v, _ := s.value(key)
	if v == nil {
		return section{}, false
	}
	return s.mapping(key, -1, v), true
}

// dist reads an optional constant or distribution block; nil when unset.
func (s *section) dist(key string) *Dist {
	v, _ := s.value(key)
	switch t := v.(type) {
	case nil:
		return nil
	case int64:
		return &Dist{Kind: "const", A: float64(t)}
	case *Map:
		return s.distBlock(key, t)
	}
	f, ok := v.(float64)
	switch {
	case !ok:
		s.fail(key, "expected a number or a distribution block, got %s", typeName(v))
	case math.IsNaN(f):
		s.fail(key, "NaN is not a valid number")
	case math.IsInf(f, 0):
		s.fail(key, "must be finite, got %v", f)
	default:
		return &Dist{Kind: "const", A: f}
	}
	return nil
}

// distBlock decodes `uniform: [lo, hi]`, `choice: [...]` or
// `normal: [mean, std]` at key; every parameter must be finite.
func (s *section) distBlock(key string, m *Map) *Dist {
	if m.Len() != 1 {
		s.fail(key, "a distribution takes exactly one of uniform, choice, normal")
		return nil
	}
	kind := m.Keys()[0]
	raw, _ := m.Get(kind)
	list, ok := raw.([]any)
	if !ok {
		s.fail(key+"."+kind, "expected a list, got %s", typeName(raw))
		return nil
	}
	vals := make([]float64, len(list))
	for i, e := range list {
		f, err := asFloat(e)
		if err == nil && math.IsInf(f, 0) {
			err = fmt.Errorf("must be finite, got %v", f)
		}
		if err != nil {
			s.fail(fmt.Sprintf("%s.%s[%d]", key, kind, i), "%v", err)
			return nil
		}
		vals[i] = f
	}
	switch kind {
	case "uniform":
		if len(vals) != 2 || vals[0] > vals[1] {
			s.fail(key+".uniform", "takes [lo, hi] with lo <= hi")
			return nil
		}
		return &Dist{Kind: "uniform", A: vals[0], B: vals[1]}
	case "choice":
		if len(vals) == 0 {
			s.fail(key+".choice", "takes at least one value")
			return nil
		}
		return &Dist{Kind: "choice", Choices: vals}
	case "normal":
		if len(vals) != 2 || vals[1] < 0 {
			s.fail(key+".normal", "takes [mean, std] with std >= 0")
			return nil
		}
		return &Dist{Kind: "normal", A: vals[0], B: vals[1]}
	}
	s.fail(key, "unknown distribution %q (uniform, choice, normal)", kind)
	return nil
}

// asFloat coerces a scalar to float64.
func asFloat(v any) (float64, error) {
	switch t := v.(type) {
	case float64:
		if math.IsNaN(t) {
			return 0, fmt.Errorf("NaN is not a valid number")
		}
		return t, nil
	case int64:
		return float64(t), nil
	default:
		return 0, fmt.Errorf("expected a number, got %s", typeName(v))
	}
}

// asInt coerces a scalar to int, rejecting fractional floats and floats
// outside int's range, whose conversion Go leaves to the machine.
func asInt(v any) (int, error) {
	switch t := v.(type) {
	case int64:
		return int(t), nil
	case float64:
		// int holds [MinInt, -MinInt), bounds exact as float64 where MaxInt
		// would round up past the range.
		if t != math.Trunc(t) || math.IsNaN(t) || t < math.MinInt || t >= -math.MinInt {
			return 0, fmt.Errorf("expected an integer, got %v", t)
		}
		return int(t), nil
	default:
		return 0, fmt.Errorf("expected an integer, got %s", typeName(v))
	}
}

// typeName names a tree value for error messages.
func typeName(v any) string {
	switch v.(type) {
	case nil:
		return "null"
	case *Map:
		return "mapping"
	case []any:
		return "list"
	case string:
		return "string"
	case bool:
		return "bool"
	case int64, float64:
		return "number"
	default:
		return fmt.Sprintf("%T", v)
	}
}
