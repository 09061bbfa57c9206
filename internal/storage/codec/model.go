package codec

import (
	"slices"

	"repro/internal/dynamo"
)

// Value appends a kind-tagged value.
func (e *Encoder) Value(v dynamo.Value) {
	e.U8(byte(v.Kind()))
	switch v.Kind() {
	case dynamo.KindString:
		e.Str(v.Str())
	case dynamo.KindNumber:
		e.F64(v.Num())
	case dynamo.KindBool:
		e.Bool(v.BoolVal())
	case dynamo.KindBytes:
		e.Bytes(v.BytesVal())
	case dynamo.KindList:
		e.Int(len(v.List()))
		for _, el := range v.List() {
			e.Value(el)
		}
	case dynamo.KindMap:
		// A map value's entries are encoded like a row's attributes, and are
		// already in key order.
		e.Int(v.MapLen())
		for k, ev := range v.Entries() {
			e.Str(k)
			e.Value(ev)
		}
	}
}

// Item appends a row in sorted attribute order, sorting the names in the
// encoder's reused key buffer. A map value inside the row does not use the
// buffer: its entries are already in order.
func (e *Encoder) Item(it dynamo.Item) {
	for k := range it {
		e.keys = append(e.keys, k)
	}
	slices.Sort(e.keys)
	e.Int(len(it))
	for _, k := range e.keys {
		e.Str(k)
		e.Value(it[k])
	}
	clear(e.keys)
	e.keys = e.keys[:0]
}

// Items appends a row count and the rows.
func (e *Encoder) Items(its []dynamo.Item) {
	e.Int(len(its))
	for _, it := range its {
		e.Item(it)
	}
}

// Key appends a primary key: hash value, then sort value (null when absent).
func (e *Encoder) Key(k dynamo.Key) {
	e.Value(k.Hash)
	e.Value(k.Sort)
}

// Path appends an attribute path.
func (e *Encoder) Path(p dynamo.Path) {
	e.Str(p.Attr)
	e.Str(p.MapKey)
}

// Paths appends a projection.
func (e *Encoder) Paths(ps []dynamo.Path) {
	e.Int(len(ps))
	for _, p := range ps {
		e.Path(p)
	}
}

// Schema appends a table schema.
func (e *Encoder) Schema(s dynamo.Schema) {
	e.Str(s.Name)
	e.Str(s.HashKey)
	e.Str(s.SortKey)
	e.Int(s.MaxItemSize)
	e.Int(s.Shards)
	e.Int(len(s.Indexes))
	for _, ix := range s.Indexes {
		e.Str(ix.Name)
		e.Str(ix.HashKey)
		e.Str(ix.SortKey)
	}
}

// The kind byte of each condition node type.
const (
	condTrue byte = iota + 1
	condExists
	condNotExists
	condCmp
	condAnd
	condOr
	condNot
)

// cmpOps are dynamo.CondCmp's operators.
var cmpOps = map[string]bool{"=": true, "!=": true, "<": true, "<=": true, ">": true, ">=": true}

// Cond appends an optional condition: a presence byte, then the tree of
// dynamo's condition node types. Any other Cond implementation, and a
// comparison whose operator the decoder would refuse, has no encoding.
func (e *Encoder) Cond(c dynamo.Cond) {
	if c == nil {
		e.U8(0)
		return
	}
	e.U8(1)
	e.cond(c)
}

func (e *Encoder) cond(c dynamo.Cond) {
	switch c := c.(type) {
	case dynamo.CondTrue:
		e.U8(condTrue)
	case dynamo.CondExists:
		e.U8(condExists)
		e.Path(c.Path)
	case dynamo.CondNotExists:
		e.U8(condNotExists)
		e.Path(c.Path)
	case dynamo.CondCmp:
		if !cmpOps[c.Op] && e.err == nil {
			e.err = errorf("comparison operator %q has no encoding", c.Op)
		}
		e.U8(condCmp)
		e.Path(c.Path)
		e.Str(c.Op)
		e.Value(c.Value)
	case dynamo.CondAnd:
		e.conds(condAnd, c.Conds)
	case dynamo.CondOr:
		e.conds(condOr, c.Conds)
	case dynamo.CondNot:
		e.U8(condNot)
		e.Int(1)
		e.cond(c.Cond)
	default:
		if e.err == nil {
			e.err = errorf("condition %s is not serializable (foreign Cond implementation)", c)
		}
	}
}

func (e *Encoder) conds(kind byte, cs []dynamo.Cond) {
	e.U8(kind)
	e.Int(len(cs))
	for _, c := range cs {
		e.cond(c)
	}
}

// Updates appends an update expression: a count, then each action's kind,
// path and payload (SET's value, ADD's delta as a float64).
func (e *Encoder) Updates(us []dynamo.Update) {
	e.Int(len(us))
	for _, u := range us {
		e.U8(byte(u.Kind))
		e.Path(u.Path)
		switch u.Kind {
		case dynamo.UpdateSet:
			e.Value(u.Value)
		case dynamo.UpdateAdd:
			e.F64(u.Value.Num())
		}
	}
}

// QueryOpts appends the options of a Query, QueryIndex or Scan.
func (e *Encoder) QueryOpts(o dynamo.QueryOpts) {
	e.Cond(o.Filter)
	e.Paths(o.Projection)
	e.Int(o.Limit)
	e.Bool(o.Descending)
}

// TxOps appends the operations of a TransactWrite.
func (e *Encoder) TxOps(ops []dynamo.TxOp) {
	e.Int(len(ops))
	for _, op := range ops {
		e.Str(op.Table)
		e.Key(op.Key)
		e.Cond(op.Cond)
		e.Bool(op.Put != nil)
		if op.Put != nil {
			e.Item(op.Put)
		}
		e.Updates(op.Updates)
		e.Bool(op.Delete)
		e.Bool(op.Check)
	}
}

// Value reads a kind-tagged value.
func (d *Decoder) Value() dynamo.Value {
	switch kind := dynamo.Kind(d.U8()); kind {
	case dynamo.KindNull:
	case dynamo.KindString:
		return dynamo.S(d.Str())
	case dynamo.KindNumber:
		return dynamo.N(d.F64())
	case dynamo.KindBool:
		return dynamo.Bool(d.Bool())
	case dynamo.KindBytes:
		p := d.take(d.Uvarint())
		b := make([]byte, len(p))
		copy(b, p)
		return dynamo.Bytes(b)
	case dynamo.KindList:
		if !d.nest() {
			break
		}
		l := make([]dynamo.Value, d.Count())
		for i := 0; i < len(l) && d.err == nil; i++ {
			l[i] = d.Value()
		}
		d.depth--
		return result(d, dynamo.L(l...))
	case dynamo.KindMap:
		if !d.nest() {
			break
		}
		// The keys are data, such as step keys, and are not interned. They
		// arrive in order, so the entries are the field list as they come.
		fs := make([]dynamo.Field, d.Count())
		for i := 0; i < len(fs) && d.err == nil; i++ {
			fs[i].Name = d.Str()
			if i > 0 {
				d.ordered(fs[i-1].Name, fs[i].Name)
			}
			fs[i].Value = d.Value()
		}
		d.depth--
		return result(d, dynamo.Fields(fs...))
	default:
		d.Failf("unknown value kind %d", kind)
	}
	return dynamo.Null
}

// Item reads a row, refusing attributes out of order as a map value's
// entries are.
func (d *Decoder) Item() dynamo.Item {
	n := d.Count()
	it := make(dynamo.Item, n)
	prev := ""
	for i := 0; i < n && d.err == nil; i++ {
		k := d.Name()
		if i > 0 {
			d.ordered(prev, k)
		}
		it[k], prev = d.Value(), k
	}
	return result(d, it)
}

// ordered refuses a row attribute or map key unless it sorts strictly after
// the one before it: an encoder writes them in order, each once, so anything
// else — above all a repeated key, whose earlier value would silently be
// lost — is not an encoding.
func (d *Decoder) ordered(prev, k string) {
	if k <= prev {
		d.Failf("keys not strictly increasing: %q after %q", k, prev)
	}
}

// Items reads a row count and the rows.
func (d *Decoder) Items() []dynamo.Item {
	its := make([]dynamo.Item, d.Count())
	for i := 0; i < len(its) && d.err == nil; i++ {
		its[i] = d.Item()
	}
	return result(d, its)
}

// Key reads a primary key.
func (d *Decoder) Key() dynamo.Key {
	return dynamo.Key{Hash: d.Value(), Sort: d.Value()}
}

// Path reads an attribute path.
func (d *Decoder) Path() dynamo.Path {
	return dynamo.Path{Attr: d.Name(), MapKey: d.Str()}
}

// Paths reads a projection; an empty one is nil, "whole rows".
func (d *Decoder) Paths() []dynamo.Path {
	n := d.Count()
	if n == 0 {
		return nil
	}
	ps := make([]dynamo.Path, n)
	for i := 0; i < n && d.err == nil; i++ {
		ps[i] = d.Path()
	}
	return result(d, ps)
}

// Schema reads a table schema; a table without indexes has nil Indexes.
func (d *Decoder) Schema() dynamo.Schema {
	s := dynamo.Schema{Name: d.Str(), HashKey: d.Str(), SortKey: d.Str(), MaxItemSize: d.Int(), Shards: d.Int()}
	if n := d.Count(); n > 0 {
		s.Indexes = make([]dynamo.IndexSchema, n)
		for i := 0; i < n && d.err == nil; i++ {
			s.Indexes[i] = dynamo.IndexSchema{Name: d.Str(), HashKey: d.Str(), SortKey: d.Str()}
		}
	}
	return result(d, s)
}

// Cond reads an optional condition, refusing an unknown node kind or
// comparison operator and a NOT without exactly one child.
func (d *Decoder) Cond() dynamo.Cond {
	if d.U8() == 0 {
		return nil
	}
	return result(d, d.cond())
}

func (d *Decoder) cond() dynamo.Cond {
	switch kind := d.U8(); kind {
	case condTrue:
		return dynamo.CondTrue{}
	case condExists:
		return dynamo.CondExists{Path: d.Path()}
	case condNotExists:
		return dynamo.CondNotExists{Path: d.Path()}
	case condCmp:
		c := dynamo.CondCmp{Path: d.Path(), Op: d.Name(), Value: d.Value()}
		if !cmpOps[c.Op] {
			d.Failf("unknown comparison operator %q", c.Op)
		}
		return c
	case condNot:
		if n := d.Count(); n != 1 {
			d.Failf("NOT wants 1 child, got %d", n)
		} else if d.nest() {
			c := dynamo.CondNot{Cond: d.cond()}
			d.depth--
			return c
		}
	case condAnd, condOr:
		if !d.nest() {
			break
		}
		cs := make([]dynamo.Cond, d.Count())
		for i := 0; i < len(cs) && d.err == nil; i++ {
			cs[i] = d.cond()
		}
		d.depth--
		if kind == condAnd {
			return dynamo.CondAnd{Conds: cs}
		}
		return dynamo.CondOr{Conds: cs}
	default:
		d.Failf("unknown condition kind %d", kind)
	}
	return nil
}

// Updates reads an update expression, refusing an unknown action kind; an
// empty expression is nil.
func (d *Decoder) Updates() []dynamo.Update {
	n := d.Count()
	if n == 0 {
		return nil
	}
	us := make([]dynamo.Update, n)
	for i := 0; i < n && d.err == nil; i++ {
		u := &us[i]
		u.Kind, u.Path = dynamo.UpdateKind(d.U8()), d.Path()
		switch u.Kind {
		case dynamo.UpdateSet:
			u.Value = d.Value()
		case dynamo.UpdateAdd:
			u.Value = dynamo.N(d.F64())
		case dynamo.UpdateRemove:
		default:
			d.Failf("unknown update kind %d", u.Kind)
		}
	}
	return result(d, us)
}

// QueryOpts reads the options of a Query, QueryIndex or Scan.
func (d *Decoder) QueryOpts() dynamo.QueryOpts {
	return dynamo.QueryOpts{Filter: d.Cond(), Projection: d.Paths(), Limit: d.Int(), Descending: d.Bool()}
}

// TxOps reads the operations of a TransactWrite.
func (d *Decoder) TxOps() []dynamo.TxOp {
	ops := make([]dynamo.TxOp, d.Count())
	for i := 0; i < len(ops) && d.err == nil; i++ {
		op := &ops[i]
		op.Table, op.Key, op.Cond = d.Name(), d.Key(), d.Cond()
		if d.Bool() {
			op.Put = d.Item()
		}
		op.Updates, op.Delete, op.Check = d.Updates(), d.Bool(), d.Bool()
	}
	return result(d, ops)
}
