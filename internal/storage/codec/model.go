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

// Cond appends an optional condition: a presence byte, then the tree
// dynamo.DescribeCond gives for it.
func (e *Encoder) Cond(c dynamo.Cond) {
	if c == nil {
		e.U8(0)
		return
	}
	cd, ok := dynamo.DescribeCond(c)
	if !ok && e.err == nil {
		e.err = errorf("condition %s is not serializable (foreign Cond implementation)", c)
	}
	e.U8(1)
	e.condDesc(cd)
}

func (e *Encoder) condDesc(cd dynamo.CondDesc) {
	e.U8(byte(cd.Kind))
	switch cd.Kind {
	case dynamo.CondExists, dynamo.CondNotExists:
		e.Path(cd.Path)
	case dynamo.CondCmp:
		e.Path(cd.Path)
		e.Str(cd.Op)
		e.Value(cd.Value)
	case dynamo.CondAnd, dynamo.CondOr, dynamo.CondNot:
		e.Int(len(cd.Subs))
		for _, sub := range cd.Subs {
			e.condDesc(sub)
		}
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

// Cond reads an optional condition and rebuilds it with dynamo.CondFromDesc,
// whose refusals (an unknown comparison, a NOT without exactly one child)
// are decoding failures like any other.
func (d *Decoder) Cond() dynamo.Cond {
	if d.U8() == 0 {
		return nil
	}
	cd := d.condDesc()
	if d.err != nil {
		return nil
	}
	c, err := dynamo.CondFromDesc(cd)
	if err != nil {
		d.Failf("%v", err)
	}
	return c
}

func (d *Decoder) condDesc() dynamo.CondDesc {
	cd := dynamo.CondDesc{Kind: dynamo.CondKind(d.U8())}
	switch cd.Kind {
	case dynamo.CondTrue:
	case dynamo.CondExists, dynamo.CondNotExists:
		cd.Path = d.Path()
	case dynamo.CondCmp:
		cd.Path, cd.Op, cd.Value = d.Path(), d.Name(), d.Value()
	case dynamo.CondAnd, dynamo.CondOr, dynamo.CondNot:
		if !d.nest() {
			break
		}
		cd.Subs = make([]dynamo.CondDesc, d.Count())
		for i := 0; i < len(cd.Subs) && d.err == nil; i++ {
			cd.Subs[i] = d.condDesc()
		}
		d.depth--
	default:
		d.Failf("unknown condition kind %d", cd.Kind)
	}
	return cd
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
