package walstore

import (
	"fmt"

	"repro/internal/dynamo"
	"repro/internal/storage/codec"
)

// This file is the WAL record's envelope. A record is one codec frame whose
// body is
//
//	[u64 seq][u8 record type] then, by type:
//	  create table  Schema
//	  delete table  [str name]
//	  commit        [count]([u8 op kind][str table] then Item (put) ·
//	                Key (delete) · Key Updates (update))…
//
// Everything inside the envelope — primitives, Schema, Item, Key, Updates,
// the frame and its CRC — is internal/storage/codec's, documented there.

// Record types.
const (
	recCreateTable byte = 1
	recDeleteTable byte = 2
	recCommit      byte = 3
)

// Mutation kinds inside a commit record.
const (
	opPut    byte = 1
	opDelete byte = 2
	opUpdate byte = 3
)

// walOp is one logical mutation inside a commit record: exactly one of a
// row put (post-image), a row delete, or an update-expression application.
// Conditions are evaluated before logging, so records carry none: replay
// applies the ops unconditionally, in log order, onto the same base state.
type walOp struct {
	kind    byte
	table   string
	item    dynamo.Item     // opPut
	key     dynamo.Key      // opDelete, opUpdate
	updates []dynamo.Update // opUpdate
}

// record is one decoded WAL record.
type record struct {
	seq    uint64
	typ    byte
	schema dynamo.Schema // recCreateTable
	name   string        // recDeleteTable
	ops    []walOp       // recCommit
}

// encodeRecord serializes r into its on-disk frame, which is e's memory and
// dies at e's next Reset. e must be empty.
func encodeRecord(e *codec.Encoder, r record) ([]byte, error) {
	e.U64(r.seq)
	e.U8(r.typ)
	switch r.typ {
	case recCreateTable:
		e.Schema(r.schema)
	case recDeleteTable:
		e.Str(r.name)
	case recCommit:
		e.Int(len(r.ops))
		for _, o := range r.ops {
			e.U8(o.kind)
			e.Str(o.table)
			switch o.kind {
			case opPut:
				e.Item(o.item)
			case opDelete:
				e.Key(o.key)
			case opUpdate:
				e.Key(o.key)
				e.Updates(o.updates)
			}
		}
	}
	return e.Frame(), e.Err()
}

// decodeRecord parses a record body (the bytes the frame's CRC covers).
func decodeRecord(body []byte) (record, error) {
	d := codec.NewDecoder(body)
	r := record{seq: d.U64(), typ: d.U8()}
	switch r.typ {
	case recCreateTable:
		r.schema = d.Schema()
	case recDeleteTable:
		r.name = d.Str()
	case recCommit:
		r.ops = make([]walOp, d.Count())
		for i := 0; i < len(r.ops) && d.Err() == nil; i++ {
			o := &r.ops[i]
			o.kind, o.table = d.U8(), d.Name()
			switch o.kind {
			case opPut:
				o.item = d.Item()
			case opDelete:
				o.key = d.Key()
			case opUpdate:
				o.key, o.updates = d.Key(), d.Updates()
			default:
				d.Failf("unknown op kind %d", o.kind)
			}
		}
	default:
		d.Failf("unknown record type %d", r.typ)
	}
	if err := d.Done(); err != nil {
		return record{}, fmt.Errorf("walstore: %w", err)
	}
	return r, nil
}
