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
//	  commit        [count]([u8 op kind][str table] then Item (1 put) ·
//	                Key (2 delete) · Key Updates (3 update))…
//
// A commit record holds the dynamo.TxOps that committed, less their
// conditions: those were decided before logging, so replay applies the ops
// unconditionally, in log order, onto the same base state. Check ops write
// nothing and are left out. Everything inside the envelope — primitives,
// Schema, Item, Key, Updates, the frame and its CRC — is
// internal/storage/codec's, documented there.

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

// record is one decoded WAL record.
type record struct {
	seq    uint64
	typ    byte
	schema dynamo.Schema // recCreateTable
	name   string        // recDeleteTable
	ops    []dynamo.TxOp // recCommit
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
		n := 0
		for _, op := range r.ops {
			if !op.Check {
				n++
			}
		}
		e.Int(n)
		for _, op := range r.ops {
			switch {
			case op.Check:
			case op.Put != nil:
				e.U8(opPut)
				e.Str(op.Table)
				e.Item(op.Put)
			case op.Delete:
				e.U8(opDelete)
				e.Str(op.Table)
				e.Key(op.Key)
			default:
				e.U8(opUpdate)
				e.Str(op.Table)
				e.Key(op.Key)
				e.Updates(op.Updates)
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
		r.ops = make([]dynamo.TxOp, d.Count())
		for i := 0; i < len(r.ops) && d.Err() == nil; i++ {
			op := &r.ops[i]
			kind := d.U8()
			op.Table = d.Name()
			switch kind {
			case opPut:
				op.Put = d.Item()
			case opDelete:
				op.Key, op.Delete = d.Key(), true
			case opUpdate:
				op.Key, op.Updates = d.Key(), d.Updates()
			default:
				d.Failf("unknown op kind %d", kind)
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
