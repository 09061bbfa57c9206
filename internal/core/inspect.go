package core

import (
	"errors"
	"strings"

	"repro/internal/dynamo"
	"repro/internal/storage"
)

// durableState is one walk of an SSF's durable tables, read from the store
// alone: Fsck checks it and DurableSpans renders it, so both work on a live
// deployment's store and on a reopened WAL directory alike.
type durableState struct {
	intents []walkedIntent
	daal    map[string]map[string]map[string]daalRow // DAAL table → key → row id → row
	logs    map[string][]logRow                      // read log and invoke log, by table name
}

// walkedIntent is a decoded intent row, whether it holds the arguments and
// start time every row is registered with, and whether it is a schedule's
// registration (Runtime.Schedule).
type walkedIntent struct {
	*intentRecord
	hasArgs, hasStart, scheduled bool
}

// logRow is a read- or invoke-log row: its owner instance, its step, the
// callee it names ("" for none; an invoke-log edge names one) and whether a
// result is logged.
type logRow struct {
	owner, step, callee string
	done                bool
}

// inspect walks fn's tables: its intent table, each DAAL table in name
// order, its read log, then its invoke log. A function with no intent table
// (baseline mode) has no protocol state, and inspect issues no op for it.
func inspect(store storage.Backend, fn string) (*durableState, error) {
	ds := &durableState{daal: make(map[string]map[string]map[string]daalRow), logs: make(map[string][]logRow)}
	if _, err := store.TableSchema(fn + intentSuffix); errors.Is(err, storage.ErrNoSuchTable) {
		return ds, nil
	} else if err != nil {
		return nil, err
	}
	intents, err := store.Scan(fn+intentSuffix, dynamo.QueryOpts{})
	if err != nil {
		return nil, err
	}
	for _, it := range intents {
		_, hasArgs := it[attrArgs]
		_, hasStart := it[attrStartTime]
		_, scheduled := it[attrSchedule]
		ds.intents = append(ds.intents, walkedIntent{decodeIntent(it), hasArgs, hasStart, scheduled})
	}
	for _, name := range store.TableNames() { // sorted
		if !strings.HasPrefix(name, fn+dataInfix) {
			continue
		}
		// A DAAL's rows sort by RowId, as createOrAdopt requires; cross-table
		// data tables and write logs do not.
		s, err := store.TableSchema(name)
		if err == nil && s.SortKey == attrRowID {
			ds.daal[name], err = scanDAAL(store, name)
		}
		if err != nil {
			return nil, err
		}
	}
	proj := dynamo.QueryOpts{Projection: []dynamo.Path{
		dynamo.A(attrID), dynamo.A(attrStep), dynamo.A(attrCalleeID), dynamo.A(attrResult)}}
	for _, table := range []string{fn + readLogSuffix, fn + invokeLogSuffix} {
		rows, err := store.Scan(table, proj)
		if err != nil {
			return nil, err
		}
		for _, it := range rows {
			_, done := it[attrResult]
			ds.logs[table] = append(ds.logs[table], logRow{it[attrID].Str(), it[attrStep].Str(), it[attrCalleeID].Str(), done})
		}
	}
	return ds, nil
}

// scanDAAL reads a DAAL table's rows by item key, then by row id: the view
// the garbage collector and Fsck judge each chain on.
func scanDAAL(store storage.Backend, table string) (map[string]map[string]daalRow, error) {
	items, err := store.Scan(table, dynamo.QueryOpts{})
	if err != nil {
		return nil, err
	}
	byKey := make(map[string]map[string]daalRow)
	for _, it := range items {
		r := decodeDAALRow(it)
		if byKey[r.key] == nil {
			byKey[r.key] = make(map[string]daalRow)
		}
		byKey[r.key][r.rowID] = r
	}
	return byKey, nil
}
