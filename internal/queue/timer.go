package queue

import (
	"cmp"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/dynamo"
	"repro/internal/storage"
)

// Durable timers: registrations in a store-backed timer table that fire when
// their due time passes. What a fire does is the service's Fire: it names
// the row an occurrence writes, and a fire is one TransactWrite that pairs
// that row's put with the timer row's advance (periodic) or delete
// (one-shot), so a firer killed mid-fire leaves either both effects or
// neither: re-scanning after recovery either sees the timer still due
// (nothing happened) or already advanced (the occurrence's row is durable).
// Racing firers collapse the same way — the loser's transaction cancels on
// the Fires guard — which makes the fire exactly-once per (timer,
// occurrence) without any coordination beyond the store's conditional
// writes. Once the transaction commits, the fire runs what Fire returned
// with the row; Beldi's is the in-process launch of the intent the row
// registered, which the intent collector relaunches if it is lost.
//
// The background pump watches the timer table's commit stream when the
// store pushes (storage.Watcher), so a fresh Schedule with a near due time
// wakes it immediately; the fallback sleep is min(time to next due, the
// poll interval), so a pushless store still fires on time.

// Timer table attributes.
const (
	attrTimerID = "TimerId"
	attrTarget  = "Target"
	attrDue     = "DueAt"  // microseconds, broker clock
	attrPeriod  = "Period" // microseconds; 0 = one-shot
	attrFires   = "Fires"  // completed fire count; the advance guard
	attrGen     = "Gen"    // registration nonce: re-registered ids mint fresh occurrence ids
	// attrQueue names what a registration written before Target fires: the
	// queue its fires were enqueued on, which Fire receives as the target.
	attrQueue = "Queue"
)

// A timer row's existence tests, built once.
var (
	timerAbsent  = dynamo.NotExists(dynamo.A(attrTimerID))
	timerPresent = dynamo.Exists(dynamo.A(attrTimerID))
)

// timerTable is the timer registration table's name.
const timerTable = "queue.timers"

// DefaultTimerPoll is the pump's fallback poll interval.
const DefaultTimerPoll = 50 * time.Millisecond

// TimerSpec describes one registration.
type TimerSpec struct {
	// ID names the timer; Schedule is idempotent per id (first write wins).
	ID string
	// Target is what the timer fires, as the service's Fire reads it.
	Target string
	// Body is the payload each fire hands to Fire.
	Body Value
	// Delay is the time until the first fire, from now on the broker's clock.
	Delay time.Duration
	// Period repeats the timer every Period after the first fire; 0 makes it
	// one-shot. A pump that was down for several periods catches up one fire
	// per due period, each with its own occurrence id.
	Period time.Duration
}

// Fire turns a due occurrence of a timer into the row it writes — put goes
// into the transaction that advances the timer — and into run, called once
// that transaction has committed. id is the occurrence's deterministic id,
// distinct per (registration, fire count), so a put guarded on id's absence
// deduplicates the occurrence. An error leaves the registration unfired
// (an unknown target, say), for an operator.
type Fire func(target, id string, body Value) (put dynamo.TxOp, run func(), err error)

// TimerOptions configure a TimerService.
type TimerOptions struct {
	// Fire is what every fire does; required.
	Fire Fire
	// PollInterval is the pump's fallback poll cadence; 0 means
	// DefaultTimerPoll.
	PollInterval time.Duration
}

// TimerService manages durable timer registrations on one broker's store.
// Create with NewTimerService, then either Start the background pump or
// drive firing deterministically with FireDue.
type TimerService struct {
	b    *Broker
	fire Fire
	poll time.Duration

	metrics TimerMetrics

	mu      sync.Mutex
	stopCh  chan struct{}
	doneCh  chan struct{}
	started bool
}

// NewTimerService creates (or reopens) the timer table, "queue.timers",
// on b's store.
func NewTimerService(b *Broker, opts TimerOptions) (*TimerService, error) {
	if opts.Fire == nil {
		return nil, fmt.Errorf("queue: NewTimerService: Fire is required")
	}
	if opts.PollInterval == 0 {
		opts.PollInterval = DefaultTimerPoll
	}
	err := b.store.CreateTable(dynamo.Schema{Name: timerTable, HashKey: attrTimerID, Shards: 1})
	if err != nil && !errors.Is(err, dynamo.ErrTableExists) {
		return nil, err
	}
	return &TimerService{b: b, fire: opts.Fire, poll: opts.PollInterval}, nil
}

// Metrics exposes the service's counters.
func (ts *TimerService) Metrics() *TimerMetrics { return &ts.metrics }

// Schedule durably registers a timer. Idempotent per id: re-scheduling an
// id that is still registered is a no-op (the durable registration already
// exists), so workflows can retry Schedule safely.
func (ts *TimerService) Schedule(spec TimerSpec) error {
	if spec.ID == "" || spec.Target == "" {
		return fmt.Errorf("queue: Schedule: ID and Target are required")
	}
	if spec.Delay < 0 || spec.Period < 0 {
		return fmt.Errorf("queue: Schedule: negative Delay/Period")
	}
	item := dynamo.Item{
		attrTimerID: dynamo.S(spec.ID),
		attrTarget:  dynamo.S(spec.Target),
		attrBody:    spec.Body,
		attrDue:     dynamo.NInt(ts.b.now() + spec.Delay.Microseconds()),
		attrPeriod:  dynamo.NInt(spec.Period.Microseconds()),
		attrFires:   dynamo.NInt(0),
		attrGen:     dynamo.S(ts.b.ids.NewString()),
	}
	err := ts.b.store.Put(timerTable, item, timerAbsent)
	if err != nil {
		if errors.Is(err, dynamo.ErrConditionFailed) {
			return nil // already registered
		}
		return err
	}
	ts.metrics.Scheduled.Add(1)
	return nil
}

// Cancel removes a registration. Unknown ids are a no-op; a fire that
// already committed is not recalled.
func (ts *TimerService) Cancel(id string) error {
	err := ts.b.store.Delete(timerTable, dynamo.HK(dynamo.S(id)), nil)
	if err != nil {
		return err
	}
	ts.metrics.Canceled.Add(1)
	return nil
}

// FireDue fires every registration whose due time has passed, returning how
// many fired. Safe to call concurrently with other firers (races collapse on
// the store's conditions) and deterministic enough for tests to drive
// directly. An error on one timer does not stop the others; the first such
// error is returned after the pass.
func (ts *TimerService) FireDue() (int, error) {
	fired, _, err := ts.firePass()
	return fired, err
}

// firePass is one scan of the timer table serving the pump twice: it fires
// what is due and reports the earliest due time among the registrations that
// are not, 0 when there is none — what the pump's idle wait needs to know.
func (ts *TimerService) firePass() (fired int, next int64, _ error) {
	now := ts.b.now()
	rows, err := ts.b.store.Scan(timerTable, dynamo.QueryOpts{})
	if err != nil {
		return 0, 0, err
	}
	due := rows[:0]
	for _, row := range rows {
		switch d := row[attrDue].Int(); {
		case d <= now:
			due = append(due, row)
		case next == 0 || d < next:
			next = d
		}
	}
	// Due order, id tiebreak: deterministic fire order for tests and replay.
	sort.Slice(due, func(i, j int) bool {
		if d := due[i][attrDue].Int() - due[j][attrDue].Int(); d != 0 {
			return d < 0
		}
		return due[i][attrTimerID].Str() < due[j][attrTimerID].Str()
	})
	var firstErr error
	for _, row := range due {
		ok, err := ts.fireOne(row)
		if err != nil && firstErr == nil {
			firstErr = err
		}
		if ok {
			fired++
		}
	}
	return fired, next, firstErr
}

// fireOne attempts one timer's fire: a single transaction that puts the
// occurrence's row and advances (or deletes) the registration, then the run
// Fire returned. The occurrence id embeds the registration nonce and fire
// count, so every occurrence — across crashes, races, and re-registrations —
// gets a distinct, deterministic id.
func (ts *TimerService) fireOne(row dynamo.Item) (bool, error) {
	id := row[attrTimerID].Str()
	fires := row[attrFires].Int()
	period := row[attrPeriod].Int()
	put, run, err := ts.fire(cmp.Or(row[attrTarget].Str(), row[attrQueue].Str()), fmt.Sprintf("timer-%s-%s-%016x", id, row[attrGen].Str(), fires), row[attrBody])
	if err != nil {
		// Nothing here can fire this registration (e.g. one surviving from a
		// prior deployment). Leave the row for an operator.
		ts.metrics.Orphaned.Add(1)
		return false, err
	}
	guard := dynamo.And(
		timerPresent,
		dynamo.Eq(dynamo.A(attrFires), dynamo.NInt(fires)),
	)
	advance := dynamo.TxOp{Table: timerTable, Key: dynamo.HK(dynamo.S(id)), Cond: guard, Delete: true}
	if period > 0 {
		advance.Delete = false
		advance.Updates = []dynamo.Update{
			dynamo.Set(dynamo.A(attrDue), dynamo.NInt(row[attrDue].Int()+period)),
			dynamo.Add(dynamo.A(attrFires), 1),
		}
	}
	if err := ts.b.store.TransactWrite([]dynamo.TxOp{put, advance}); err != nil {
		if errors.Is(err, dynamo.ErrConditionFailed) {
			// Another firer committed this occurrence first (or the timer was
			// canceled mid-pass). Either way the occurrence is settled.
			ts.metrics.Races.Add(1)
			return false, nil
		}
		return false, err
	}
	ts.metrics.Fired.Add(1)
	run()
	return true, nil
}

// Timers returns the live registrations, sorted by id.
func (ts *TimerService) Timers() ([]TimerSpec, error) {
	rows, err := ts.b.store.Scan(timerTable, dynamo.QueryOpts{})
	if err != nil {
		return nil, err
	}
	now := ts.b.now()
	out := make([]TimerSpec, 0, len(rows))
	for _, row := range rows {
		out = append(out, TimerSpec{
			ID:     row[attrTimerID].Str(),
			Target: cmp.Or(row[attrTarget].Str(), row[attrQueue].Str()),
			Body:   row[attrBody],
			Delay:  time.Duration(row[attrDue].Int()-now) * time.Microsecond,
			Period: time.Duration(row[attrPeriod].Int()) * time.Microsecond,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out, nil
}

// Start launches the background pump. Idempotent while running.
func (ts *TimerService) Start() {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	if ts.started {
		return
	}
	ts.started = true
	ts.stopCh = make(chan struct{})
	ts.doneCh = make(chan struct{})
	go ts.loop(ts.stopCh, ts.doneCh)
}

// Stop halts the pump and waits for the in-flight pass to finish.
func (ts *TimerService) Stop() {
	ts.mu.Lock()
	if !ts.started {
		ts.mu.Unlock()
		return
	}
	ts.started = false
	stopCh, doneCh := ts.stopCh, ts.doneCh
	ts.mu.Unlock()
	close(stopCh)
	<-doneCh
}

// loop is the pump: fire what is due, then park until a timer is likely
// due — the earlier of the earliest pending due time the pass saw and the
// fallback poll interval, cut short by a commit on the timer table (a
// Schedule, Cancel, or another firer's advance) when the store pushes.
func (ts *TimerService) loop(stopCh, doneCh chan struct{}) {
	defer close(doneCh)
	w := storage.NewWaiter(ts.b.store, timerTable, dynamo.Null, clock.Real{})
	defer w.Close()
	for {
		select {
		case <-stopCh:
			return
		default:
		}
		// Armed before the scan: a Schedule that commits after it is an event
		// for the wait below.
		w.Arm()
		n, next, err := ts.firePass()
		if err != nil {
			ts.metrics.Errors.Add(1)
		}
		if n > 0 {
			continue // more may already be due
		}
		wait := ts.poll
		if next != 0 {
			wait = max(min(wait, time.Duration(next-ts.b.now())*time.Microsecond), time.Millisecond)
		}
		if w.Wait(wait, stopCh, nil) == storage.WakeEvent {
			ts.metrics.Wakeups.Add(1)
		}
	}
}

// TimerMetrics counts timer activity. Races counts fires lost to another
// firer's committed transaction (the exactly-once guard doing its job);
// Wakeups counts idle waits ended by a push event rather than the timer.
type TimerMetrics struct {
	Scheduled atomic.Int64
	Canceled  atomic.Int64
	Fired     atomic.Int64
	Races     atomic.Int64
	Orphaned  atomic.Int64
	Errors    atomic.Int64
	Wakeups   atomic.Int64
}

// TimerMetricsView is a point-in-time copy for reporting.
type TimerMetricsView struct {
	Scheduled, Canceled, Fired int64
	Races, Orphaned, Errors    int64
	Wakeups                    int64
}

// Snapshot copies the counters.
func (m *TimerMetrics) Snapshot() TimerMetricsView {
	return TimerMetricsView{
		Scheduled: m.Scheduled.Load(),
		Canceled:  m.Canceled.Load(),
		Fired:     m.Fired.Load(),
		Races:     m.Races.Load(),
		Orphaned:  m.Orphaned.Load(),
		Errors:    m.Errors.Load(),
		Wakeups:   m.Wakeups.Load(),
	}
}
