package bench

import (
	"fmt"
	"time"

	"repro/internal/dynamo"
	"repro/internal/hist"
	"repro/internal/platform"
	"repro/internal/queue"
	"repro/internal/storage"
	"repro/internal/uuid"
)

// The trigger-latency sweep measures enqueue→receive latency through the
// durable queue and its event-source mapper, with the commit-stream push path
// on ("push": an idle mapper blocks on the queue table's watch subscription
// and an enqueue wakes it immediately) and off ("poll": the Watcher
// capability is stripped from the store, so the idle mapper sleeps out
// PollInterval — the pre-push behavior, whose p50 is bounded below by the
// poll cadence). The gap between the two cells is what the push primitive
// buys; the smoke test pins it at ≥5× on the p50.

// Trigger modes.
const (
	TriggerPush = "push"
	TriggerPoll = "poll"
)

// TriggerCell is one (backend, mode) cell of the trigger-latency sweep.
type TriggerCell struct {
	// Label is "<backend>/<mode>".
	Label   string
	Backend BackendKind
	// Mode is TriggerPush or TriggerPoll.
	Mode string
	Seed int64
}

const (
	// triggerMessages is the closed-loop message count measured per cell,
	// after triggerWarmup messages run and are discarded.
	triggerMessages = 48
	triggerWarmup   = triggerMessages / 4
)

// TriggerCells is the trigger-latency sweep: the memory store, then the
// group-committed WAL, each pushed then polled.
func TriggerCells(seed int64) []TriggerCell {
	var cells []TriggerCell
	for _, kind := range []BackendKind{BackendMemory, BackendWALBatched} {
		for _, mode := range []string{TriggerPush, TriggerPoll} {
			cells = append(cells, TriggerCell{Label: string(kind) + "/" + mode, Backend: kind, Mode: mode, Seed: seed})
		}
	}
	return cells
}

// TriggerLatencyPoint is one (backend, mode) cell. Latencies are
// nanoseconds from just before Enqueue to the triggered handler running.
type TriggerLatencyPoint struct {
	Backend      BackendKind
	Mode         string
	PollInterval time.Duration
	Messages     int64
	// Enqueue→receive latency distribution.
	P50, P90, P99, Max, Mean int64
	// Wakeups counts idle waits ended by a push event (0 in poll mode) —
	// the mapper's own evidence of which path it took.
	Wakeups int64
	Elapsed time.Duration
}

// pushless strips every optional capability from a Backend — in particular
// storage.Watcher — pinning consumers to their poll fallback. Interface
// embedding promotes only Backend's own methods, so the wrapped store's
// Watch never reaches the capability probe.
type pushless struct{ storage.Backend }

// RunTrigger measures one cell against a fresh store, queue and mapper,
// closed-loop: enqueue one message
// carrying its send time, wait for the triggered handler to report the
// enqueue→receive gap, repeat. Between messages the mapper is idle — parked
// on its push subscription or its poll timer — which is exactly the state
// whose wake latency the cell measures.
//
// The handler reports before the mapper acks its message, and on the WAL
// that ack waits for an fsync. An enqueue sent at the report would land
// while the mapper is still busy, and the re-scan after its ack would find
// the message without the mapper ever going idle. So each enqueue first
// waits for the broker's EmptyReceives to pass its value at the report:
// that re-scan has come back empty, and the mapper is idle.
func RunTrigger(c TriggerCell) (TriggerLatencyPoint, error) {
	sub, err := openSubstrate(Cell{Backend: c.Backend, Shards: 1})
	if err != nil {
		return TriggerLatencyPoint{}, fmt.Errorf("bench: trigger sweep: %w", err)
	}
	defer sub.Close()
	store := sub.store
	if c.Mode == TriggerPoll {
		store = pushless{store}
	}

	broker := queue.NewBroker(queue.BrokerOptions{Store: store, IDs: &uuid.Seq{Prefix: "m"}})
	broker.MustCreate("lat", queue.Options{VisibilityTimeout: time.Minute})
	empties := &broker.Metrics().EmptyReceives
	plat := platform.New(platform.Options{Seed: c.Seed, IDs: &uuid.Seq{Prefix: "req"}})
	type report struct {
		gap     time.Duration
		empties int64 // EmptyReceives when the handler ran
	}
	recv := make(chan report, 16)
	plat.Register("recv", func(inv *platform.Invocation, input platform.Value) (platform.Value, error) {
		recv <- report{time.Since(time.Unix(0, input.Int())), empties.Load()}
		return dynamo.Null, nil
	}, 0)
	mapper := platform.MustNewMapper(broker, plat, platform.EventSourceOptions{
		Queue: "lat", Function: "recv", BatchSize: 1, PollInterval: platform.DefaultPollInterval,
	})
	mapper.Start()
	defer mapper.Stop()

	var h hist.Histogram
	start := time.Now()
	idleAfter := int64(0) // the mapper's first scan must come back empty too
	for i := 0; i < triggerWarmup+triggerMessages; i++ {
		for deadline := time.Now().Add(10 * time.Second); empties.Load() <= idleAfter; {
			if time.Now().After(deadline) {
				return TriggerLatencyPoint{}, fmt.Errorf("bench: trigger cell %s: mapper never went idle after message %d", c.Label, i-1)
			}
			time.Sleep(20 * time.Microsecond)
		}
		if _, err := broker.Enqueue("lat", dynamo.NInt(time.Now().UnixNano())); err != nil {
			return TriggerLatencyPoint{}, err
		}
		select {
		case r := <-recv:
			if i >= triggerWarmup {
				h.Record(r.gap)
			}
			idleAfter = r.empties
		case <-time.After(10 * time.Second):
			return TriggerLatencyPoint{}, fmt.Errorf("bench: trigger cell %s: message %d never delivered", c.Label, i)
		}
	}
	return TriggerLatencyPoint{
		Backend:      c.Backend,
		Mode:         c.Mode,
		PollInterval: platform.DefaultPollInterval,
		Messages:     h.Count(),
		P50:          int64(h.Quantile(0.5)),
		P90:          int64(h.Quantile(0.9)),
		P99:          int64(h.P99()),
		Max:          int64(h.Max()),
		Mean:         int64(h.Mean()),
		Wakeups:      mapper.Metrics().Wakeups.Load(),
		Elapsed:      time.Since(start),
	}, nil
}
