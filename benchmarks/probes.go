package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/beldi"
	"repro/internal/apps/fanout"
	"repro/internal/dynamo"
	"repro/internal/platform"
	"repro/internal/queue"
)

// Probes price one layer in isolation, outside every timed window. They
// feed per-layer metrics only.

// probeIters is how many times a timing probe repeats its operation.
const probeIters, smokeProbeIters = 10000, 500

// probeInvokeNoop times Platform.Invoke of a registered no-op: the floor
// every SSF hop pays before core does anything.
func probeInvokeNoop(iters int) (usPerInvoke float64, err error) {
	plat := platform.New(platform.Options{})
	plat.Register("noop", func(*platform.Invocation, platform.Value) (platform.Value, error) {
		return dynamo.Null, nil
	}, 0)
	t0 := time.Now()
	for i := 0; i < iters; i++ {
		if _, err := plat.Invoke("noop", dynamo.Null); err != nil {
			return 0, err
		}
	}
	return float64(time.Since(t0).Microseconds()) / float64(iters), nil
}

// probeCodec times a ToValue/FromValue round trip of a 64-word
// fanout.Counts, the reflection codec's unit of work on the fan-out
// workload, and counts its allocations.
func probeCodec(iters int) (usPerRoundTrip, allocs float64, err error) {
	in := fanout.Counts{DocID: "probe", Words: make(map[string]int64, fanoutVocab)}
	for i := 0; i < fanoutVocab; i++ {
		in.Words[vocabWord(i)] = int64(i + 1)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	for i := 0; i < iters; i++ {
		v, err := beldi.ToValue(in)
		if err != nil {
			return 0, 0, err
		}
		var out fanout.Counts
		if err := beldi.FromValue(v, &out); err != nil {
			return 0, 0, err
		}
		if len(out.Words) != fanoutVocab {
			return 0, 0, fmt.Errorf("codec probe: decoded %d words, want %d", len(out.Words), fanoutVocab)
		}
	}
	took := time.Since(t0)
	runtime.ReadMemStats(&m1)
	return float64(took.Microseconds()) / float64(iters), float64(m1.Mallocs-m0.Mallocs) / float64(iters), nil
}

// probeQueue counts the store operations one message costs the broker end
// to end (enqueue, batched receive, ack) on a store nothing else touches.
func probeQueue() (opsPerMessage float64, err error) {
	const messages, batch = 1000, platform.DefaultBatchSize
	store := dynamo.NewStore()
	broker := queue.NewBroker(queue.BrokerOptions{Store: store})
	if err := broker.Create("probe", queue.Options{}); err != nil {
		return 0, err
	}
	before := store.Metrics().Snapshot().TotalOps()
	for i := 0; i < messages; i++ {
		if _, err := broker.Enqueue("probe", dynamo.NInt(int64(i))); err != nil {
			return 0, err
		}
	}
	for done := 0; done < messages; {
		msgs, err := broker.Receive("probe", batch)
		if err != nil {
			return 0, err
		}
		if len(msgs) == 0 {
			return 0, fmt.Errorf("queue probe: queue ran dry after %d of %d messages", done, messages)
		}
		for _, m := range msgs {
			if err := broker.Ack("probe", m.ID, m.Receipt); err != nil {
				return 0, err
			}
		}
		done += len(msgs)
	}
	return float64(store.Metrics().Snapshot().TotalOps()-before) / messages, nil
}

// killPlan is a platform.FaultPlan that kills whichever instance reaches
// the n-th crash point (a step boundary) after arm(n), once.
type killPlan struct {
	mu    sync.Mutex
	n     int
	seen  int
	fired bool
}

func (k *killPlan) arm(n int) {
	k.mu.Lock()
	k.n, k.seen, k.fired = n, 0, false
	k.mu.Unlock()
}

func (k *killPlan) didFire() bool {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.fired
}

// ShouldCrash implements platform.FaultPlan.
func (k *killPlan) ShouldCrash(string, string, int) bool {
	k.mu.Lock()
	defer k.mu.Unlock()
	if k.n == 0 {
		return false
	}
	k.seen++
	if k.seen < k.n {
		return false
	}
	k.n, k.fired = 0, true
	return true
}

// recoverAll drives every function's intent collector until no unfinished
// intent is left, returning how many instances were restarted and the time
// spent collecting and re-executing (the waits for the collector's minimum
// intent age are not counted).
func recoverAll(s *stack) (restarts int, busy time.Duration, err error) {
	for pass := 0; pass < 50; pass++ {
		time.Sleep(2 * benchConfig.T) // past ICMinAge: every unfinished intent is eligible
		t0 := time.Now()
		restarted := 0
		for _, fn := range s.d.Functions() {
			n, err := s.d.Runtime(fn).RunIntentCollector()
			if err != nil {
				return restarts, busy, err
			}
			restarted += n
		}
		s.plat.Drain()
		busy += time.Since(t0)
		if restarted == 0 {
			return restarts, busy, nil
		}
		restarts += restarted
	}
	return restarts, busy, fmt.Errorf("recovery did not converge")
}
