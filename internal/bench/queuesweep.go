package bench

import (
	"fmt"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/dynamo"
	"repro/internal/platform"
	"repro/internal/queue"
)

// The queue sweep measures the durable event-queue subsystem's consume
// throughput as a function of the event-source mapper's batch size — the
// Netherite observation that batching receives and dispatches is what
// amortizes per-message round trips. Each point drains the same backlog
// through one mapper with cloud-shaped store latency; small batches pay one
// poll's scan round trip for little work, large batches claim and trigger
// many handlers per poll.

// QueueCell is one batch size of the queue sweep.
type QueueCell struct {
	// Label is the batch size in decimal.
	Label string
	Batch int
	// Scale compresses simulated latency.
	Scale float64
	Seed  int64
}

// queueMessages is the backlog drained per cell.
const queueMessages = 300

// QueueCells is the queue sweep's batch sizes, 1, 2, 4, … 32.
func QueueCells(scale float64, seed int64) []QueueCell {
	var cells []QueueCell
	for batch := 1; batch <= 32; batch *= 2 {
		cells = append(cells, QueueCell{Label: strconv.Itoa(batch), Batch: batch, Scale: scale, Seed: seed})
	}
	return cells
}

// QueueSweepPoint is one batch-size position of the sweep.
type QueueSweepPoint struct {
	Batch      int
	Throughput float64 // messages consumed per second
	Polls      int64   // batches claimed
	Elapsed    time.Duration
}

// RunQueue drains the backlog through one mapper at the cell's batch size,
// on a fresh store, and reports consume throughput.
func RunQueue(c QueueCell) (QueueSweepPoint, error) {
	store := cloudStore(c.Scale, c.Seed)
	broker := queue.NewBroker(queue.BrokerOptions{Store: store})
	broker.MustCreate("bench", queue.Options{VisibilityTimeout: time.Minute})
	plat := platform.New(platform.Options{
		WarmStart: time.Duration(float64(15*time.Millisecond) * c.Scale),
		ColdStart: time.Duration(float64(60*time.Millisecond) * c.Scale),
		Jitter:    0.2,
		Seed:      c.Seed,
	})
	var consumed atomic.Int64
	plat.Register("consume", func(inv *platform.Invocation, input platform.Value) (platform.Value, error) {
		consumed.Add(1)
		return dynamo.Null, nil
	}, 0)
	mapper := platform.MustNewMapper(broker, plat, platform.EventSourceOptions{
		Queue: "bench", Function: "consume", BatchSize: c.Batch,
	})
	for i := 0; i < queueMessages; i++ {
		if _, err := broker.Enqueue("bench", dynamo.NInt(int64(i))); err != nil {
			return QueueSweepPoint{}, err
		}
	}
	start := time.Now()
	for consumed.Load() < queueMessages {
		if _, _, err := mapper.PollOnce(); err != nil {
			return QueueSweepPoint{}, err
		}
	}
	elapsed := time.Since(start)
	if n := consumed.Load(); n != queueMessages {
		return QueueSweepPoint{}, fmt.Errorf("bench: queue sweep batch %d consumed %d/%d", c.Batch, n, queueMessages)
	}
	return QueueSweepPoint{
		Batch:      c.Batch,
		Throughput: queueMessages / elapsed.Seconds(),
		Polls:      mapper.Metrics().Batches.Load(),
		Elapsed:    elapsed,
	}, nil
}
