package main

import (
	"fmt"
	"runtime"
	"syscall"
	"time"
)

// episode is what one fresh deployment doing the run's request list once
// yields. Interference on a shared box only ever adds time, so a run is a
// discarded warm-up episode plus several timed ones and every timing metric
// is read from the fastest; counts are summed over all timed episodes.
type episode struct {
	n       int
	setup   time.Duration   // build deployment + register + seed
	elapsed time.Duration   // first request sent to last reply received
	lat     []time.Duration // client-observed latency of each request
	counts  counts          // layer counter deltas over the requests, at quiescence

	mallocs, allocBytes uint64
	gcCycles            uint32
	cpu                 time.Duration
	goroutines          int
	rpcP50              time.Duration // remote substrates: median round trip of the requests' RPCs

	failed int // workflows that errored or belong to an episode whose gate failed
	errs   []error

	trace *traceSummary // traced episodes only
}

func (ep *episode) fail(err error) {
	if len(ep.errs) < 5 {
		ep.errs = append(ep.errs, err)
	}
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// episodeHooks are the optional extras of an episode.
type episodeHooks struct {
	traced bool
	// tail runs on the live, quiet system after the correctness gate and
	// before teardown: the collector passes, the heap and storage
	// measurements and the probes of the last timed episode.
	tail func(s *stack, prog *program) error
	// wal runs after the deployment stopped and the durability check passed,
	// on the recovered store.
	wal func(s *stack, recovery time.Duration, recovered int64) error
	// spans receives a traced episode's raw spans.
	spans func(workflows, core, server []span) error
}

// runEpisode builds a fresh stack, runs requests 0..n-1 through one
// closed-loop client, and checks the outputs.
func runEpisode(w *workload, deploy func(*stack) (*program, error), n int, seed int64, h episodeHooks) (*episode, error) {
	spec := w.spec
	spec.traced = h.traced

	// Start from a collected heap so the previous episode's garbage is not
	// charged to this one.
	runtime.GC()

	t0 := time.Now()
	s, err := newStack(spec, seed)
	if err != nil {
		return nil, err
	}
	defer s.close()
	prog, err := deploy(s)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	ep := &episode{n: n, setup: time.Since(t0), lat: make([]time.Duration, n)}

	var workflows []span
	if h.traced {
		workflows = make([]span, 0, n)
		s.coreRec.reset()
		if s.serverRec != nil {
			s.serverRec.reset()
		}
	}
	if s.client != nil {
		s.client.RPCLatency().Reset() // drop the seeding traffic
	}
	before := sample(s)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuTime()

	start := time.Now()
	t := start
	for i := 0; i < n; i++ {
		err := prog.invoke(i)
		end := time.Now()
		ep.lat[i] = end.Sub(t)
		if h.traced {
			workflows = append(workflows, span{start: int64(t.Sub(s.epoch)), end: int64(end.Sub(s.epoch))})
		}
		if err != nil {
			ep.failed++
			ep.fail(fmt.Errorf("workflow %d: %w", i, err))
		}
		t = end
	}
	ep.elapsed = t.Sub(start)

	ep.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&m1)
	ep.mallocs = m1.Mallocs - m0.Mallocs
	ep.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	ep.gcCycles = m1.NumGC - m0.NumGC
	ep.goroutines = runtime.NumGoroutine()
	if s.client != nil {
		ep.rpcP50 = s.client.RPCLatency().Median()
	}

	if err := s.quiesce(); err != nil {
		return nil, err
	}
	ep.counts = sample(s).sub(before)

	if h.traced {
		core := s.coreRec.take()
		var server []span
		if s.serverRec != nil {
			server = s.serverRec.take()
		}
		sum := summarize(workflows, core, server)
		ep.trace = &sum
		if h.spans != nil {
			if err := h.spans(workflows, core, server); err != nil {
				return nil, err
			}
		}
	}

	gateFailed := func(err error) {
		ep.failed = n
		ep.fail(err)
	}
	if err := prog.gate(); err != nil {
		gateFailed(fmt.Errorf("correctness gate: %w", err))
	}
	if h.tail != nil {
		if err := h.tail(s, prog); err != nil {
			gateFailed(err)
		}
	}

	// Durability gate on WAL substrates: what was committed must come back
	// from the directory, row for row.
	s.stop()
	if s.wal != nil {
		took, recovered, err := s.reopenCheck()
		if err != nil {
			gateFailed(fmt.Errorf("durability gate: %w", err))
		} else if h.wal != nil {
			if err := h.wal(s, took, recovered); err != nil {
				gateFailed(err)
			}
		}
	}
	return ep, nil
}
