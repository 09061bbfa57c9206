// Package sim is a deterministic whole-cluster simulator in the
// FoundationDB style: every concurrent actor of a Beldi deployment — client
// requests, asynchronous invocations, each worker's heartbeat / detection /
// collection / GC / queue-polling pumps — runs as a cooperative task under a
// single seeded Scheduler that owns virtual time. Exactly one task runs at
// any instant; tasks yield at storage-operation boundaries (the Backend
// wrapper) and at clock sleeps (the Clock), and a pluggable seeded Policy
// picks which runnable task goes next. The same seed therefore reproduces
// the same interleaving, the same fault schedule, and the same trace hash —
// a failing sweep seed replays bit-identically with
//
//	go test ./internal/sim -run 'TestSimReplaySeed' -sim.seed=N
//
// On top of the scheduler, the package composes the codebase's fault seams
// (platform crash points, the walstore file system, lease clock skew) with
// simulator-native ones (storage-op delays, late intent completions, torn
// WAL writes, worker kill / pause / partition) into seed-derived fault
// schedules, and Sweep drives the full worker+queue+WAL stack over the
// travel, orders and fan-out workloads across those schedules, auditing
// exactly-once totals, transactional invariants and Fsck cleanliness after
// every run. See ARCHITECTURE.md ("Deterministic simulation") and
// OPERATIONS.md ("Reproducing a failure from a seed").
package sim

import (
	"fmt"
	"math/rand"
	"runtime/debug"
	"strings"
	"time"
)

// taskState is a Task's scheduling state.
type taskState int

const (
	stateRunnable taskState = iota
	stateRunning
	stateSleeping
	stateBlocked
	stateDone
)

func (st taskState) String() string {
	switch st {
	case stateRunnable:
		return "runnable"
	case stateRunning:
		return "running"
	case stateSleeping:
		return "sleeping"
	case stateBlocked:
		return "blocked"
	default:
		return "done"
	}
}

// Task is one cooperative unit of execution under a Scheduler: a goroutine
// that runs only while it holds the scheduler's baton and parks at every
// yield point. Tasks are created with Scheduler.Go and carry a process tag
// so process-scoped faults (kill, pause, partition) can find them.
type Task struct {
	// ID is the task's spawn-ordered identity, unique within its scheduler.
	ID int
	// Name labels the task in traces and dumps.
	Name string
	// Proc tags the process (worker) the task belongs to; "" for clients
	// and drivers.
	Proc string
	// Pump marks background protocol pumps (heartbeat, collection,
	// polling) — the tasks a network partition freezes while in-flight
	// handlers keep running.
	Pump bool

	s        *Scheduler
	state    taskState
	frozen   bool
	killed   bool
	deadline time.Time
	waitOn   map[int]bool
	resume   chan struct{}
}

// Done reports whether the task has finished.
func (t *Task) Done() bool { return t.state == stateDone }

// taskKilled unwinds a killed task's stack at its next yield point.
type taskKilled struct{}

// Options configure a Scheduler.
type Options struct {
	// Seed drives every scheduling and fault decision; the same seed over
	// the same task program yields the same interleaving.
	Seed int64
	// Policy names the interleaving policy ("random", "lifo", "sticky",
	// "starve"); "" means "random". See PolicyByName.
	Policy string
}

// maxSteps bounds the number of scheduling decisions before Run fails (a
// livelock backstop).
const maxSteps = 4_000_000

// epoch is the virtual clock's start, fixed so traces never depend on wall
// time.
var epoch = time.Unix(1_700_000_000, 0).UTC()

// Scheduler runs tasks one at a time under a seeded interleaving policy and
// owns virtual time: when no task is runnable it advances the clock to the
// earliest sleeper's deadline. It is not safe for use from goroutines it
// does not manage; during Run, only the currently scheduled task may touch
// the scheduler (the single-baton discipline makes that race-free by
// construction).
type Scheduler struct {
	rng     *rand.Rand
	policy  Policy
	tasks   []*Task
	now     time.Time
	steps   int
	current *Task
	parked  chan struct{}
	hash    uint64
	recent  []string
	fail    error
	reaping bool
}

// New builds a Scheduler.
func New(opts Options) *Scheduler {
	pol, err := PolicyByName(opts.Policy)
	if err != nil {
		panic(err) // programmer error: names come from the scenario table
	}
	return &Scheduler{
		rng:    rand.New(rand.NewSource(opts.Seed ^ 0x5eed51)),
		policy: pol,
		now:    epoch,
		parked: make(chan struct{}),
	}
}

// TaskOpts name and tag a task at spawn.
type TaskOpts struct {
	// Name labels the task in traces and dumps.
	Name string
	// Proc tags the owning process; see Task.Proc.
	Proc string
	// Pump marks a background protocol pump; see Task.Pump.
	Pump bool
}

// Go spawns fn as a new task. The task does not run until the scheduler
// picks it. Safe to call before Run and from running tasks.
func (s *Scheduler) Go(opts TaskOpts, fn func()) *Task {
	t := &Task{
		ID:     len(s.tasks) + 1,
		Name:   opts.Name,
		Proc:   opts.Proc,
		Pump:   opts.Pump,
		s:      s,
		state:  stateRunnable,
		killed: s.reaping,
		resume: make(chan struct{}),
	}
	s.tasks = append(s.tasks, t)
	go func() {
		<-t.resume
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(taskKilled); !ok && s.fail == nil {
					s.fail = fmt.Errorf("sim: task %d %q panicked: %v\n%s", t.ID, t.Name, r, debug.Stack())
				}
			}
			t.state = stateDone
			s.parked <- struct{}{}
		}()
		if !t.killed {
			fn()
		}
	}()
	return t
}

// Now returns the current virtual time.
func (s *Scheduler) Now() time.Time { return s.now }

// Steps returns the number of scheduling decisions made so far.
func (s *Scheduler) Steps() int { return s.steps }

// TraceHash digests every scheduling decision and every note (storage
// operations, fault firings) made so far — two runs of the same program
// from the same seed must produce equal hashes, which is what the replay
// meta-test asserts.
func (s *Scheduler) TraceHash() uint64 { return s.hash }

// Note folds an event into the trace hash and the recent-decision ring;
// the Backend wrapper notes every storage operation through it.
func (s *Scheduler) Note(ev string) {
	const prime = 1099511628211
	for i := 0; i < len(ev); i++ {
		s.hash = (s.hash ^ uint64(ev[i])) * prime
	}
	s.hash = (s.hash ^ 0x1f) * prime
	if len(s.recent) >= 48 {
		copy(s.recent, s.recent[1:])
		s.recent = s.recent[:47]
	}
	s.recent = append(s.recent, ev)
}

// Yield parks the calling task and hands the baton back to the scheduler;
// the task becomes runnable again immediately (some other task may run in
// between). Outside Run it is a no-op, so setup code can share the code
// paths that yield.
func (s *Scheduler) Yield() {
	t := s.current
	if t == nil {
		return
	}
	t.state = stateRunnable
	s.park(t)
}

// Sleep parks the calling task until virtual time passes d. Outside Run it
// returns immediately (virtual time does not pass during setup).
func (s *Scheduler) Sleep(d time.Duration) {
	t := s.current
	if t == nil {
		return
	}
	if d <= 0 {
		t.state = stateRunnable
	} else {
		t.deadline = s.now.Add(d)
		t.state = stateSleeping
	}
	s.park(t)
}

// Await parks the calling task until every given task has finished. It must
// be called from a running task.
func (s *Scheduler) Await(ts ...*Task) {
	t := s.current
	if t == nil {
		panic("sim: Await called outside a running task")
	}
	t.waitOn = make(map[int]bool)
	for _, w := range ts {
		if w.state != stateDone {
			t.waitOn[w.ID] = true
		}
	}
	if len(t.waitOn) == 0 {
		return
	}
	t.state = stateBlocked
	s.park(t)
}

func (s *Scheduler) park(t *Task) {
	s.parked <- struct{}{}
	<-t.resume
	if t.killed {
		panic(taskKilled{})
	}
}

// Run schedules tasks until root finishes, virtual time advancing whenever
// nothing is runnable. It returns an error on deadlock (nothing runnable,
// nothing sleeping, root unfinished), on step-budget exhaustion, or when a
// task panicked. Call it from the goroutine that owns the scheduler (the
// test), never from a task.
func (s *Scheduler) Run(root *Task) error {
	if s.current != nil {
		panic("sim: Run called from inside a task")
	}
	for {
		if root.state == stateDone {
			return s.fail
		}
		if s.fail != nil {
			return s.fail
		}
		if s.steps >= maxSteps {
			return fmt.Errorf("sim: step budget %d exhausted (livelock?)\n%s", maxSteps, s.dump())
		}
		t := s.pickNext()
		if t == nil {
			deadline, ok := s.earliestDeadline()
			if !ok {
				return fmt.Errorf("sim: deadlock: no runnable or sleeping task while root %q unfinished\n%s", root.Name, s.dump())
			}
			if deadline.After(s.now) {
				s.now = deadline
			}
			s.wakeSleepers()
			continue
		}
		s.steps++
		s.Note(fmt.Sprintf("@%d", t.ID))
		s.runOne(t)
	}
}

func (s *Scheduler) runOne(t *Task) {
	t.state = stateRunning
	s.current = t
	t.resume <- struct{}{}
	<-s.parked
	s.current = nil
	if t.state == stateDone {
		s.finish(t)
	}
}

func (s *Scheduler) pickNext() *Task {
	var runnable []*Task
	for _, t := range s.tasks {
		if t.state == stateRunnable && !t.frozen && !t.killed {
			runnable = append(runnable, t)
		}
	}
	if len(runnable) == 0 {
		return nil
	}
	return runnable[s.policy.Pick(s.rng, runnable)]
}

func (s *Scheduler) earliestDeadline() (time.Time, bool) {
	var best time.Time
	found := false
	for _, t := range s.tasks {
		if t.state != stateSleeping || t.frozen || t.killed {
			continue
		}
		if !found || t.deadline.Before(best) {
			best = t.deadline
			found = true
		}
	}
	return best, found
}

func (s *Scheduler) wakeSleepers() {
	for _, t := range s.tasks {
		if t.state == stateSleeping && !t.frozen && !t.killed && !t.deadline.After(s.now) {
			t.state = stateRunnable
		}
	}
}

func (s *Scheduler) finish(done *Task) {
	for _, t := range s.tasks {
		if t.state != stateBlocked {
			continue
		}
		delete(t.waitOn, done.ID)
		if len(t.waitOn) == 0 {
			t.state = stateRunnable
		}
	}
}

// KillProc marks every task of proc as killed: they are never scheduled
// again and are reaped by Shutdown. The harness uses platform fault plans
// for protocol-faithful worker kills (instances die at their next operation
// boundary); KillProc is the harder, scheduler-level variant.
func (s *Scheduler) KillProc(proc string) {
	for _, t := range s.tasks {
		if t.Proc == proc {
			t.killed = true
		}
	}
}

// PauseProc freezes every task of proc — the whole-process stall (GC pause,
// VM freeze): nothing of the process runs, its sleepers do not wake, and
// virtual time does not wait for them.
func (s *Scheduler) PauseProc(proc string) { s.setFrozen(proc, false, true) }

// ResumeProc unfreezes a paused process; sleepers whose deadlines passed
// while frozen become runnable immediately.
func (s *Scheduler) ResumeProc(proc string) { s.setFrozen(proc, false, false) }

// PartitionProc freezes (on=true) or heals (on=false) only the pump tasks
// of proc: the worker stops heartbeating, collecting and polling — so its
// lease expires and peers steal its work — while its in-flight handler
// tasks keep running, which is exactly the stale-epoch zombie the fencing
// protocol must stop.
func (s *Scheduler) PartitionProc(proc string, on bool) { s.setFrozen(proc, true, on) }

func (s *Scheduler) setFrozen(proc string, pumpsOnly, frozen bool) {
	for _, t := range s.tasks {
		if t.Proc != proc || (pumpsOnly && !t.Pump) {
			continue
		}
		t.frozen = frozen
		if !frozen && t.state == stateSleeping && !t.deadline.After(s.now) {
			t.state = stateRunnable
		}
	}
}

// Shutdown reaps every unfinished task: each is resumed with the kill flag
// set and unwinds at its next yield point. Call it after Run (including
// after Run returned an error) so task goroutines do not outlive the test.
func (s *Scheduler) Shutdown() {
	if s.current != nil {
		panic("sim: Shutdown called from inside a task")
	}
	s.reaping = true
	for _, t := range s.tasks {
		t.killed = true
	}
	for rounds := 0; rounds < 1_000_000; rounds++ {
		var next *Task
		for _, t := range s.tasks {
			if t.state != stateDone {
				next = t
				break
			}
		}
		if next == nil {
			return
		}
		s.runOne(next)
	}
}

func (s *Scheduler) dump() string {
	var b strings.Builder
	fmt.Fprintf(&b, "  virtual now: %s, steps: %d\n  tasks:\n", s.now.Format(time.RFC3339Nano), s.steps)
	for _, t := range s.tasks {
		if t.state == stateDone {
			continue
		}
		fmt.Fprintf(&b, "    #%d %-28s proc=%-8s %s", t.ID, t.Name, t.Proc, t.state)
		if t.frozen {
			b.WriteString(" frozen")
		}
		if t.killed {
			b.WriteString(" killed")
		}
		if t.state == stateSleeping {
			fmt.Fprintf(&b, " until %s", t.deadline.Format("15:04:05.000000"))
		}
		b.WriteString("\n")
	}
	b.WriteString("  recent decisions: " + strings.Join(s.recent, " "))
	return b.String()
}
