package transport

import (
	goruntime "runtime"
	"sync"
	"time"
)

// Task is one unit of work for the process-wide worker pool. A pointer
// type whose Run method does the work hands off without allocating —
// callers that recycle their task values keep the hot path allocation-free.
type Task interface{ Run() }

// workers is the process-wide warm worker pool, shared by every connection
// and every runtime node in the process: the TCP server runs request
// handlers on it, frame writers run their coalescing flushes on it, and the
// runtime's forwarding engine runs child sends on it. One pool keeps the
// goroutine count proportional to the work in flight rather than to the
// number of connections or members: goroutines kept per connection would
// park by the thousand behind a large membership, each one a stack for the
// garbage collector to scan. Idle workers are retired after a grace
// period, so a quiescent process keeps none at all.
//
// The pool has no queue: a handoff either wakes a parked worker, starts a
// new one under the cap, or fails. Reusing a warm worker matters because a
// handler or child send runs a deep call chain (runtime -> flow -> mux ->
// frame writer -> socket) that outgrows a fresh goroutine's initial stack;
// a worker grows its stack once and every later task reuses it. Parked
// workers form a stack, so a handoff wakes the most recently used worker —
// the one whose stack is still in cache — and the workers left at the
// bottom are the ones idle long enough to retire.
var workers = &taskPool{}

// poolIdleExit is how long a worker may stay parked before it is retired.
const poolIdleExit = time.Second

// poolTicks is how many janitor ticks make up one idle grace period.
const poolTicks = 4

type taskPool struct {
	mu      sync.Mutex
	idle    []*poolWorker // parked workers, most recently used last
	live    int           // live workers, bounded by capacity()
	tick    uint64        // janitor ticks so far
	janitor bool          // a janitor goroutine is running
}

// poolWorker is one worker's handoff slot.
type poolWorker struct {
	tasks  chan Task // capacity 1: a handoff never blocks
	parked uint64    // janitor tick at which the worker last parked
}

// capacity bounds the pool's live workers. Server handlers block until
// their multicast subtree completes, so the pool has to hold the handler
// concurrency of a busy member (one per hop in flight through it) on top of
// the CPU-bound work; the bound only limits how many warm stacks the pool
// keeps, since idle workers are retired.
func (p *taskPool) capacity() int {
	return max(64*goruntime.GOMAXPROCS(0), 256)
}

// TryGo hands t to a warm worker, or starts a new one under the cap. It
// never blocks; false means the pool is saturated and the caller should run
// t itself.
func TryGo(t Task) bool {
	return workers.submit(t)
}

// goTask runs t on the pool, or on a fresh goroutine when the pool is
// saturated — never inline, for callers that must not block on t.
func goTask(t Task) {
	if !workers.submit(t) {
		go t.Run()
	}
}

func (p *taskPool) submit(t Task) bool {
	p.mu.Lock()
	if n := len(p.idle); n > 0 {
		w := p.idle[n-1]
		p.idle[n-1] = nil
		p.idle = p.idle[:n-1]
		p.mu.Unlock()
		w.tasks <- t
		return true
	}
	if p.live >= p.capacity() {
		p.mu.Unlock()
		return false
	}
	p.live++
	startJanitor := !p.janitor
	p.janitor = true
	p.mu.Unlock()
	go p.work(&poolWorker{tasks: make(chan Task, 1)}, t)
	if startJanitor {
		go p.tidy()
	}
	return true
}

// work runs tasks until the janitor retires the worker with a nil task.
func (p *taskPool) work(w *poolWorker, t Task) {
	for t != nil {
		t.Run()
		p.mu.Lock()
		w.parked = p.tick
		p.idle = append(p.idle, w)
		p.mu.Unlock()
		t = <-w.tasks
	}
}

// tidy is the janitor: every poolIdleExit/poolTicks it retires the workers
// that have been parked for a whole grace period — the bottom of the idle
// stack — and it exits once no worker is left.
func (p *taskPool) tidy() {
	tick := time.NewTicker(poolIdleExit / poolTicks)
	defer tick.Stop()
	for range tick.C {
		p.mu.Lock()
		p.tick++
		n := 0
		for n < len(p.idle) && p.tick-p.idle[n].parked > poolTicks {
			p.idle[n].tasks <- nil
			n++
		}
		if n > 0 {
			rest := copy(p.idle, p.idle[n:])
			clear(p.idle[rest:])
			p.idle = p.idle[:rest]
			p.live -= n
		}
		if p.live == 0 {
			p.janitor = false
			p.mu.Unlock()
			return
		}
		p.mu.Unlock()
	}
}
