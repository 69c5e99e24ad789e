package transport

import (
	"context"
	goruntime "runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// Per-connection footprint ceilings, per connection pair (one dialed
// client end plus one accepted server end), measured after one call has
// gone through each pair and the pool has drained. The goroutine ceiling is
// exact: one reader per socket end, nothing else — writer flushes and
// request handlers borrow pool workers only while they have work. The heap
// ceiling has a third of headroom over the 12.1 KB measured on linux/amd64
// with go1.24 (with and without the race detector): two 4 KiB socket
// readers, the writers' first frame buffers, and the connection
// bookkeeping. A 64 KiB reader and a flusher goroutine per socket end, plus
// a server worker per accepted connection, measure 5.0 goroutines and
// 140 KB per pair on this test.
const (
	footprintPairs             = 64
	footprintGoroutinesPerPair = 2
	footprintHeapBytesPerPair  = 16 << 10
)

// TestTCPConnectionFootprint opens footprintPairs connection pairs between
// transports, makes one call on each, and gates the heap bytes and
// goroutines each pair keeps once idle. It then checks that the pool
// workers the calls borrowed exit after their idle grace, so an idle
// process holds only the connections' readers.
func TestTCPConnectionFootprint(t *testing.T) {
	if testing.Short() {
		t.Skip("waits out the worker pool's idle grace")
	}
	// 16 transports, each dialing the next four: 64 pairs.
	const hosts, fanout = 16, 4
	trs := make([]*TCP, hosts)
	for i := range trs {
		tr, err := NewTCP("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		tr.Register(tr.Addr(), func(from, kind string, payload any) (any, error) { return nil, nil })
		trs[i] = tr
	}
	defer func() {
		for _, tr := range trs {
			tr.Close()
		}
	}()

	waitPoolIdle(t)
	goBefore := goruntime.NumGoroutine()
	heapBefore := liveHeap()

	for i, tr := range trs {
		for d := 1; d <= fanout; d++ {
			to := trs[(i+d)%hosts].Addr()
			if _, err := tr.Call(context.Background(), tr.Addr(), to, "ping", nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	if got := connCount(trs); got != 2*footprintPairs {
		t.Fatalf("%d socket ends open, want %d", got, 2*footprintPairs)
	}

	// Every pool worker the calls borrowed exits after the idle grace;
	// what remains is per-connection state plus each dialing transport's
	// deadline sweeper (started lazily by its first outbound connection).
	waitPoolIdle(t)
	goAfter := goruntime.NumGoroutine()
	heapAfter := liveHeap()

	perPair := float64(goAfter-goBefore-hosts) / footprintPairs
	heapPerPair := float64(int64(heapAfter)-int64(heapBefore)) / footprintPairs
	t.Logf("per connection pair: %.2f goroutines, %.0f heap bytes", perPair, heapPerPair)
	if perPair > footprintGoroutinesPerPair {
		t.Errorf("%.2f goroutines per idle connection pair, want <= %d (one reader per socket end)", perPair, footprintGoroutinesPerPair)
	}
	if heapPerPair > footprintHeapBytesPerPair {
		t.Errorf("%.0f heap bytes per idle connection pair, want <= %d", heapPerPair, footprintHeapBytesPerPair)
	}
}

type countTask struct {
	ran *atomic.Int32
	wg  *sync.WaitGroup
}

func (c countTask) Run() {
	c.ran.Add(1)
	c.wg.Done()
}

// TestWorkerPoolConcurrentHandoff submits tasks from several goroutines at
// once: every task runs exactly once, and every worker the burst started
// is retired after the idle grace.
func TestWorkerPoolConcurrentHandoff(t *testing.T) {
	if testing.Short() {
		t.Skip("waits out the worker pool's idle grace")
	}
	const submitters, perSubmitter = 8, 500
	var ran atomic.Int32
	var wg sync.WaitGroup
	wg.Add(submitters * perSubmitter)
	for g := 0; g < submitters; g++ {
		go func() {
			for i := 0; i < perSubmitter; i++ {
				goTask(countTask{ran: &ran, wg: &wg})
			}
		}()
	}
	wg.Wait()
	if got := ran.Load(); got != submitters*perSubmitter {
		t.Fatalf("%d tasks ran, want %d", got, submitters*perSubmitter)
	}
	waitPoolIdle(t)
}

// waitPoolIdle waits out the worker pool's idle grace: every worker and
// the pool's janitor have exited once it returns.
func waitPoolIdle(t *testing.T) {
	t.Helper()
	limit := 2*poolIdleExit + time.Second
	deadline := time.Now().Add(limit)
	for {
		workers.mu.Lock()
		live, janitor := workers.live, workers.janitor
		workers.mu.Unlock()
		if live == 0 && !janitor {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d pool workers still live %v after the last task", live, limit)
		}
		time.Sleep(20 * time.Millisecond)
	}
	// Exiting goroutines update the pool's state just before they return;
	// give them a moment to finish so NumGoroutine agrees.
	time.Sleep(20 * time.Millisecond)
}

// liveHeap returns the bytes of live heap objects after a full collection.
func liveHeap() uint64 {
	var ms goruntime.MemStats
	goruntime.GC()
	goruntime.GC()
	goruntime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

func connCount(trs []*TCP) int {
	n := 0
	for _, tr := range trs {
		n += tr.ConnCount()
	}
	return n
}
