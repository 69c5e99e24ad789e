package runtime

import (
	"fmt"
	goruntime "runtime"
	"testing"

	"camcast/internal/obsv"
	"camcast/internal/ring"
	"camcast/internal/transport"
)

// TestUnobservedHotPathsAllocFree pins the satellite guarantee behind the
// observed() guard: with no bus subscriber, the accounting turns of the
// delivery path — deliver, duplicate suppression — allocate nothing.
// Without the guard, emitf's variadic arguments box into a []any at every
// call site before emitf's own early return runs, which is exactly the
// regression the dissemination 0 allocs/op gates would catch much more
// expensively.
func TestUnobservedHotPathsAllocFree(t *testing.T) {
	c := newCluster(t, ModeCAMChord, 16)
	n := c.add("alloc-node", 4, "")

	if n.observed() {
		t.Fatal("node with no bus subscriber reports observed")
	}

	d := Delivery{MsgID: "alloc-node#1", Payload: []byte("x"), Hops: 2}
	if allocs := testing.AllocsPerRun(1000, func() { n.deliver(d) }); allocs != 0 {
		t.Errorf("deliver with no observer: %v allocs/op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(1000, func() { n.noteDuplicate("alloc-node#1") }); allocs != 0 {
		t.Errorf("noteDuplicate with no observer: %v allocs/op, want 0", allocs)
	}
}

// TestObservedHotPathsStillEmit proves the guard only skips work, never
// events: the same turns emit their events once a bus subscriber attaches.
func TestObservedHotPathsStillEmit(t *testing.T) {
	bus := obsv.NewBus()
	c := newCluster(t, ModeCAMChord, 16)
	c.tweak = func(cfg *Config) { cfg.Bus = bus }
	n := c.add("traced-node", 4, "")
	sub := bus.Subscribe(4096)
	defer sub.Close()
	if !n.observed() {
		t.Fatal("node with a bus subscriber reports unobserved")
	}
	n.noteDuplicate("traced-node#9")
	events := sub.Drain(nil)
	if len(events) != 1 {
		t.Fatalf("noteDuplicate emitted %d events, want 1", len(events))
	}
	if got := fmt.Sprintf("%s/%s/%s", events[0].Node, events[0].Kind, events[0].Detail); got != "traced-node/duplicate/traced-node#9" {
		t.Errorf("duplicate event = %q, want node traced-node kind duplicate detail traced-node#9", got)
	}
}

// Relay-hop allocation ceilings for a CAM-Chord multicast on the in-memory
// transport, per delivered hop (one child send and the child's handling of
// it). Measured on linux/amd64 with go1.24 at GOMAXPROCS 1, 2 and 4: 1.06
// to 1.11 allocs and 164 to 172 bytes per hop, nearly all of it the boxed
// request each child send carries. Copying the whole neighbour table per
// relaying node, growing the plan slice, a closure and WaitGroup per child
// and a derived context plus timer per child send measure 15.6 allocs and
// 2,491 bytes per hop on this test.
const (
	relayHopAllocs = 2
	relayHopBytes  = 256
)

// TestRelayHopAllocs gates the allocation cost of a relayed CAM-Chord hop
// (handleMulticast -> spreadSegment -> forwardSegment -> child handler) on
// a bulk-installed 64-member ring over the in-memory transport.
func TestRelayHopAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	space := ring.MustSpace(32)
	members := equivMembers(space, ModeCAMChord, 64, 11)
	net := transport.NewNetwork(1)
	nodes := make([]*Node, len(members))
	for i, m := range members {
		n, err := NewNode(net, m.addr, Config{Space: space, Mode: ModeCAMChord, Capacity: m.cap})
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = n
	}
	defer func() {
		for _, n := range nodes {
			n.Stop()
		}
	}()
	if err := BulkInstall(nodes, BulkOptions{Parallelism: 1}); err != nil {
		t.Fatal(err)
	}

	const runs = 200
	src := nodes[0]
	msgIDs := make([]string, runs+1)
	for i := range msgIDs {
		msgIDs[i] = fmt.Sprintf("relay#%d", i)
	}
	payload := make([]byte, 1024)
	relay := func(i int) {
		req := multicastReq{MsgID: msgIDs[i], Source: src.Self(), Payload: payload, K: space.Sub(src.Self().ID, 1)}
		if _, err := src.handleMulticast(req); err != nil {
			t.Fatal(err)
		}
	}
	relay(runs) // warm the pools and caches

	forwarded := func() (sum uint64) {
		for _, n := range nodes {
			sum += n.Stats().Forwarded
		}
		return sum
	}
	hops0 := forwarded()
	var before, after goruntime.MemStats
	goruntime.GC()
	goruntime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		relay(i)
	}
	goruntime.ReadMemStats(&after)
	hops := forwarded() - hops0
	if want := uint64(runs * (len(nodes) - 1)); hops != want {
		t.Fatalf("%d hops delivered, want %d (one per member per multicast)", hops, want)
	}
	allocs := float64(after.Mallocs-before.Mallocs) / float64(hops)
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / float64(hops)
	t.Logf("per relayed hop: %.2f allocs, %.0f bytes", allocs, bytes)
	if allocs > relayHopAllocs {
		t.Errorf("%.2f allocs per relayed hop, want <= %d", allocs, relayHopAllocs)
	}
	if bytes > relayHopBytes {
		t.Errorf("%.0f bytes per relayed hop, want <= %d", bytes, relayHopBytes)
	}
}
