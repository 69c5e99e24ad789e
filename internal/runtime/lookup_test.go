package runtime

import (
	"sync"
	"testing"
)

// TestKoordeGreedyFallbackStaysGreedy pins digitRoute's cursorless
// in-flight branch. greedyRoute forwards findSuccReq{K, Hops: h} without a
// digit cursor, so every CAM-Koorde hop after a greedy fallback receives a
// cursorless request with Hops > 0 and must keep it greedy; treating it as
// a fresh entry point would restart a digit chain at every such hop. The
// control case shows the same node does inject a cursor at the entry point
// (Hops == 0), so the assertion can tell the two behaviours apart.
func TestKoordeGreedyFallbackStaysGreedy(t *testing.T) {
	c := newCluster(t, ModeCAMKoorde, 16)
	c.grow(16, 4)
	c.converge(10)
	nodes := c.sortedByID()
	x := nodes[0]

	var mu sync.Mutex
	var sent []findSuccReq
	for _, other := range nodes[1:] {
		other := other
		c.net.Register(other.self.Addr, func(from, kind string, payload any) (any, error) {
			if req, ok := payload.(findSuccReq); ok && from == x.self.Addr && kind == kindFindSucc {
				mu.Lock()
				sent = append(sent, req)
				mu.Unlock()
			}
			return other.handleRPC(from, kind, payload)
		})
	}
	// sends resolves k from x with the given starting hop count and returns
	// the find_successor requests x sent on.
	sends := func(hops int) []findSuccReq {
		t.Helper()
		mu.Lock()
		sent = nil
		mu.Unlock()
		// Half the ring away: neither x nor x's successor owns it.
		k := c.space.Add(x.self.ID, c.space.Size()/2)
		if _, err := x.handleFindSucc(findSuccReq{K: k, Hops: hops}); err != nil {
			t.Fatalf("lookup of %d from %s (hops %d): %v", k, x.self.Addr, hops, err)
		}
		mu.Lock()
		defer mu.Unlock()
		if len(sent) == 0 {
			t.Fatalf("lookup of %d from %s (hops %d) sent no request", k, x.self.Addr, hops)
		}
		return append([]findSuccReq(nil), sent...)
	}

	for _, req := range sends(1) {
		if req.HasCursor {
			t.Errorf("in-flight greedy request forwarded with a digit cursor: %+v", req)
		}
	}
	cursor := false
	for _, req := range sends(0) {
		cursor = cursor || req.HasCursor
	}
	if !cursor {
		t.Error("entry-point request forwarded without a digit cursor")
	}
}
