package runtime

import (
	"sync"
	"testing"

	"camcast/internal/ring"
	"camcast/internal/transport"
)

// TestMulticastOverTCP runs the full protocol — join, stabilization, table
// repair and multicast — across real TCP sockets, one transport per node as
// separate processes would have.
func TestMulticastOverTCP(t *testing.T) {
	RegisterWireTypes()
	const groupSize = 6
	space := ring.MustSpace(16)

	var (
		mu  sync.Mutex
		got = map[string]map[string]int{} // addr -> msgID -> count
	)

	transports := make([]*transport.TCP, 0, groupSize)
	nodes := make([]*Node, 0, groupSize)
	t.Cleanup(func() {
		for _, n := range nodes {
			n.Stop()
		}
		for _, tr := range transports {
			tr.Close()
		}
	})

	for i := 0; i < groupSize; i++ {
		tr, err := transport.NewTCP("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		transports = append(transports, tr)
		addr := tr.Addr()
		cfg := Config{
			Space: space, Mode: ModeCAMChord, Capacity: 3,
			OnDeliver: func(d Delivery) {
				mu.Lock()
				defer mu.Unlock()
				if got[addr] == nil {
					got[addr] = map[string]int{}
				}
				got[addr][d.MsgID]++
			},
		}
		n, err := NewNode(tr, addr, cfg)
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, n)
		if i == 0 {
			if err := n.Bootstrap(); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if err := n.Join(transports[0].Addr()); err != nil {
			t.Fatalf("node %d join over tcp: %v", i, err)
		}
		for r := 0; r < 2; r++ {
			for _, m := range nodes {
				m.StabilizeOnce()
			}
		}
	}
	for r := 0; r < 3; r++ {
		for _, m := range nodes {
			m.StabilizeOnce()
		}
		for _, m := range nodes {
			m.FixAll()
		}
	}

	msgID, err := nodes[2].Multicast([]byte("over real sockets"))
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	for _, n := range nodes {
		if got[n.Self().Addr][msgID] != 1 {
			t.Errorf("%s received %d copies of %s, want exactly 1",
				n.Self().Addr, got[n.Self().Addr][msgID], msgID)
		}
	}
}

// TestLookupOverTCP verifies that recursive find_successor chains work
// across sockets, including the binary wire round trip of every payload
// type involved.
func TestLookupOverTCP(t *testing.T) {
	RegisterWireTypes()
	space := ring.MustSpace(16)

	var transports []*transport.TCP
	var nodes []*Node
	t.Cleanup(func() {
		for _, n := range nodes {
			n.Stop()
		}
		for _, tr := range transports {
			tr.Close()
		}
	})
	for i := 0; i < 4; i++ {
		tr, err := transport.NewTCP("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		transports = append(transports, tr)
		n, err := NewNode(tr, tr.Addr(), Config{Space: space, Mode: ModeCAMKoorde, Capacity: 4})
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, n)
		if i == 0 {
			if err := n.Bootstrap(); err != nil {
				t.Fatal(err)
			}
		} else if err := n.Join(transports[0].Addr()); err != nil {
			t.Fatal(err)
		}
		for r := 0; r < 2; r++ {
			for _, m := range nodes {
				m.StabilizeOnce()
			}
		}
	}
	for _, m := range nodes {
		m.FixAll()
	}

	// Every node resolves every other node's own identifier to that node.
	for _, from := range nodes {
		for _, target := range nodes {
			resp, _, err := from.FindSuccessor(target.Self().ID)
			if err != nil {
				t.Fatalf("lookup over tcp: %v", err)
			}
			if resp.Addr != target.Self().Addr {
				t.Errorf("lookup of %d from %s = %s, want %s",
					target.Self().ID, from.Self().Addr, resp.Addr, target.Self().Addr)
			}
		}
	}
}
