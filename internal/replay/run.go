package replay

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"camcast/internal/obsv"
	"camcast/internal/ring"
	"camcast/internal/runtime"
	"camcast/internal/timing"
	"camcast/internal/transport"
)

// traceBuffer is the replay subscription's ring size. Drained after every
// record, it only needs to hold one record's worth of protocol events; a
// multicast in a large group emits a few per member, so 64k leaves orders
// of magnitude of headroom. Overflow is detected (Dropped) and fails the
// replay rather than silently truncating the trace.
const traceBuffer = 1 << 16

// suspicionForever keeps every suspicion mark alive for the whole replay.
// Live runs expire suspicion on a clock; under replay, node time is a
// virtual clock advanced one tick per log record — deterministic, but the
// recorded run's real timings are unknowable, so never expiring is the
// deterministic closure of "the mark was set at some point" — stabilization
// still clears marks when a suspect answers an RPC, which is an
// input-driven (and thus replayable) event.
const suspicionForever = 100 * 365 * 24 * time.Hour

// replayTick is how far the replay's virtual clock advances per log
// record: any fixed nonzero step works, since both replays of a log step
// time identically.
const replayTick = time.Millisecond

// Run re-executes a recorded input schedule against a fresh in-memory
// cluster and returns everything the run observably did: per-message
// delivery sets, originated message IDs, aggregated protocol counters, and
// the full ordered protocol-event trace, each trace event stamped with the
// index of the log record that produced it.
//
// The replay is simulated-time: child sends are serialized in plan order
// (ForwardParallel < 0), per-send deadlines and retry backoff are disabled,
// and failure suspicion never expires mid-run, so no outcome depends on
// the wall clock or the goroutine scheduler. The only randomness left is
// the network's loss schedule, seeded from the log header — identical for
// every replay of the same log. Run(log) twice and Compare the outcomes:
// any divergence is a determinism bug, not noise.
func Run(log *Log) (*Outcome, error) {
	var mode runtime.Mode
	switch log.Header.Mode {
	case "cam-chord":
		mode = runtime.ModeCAMChord
	case "cam-koorde":
		mode = runtime.ModeCAMKoorde
	default:
		return nil, fmt.Errorf("replay: unknown protocol mode %q", log.Header.Mode)
	}
	bits := log.Header.Bits
	if bits == 0 {
		bits = 20
	}
	space, err := ring.NewSpace(bits)
	if err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}

	net := transport.NewNetwork(log.Header.NetSeed)
	bus := obsv.NewBus()
	sub := bus.Subscribe(traceBuffer)
	defer sub.Close()

	// Node time is virtual and advances in lockstep with the log: one tick
	// per record, from a fixed epoch. Replays of the same log therefore see
	// identical clock readings at every step, wherever the runtime consults
	// its clock (suspicion timestamps today, anything time-keyed tomorrow).
	clock := timing.NewVirtual(time.Unix(0, 0))

	out := &Outcome{Deliveries: make(map[string][]string)}
	var delivMu sync.Mutex

	alive := make(map[int]*runtime.Node)
	var all []*runtime.Node
	defer func() {
		for _, n := range alive {
			n.Stop()
		}
	}()

	newNode := func(idx, capacity int) (*runtime.Node, error) {
		addr := Addr(idx)
		node, err := runtime.NewNode(net, addr, runtime.Config{
			Space:    space,
			Mode:     mode,
			Capacity: capacity,
			// The determinism block: serial plan-order fan-out, no
			// wall-clock deadlines, no backoff sleeps, no mid-run
			// suspicion expiry.
			ForwardParallel: -1,
			ForwardTimeout:  -1,
			RetryBackoff:    -1,
			SuspicionWindow: suspicionForever,
			Clock:           clock,
			Bus:             bus,
			OnDeliver: func(d runtime.Delivery) {
				delivMu.Lock()
				out.Deliveries[d.MsgID] = append(out.Deliveries[d.MsgID], addr)
				delivMu.Unlock()
			},
		})
		if err != nil {
			return nil, err
		}
		all = append(all, node)
		return node, nil
	}

	liveIdxs := func() []int {
		idxs := make([]int, 0, len(alive))
		for i := range alive {
			idxs = append(idxs, i)
		}
		sort.Ints(idxs)
		return idxs
	}
	maintain := func(rounds int, full bool) {
		for r := 0; r < rounds; r++ {
			for _, i := range liveIdxs() {
				alive[i].StabilizeOnce()
			}
			for _, i := range liveIdxs() {
				if full {
					alive[i].FixAll()
				} else {
					alive[i].FixOnce()
				}
			}
		}
	}
	drain := func(step int) {
		for {
			e, ok := sub.Poll()
			if !ok {
				return
			}
			out.Trace = append(out.Trace, TraceEvent{
				Step: step, Node: e.Node, Kind: string(e.Kind), Detail: e.Detail,
			})
		}
	}
	// linkSelAddr maps a wire link selector back to a network address
	// ("" = any endpoint).
	linkSelAddr := func(p *int) string {
		if p == nil {
			return ""
		}
		return Addr(*p)
	}

	for step, rec := range log.Records {
		clock.Advance(replayTick)
		switch rec.Kind {
		case KindBootstrap:
			node, err := newNode(rec.Idx, rec.Cap)
			if err != nil {
				return nil, fmt.Errorf("replay: step %d: %w", step, err)
			}
			if err := node.Bootstrap(); err != nil {
				return nil, fmt.Errorf("replay: step %d: bootstrap %d: %w", step, rec.Idx, err)
			}
			alive[rec.Idx] = node
		case KindJoin:
			node, err := newNode(rec.Idx, rec.Cap)
			if err != nil {
				return nil, fmt.Errorf("replay: step %d: %w", step, err)
			}
			// The recorded join succeeded; under replay the (deterministic)
			// loss schedule may land differently on its RPCs, so retry a
			// couple of times before accepting the member as lost. Every
			// outcome of this loop is itself deterministic.
			joined := false
			for attempt := 0; attempt < 3 && !joined; attempt++ {
				joined = node.Join(Addr(rec.Via)) == nil
			}
			if joined {
				alive[rec.Idx] = node
			} else {
				node.Stop()
				drain(step)
				out.Trace = append(out.Trace, TraceEvent{
					Step: step, Node: Addr(rec.Idx), Kind: "replay-join-failed",
					Detail: fmt.Sprintf("via %s", Addr(rec.Via)),
				})
				continue
			}
		case KindBulkJoin:
			members := make([]*runtime.Node, 0, len(rec.Idxs))
			for i, idx := range rec.Idxs {
				node, err := newNode(idx, rec.Caps[i])
				if err != nil {
					return nil, fmt.Errorf("replay: step %d: %w", step, err)
				}
				members = append(members, node)
			}
			// Serial install: trace order and table contents depend only on
			// the sorted membership, never on goroutine interleaving.
			if err := runtime.BulkInstall(members, runtime.BulkOptions{Parallelism: 1}); err != nil {
				return nil, fmt.Errorf("replay: step %d: bulk-join: %w", step, err)
			}
			for i, idx := range rec.Idxs {
				alive[idx] = members[i]
			}
		case KindLeave:
			if node, ok := alive[rec.Idx]; ok {
				_ = node.Leave()
				delete(alive, rec.Idx)
			}
		case KindCrash:
			if node, ok := alive[rec.Idx]; ok {
				node.Stop()
				delete(alive, rec.Idx)
			}
		case KindCrashGroup:
			for _, idx := range rec.Idxs {
				if node, ok := alive[idx]; ok {
					node.Stop()
					delete(alive, idx)
				}
			}
		case KindMaintain:
			maintain(rec.Rounds, rec.Full)
		case KindMulticast:
			node, ok := alive[rec.Idx]
			if !ok {
				return nil, fmt.Errorf("replay: step %d: multicast from %s which is not alive", step, Addr(rec.Idx))
			}
			msgID, err := node.MulticastContext(context.Background(), rec.Payload)
			if err != nil {
				return nil, fmt.Errorf("replay: step %d: multicast from %s: %w", step, Addr(rec.Idx), err)
			}
			out.MsgIDs = append(out.MsgIDs, msgID)
		case KindLinkLoss:
			net.SetLinkLoss(linkSelAddr(rec.From), linkSelAddr(rec.To), rec.Rate)
		case KindLinkDelay:
			net.SetLinkDelay(linkSelAddr(rec.From), linkSelAddr(rec.To), time.Duration(rec.DelayMS)*time.Millisecond)
		case KindPartition:
			net.SetPartition(Addr(rec.Idx), rec.Part)
		case KindHealLinks:
			net.ClearLinkFaults()
		case KindHealPartitions:
			net.HealPartitions()
		default:
			return nil, fmt.Errorf("replay: step %d: unknown record kind %q", step, rec.Kind)
		}
		drain(step)
	}

	if d := sub.Dropped(); d > 0 {
		return nil, fmt.Errorf("replay: trace subscription dropped %d events; outcome trace incomplete", d)
	}
	for _, n := range all {
		st := n.Stats()
		out.Counters.Delivered += st.Delivered
		out.Counters.Forwarded += st.Forwarded
		out.Counters.Duplicates += st.Duplicates
		out.Counters.Lookups += st.Lookups
		out.Counters.TableFaults += st.TableFaults
		out.Counters.ChildrenAcked += st.ChildrenAcked
		out.Counters.Retries += st.Retries
		out.Counters.Rerouted += st.Rerouted
		out.Counters.SegmentsRepaired += st.SegmentsRepaired
		out.Counters.SegmentsLost += st.SegmentsLost
	}
	for _, addrs := range out.Deliveries {
		sort.Strings(addrs)
	}
	return out, nil
}
