package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"camcast"
)

// Payload header: operation sequence number, flags, and the span id of the
// multicast for traced operations. The rest of the payload is filler up to
// the workload's payload size. Deliveries are matched to operations by the
// sequence number, so the ledger needs no map from message ids.
const (
	hdrLen     = 17
	flagTraced = 1
)

func putHeader(p []byte, seq uint64, traced bool, span uint64) {
	binary.LittleEndian.PutUint64(p, seq)
	p[8] = 0
	if traced {
		p[8] = flagTraced
	}
	binary.LittleEndian.PutUint64(p[9:], span)
}

// opRec is the delivery record of one multicast.
type opRec struct {
	deliveries atomic.Int32 // OnDeliver calls, duplicates included
	dups       atomic.Int32 // OnDeliver calls at a member that already had it
	hopSum     atomic.Int64
	hopMax     atomic.Int32
}

// ledger records every delivery per (operation, member object): members
// are identified by their index in the group, never by address, because
// loopback ports are reused after a member leaves.
type ledger struct {
	words int
	bits  []atomic.Uint64 // op*words + member/64
	ops   []opRec
	stray atomic.Int64 // deliveries whose payload matches no operation
	tr    *tracer
}

func newLedger(maxOps, maxMembers int, tr *tracer) *ledger {
	words := (maxMembers + 63) / 64
	return &ledger{words: words, bits: make([]atomic.Uint64, maxOps*words), ops: make([]opRec, maxOps), tr: tr}
}

func (l *ledger) onDeliver(idx int) func(camcast.Message) {
	word, bit := idx/64, uint64(1)<<(idx%64)
	return func(msg camcast.Message) {
		p := msg.Payload
		if len(p) < hdrLen {
			l.stray.Add(1)
			return
		}
		seq := binary.LittleEndian.Uint64(p)
		if seq >= uint64(len(l.ops)) {
			l.stray.Add(1)
			return
		}
		rec := &l.ops[seq]
		w := &l.bits[int(seq)*l.words+word]
		for {
			old := w.Load()
			if old&bit != 0 {
				rec.dups.Add(1)
				break
			}
			if w.CompareAndSwap(old, old|bit) {
				break
			}
		}
		rec.deliveries.Add(1)
		rec.hopSum.Add(int64(msg.Hops))
		for {
			cur := rec.hopMax.Load()
			if int32(msg.Hops) <= cur || rec.hopMax.CompareAndSwap(cur, int32(msg.Hops)) {
				break
			}
		}
		if p[8]&flagTraced != 0 {
			l.tr.instant("camcast.OnDeliver", binary.LittleEndian.Uint64(p[9:]), seq, time.Now(), int64(msg.Hops))
		}
	}
}

func (l *ledger) has(seq uint64, idx int) bool {
	return l.bits[int(seq)*l.words+idx/64].Load()&(uint64(1)<<(idx%64)) != 0
}

// totalDeliveries sums OnDeliver calls over ops [0, n).
func (l *ledger) totalDeliveries(n int) int64 {
	var t int64
	for i := 0; i < n && i < len(l.ops); i++ {
		t += int64(l.ops[i].deliveries.Load())
	}
	return t
}

// quiesce waits until no delivery arrives for 200ms (at most 5s), so late
// deliveries are counted before the ledger is judged.
func (l *ledger) quiesce(nOps int) {
	last := l.totalDeliveries(nOps)
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		time.Sleep(200 * time.Millisecond)
		cur := l.totalDeliveries(nOps)
		if cur == last {
			return
		}
		last = cur
	}
}

// member is one live group member and its membership timeline, in
// nanoseconds since the group's epoch (0 = not yet / never).
type member struct {
	m        *camcast.TCPMember
	idx      int
	capacity int
	joined   atomic.Int64 // when its Join returned
	leaving  atomic.Int64 // when its Leave began
	busy     atomic.Bool  // a multicast from it is in flight
}

// groupSpec fixes the shape of a live group.
type groupSpec struct {
	protocol    camcast.Protocol
	initial     int
	maxMembers  int
	maintenance time.Duration // background Stabilize/Fix period; 0 = off
}

// group is a live loopback-TCP group built through the public API.
type group struct {
	spec  groupSpec
	caps  []int // capacity by member index, drawn from the seed
	led   *ledger
	tr    *tracer
	epoch time.Time

	mu      sync.Mutex
	members []*member // by index; every member ever created
	live    []*member // current members
}

// drawCaps draws c_x ~ U[4,10], the paper's default range, for every member
// index the group may use.
func drawCaps(rng *rand.Rand, n int) []int {
	caps := make([]int, n)
	for i := range caps {
		caps[i] = 4 + rng.Intn(7)
	}
	return caps
}

func newGroup(spec groupSpec, caps []int, maxOps int, tr *tracer) *group {
	return &group{
		spec:    spec,
		caps:    caps,
		led:     newLedger(maxOps, spec.maxMembers, tr),
		tr:      tr,
		epoch:   time.Now(),
		members: make([]*member, 0, spec.maxMembers),
	}
}

func (g *group) since() int64 { return int64(time.Since(g.epoch)) }

// join starts member idx through the member at via ("" bootstraps) and
// returns how long ListenTCP took.
func (g *group) join(idx int, via string, parent uint64) (*member, time.Duration, error) {
	if idx >= g.spec.maxMembers {
		return nil, 0, fmt.Errorf("member index %d exceeds the ledger's %d members", idx, g.spec.maxMembers)
	}
	opts := camcast.Options{
		Protocol:  g.spec.protocol,
		Capacity:  g.caps[idx],
		OnDeliver: g.led.onDeliver(idx),
		Stabilize: -1,
		Fix:       -1,
	}
	if g.spec.maintenance > 0 {
		opts.Stabilize, opts.Fix = g.spec.maintenance, g.spec.maintenance
	}
	var m *camcast.TCPMember
	t0 := time.Now()
	err := g.tr.call("camcast.ListenTCP", parent, uint64(idx), func() (err error) {
		m, err = camcast.ListenTCP("127.0.0.1:0", via, opts)
		return err
	})
	d := time.Since(t0)
	if err != nil {
		return nil, d, fmt.Errorf("join member %d via %q: %w", idx, via, err)
	}
	mem := &member{m: m, idx: idx, capacity: g.caps[idx]}
	mem.joined.Store(g.since())
	g.mu.Lock()
	g.members = append(g.members, mem)
	g.live = append(g.live, mem)
	g.mu.Unlock()
	return mem, d, nil
}

// leave removes mem gracefully and returns how long Leave took.
func (g *group) leave(mem *member, parent uint64) (time.Duration, error) {
	g.mu.Lock()
	for i, x := range g.live {
		if x == mem {
			g.live = append(g.live[:i], g.live[i+1:]...)
			break
		}
	}
	g.mu.Unlock()
	mem.leaving.Store(g.since())
	t0 := time.Now()
	err := g.tr.call("camcast.Leave", parent, uint64(mem.idx), mem.m.Leave)
	return time.Since(t0), err
}

func (g *group) liveMembers() []*member {
	g.mu.Lock()
	defer g.mu.Unlock()
	return append([]*member(nil), g.live...)
}

func (g *group) tcpMembers() []*camcast.TCPMember {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]*camcast.TCPMember, len(g.members))
	for i, m := range g.members {
		out[i] = m.m
	}
	return out
}

// closeAll stops every member still in the group.
func (g *group) closeAll() {
	for _, m := range g.liveMembers() {
		m.m.Close()
	}
	g.mu.Lock()
	g.live = nil
	g.mu.Unlock()
}

// setupResult is what building a group measured.
type setupResult struct {
	dur     time.Duration
	joins   []time.Duration
	joinReg registry // registries right after the joins, before convergence rounds
	endReg  registry // registries at the end of setup
}

// build joins spec.initial members, each through a random earlier member
// and followed by StabilizeOnce on it and on its predecessor, then runs
// StabilizeOnce + FixAll rounds over every member until the ring is
// correct, and finally checks that multicasts from several random members
// reach every member exactly once. Any miss fails the build.
func (g *group) build(rng *rand.Rand) (setupResult, error) {
	var res setupResult
	t0 := time.Now()
	sid, sstart := g.tr.begin()
	if _, _, err := g.join(0, "", sid); err != nil {
		return res, err
	}
	for i := 1; i < g.spec.initial; i++ {
		via := g.members[rng.Intn(i)].m.Addr()
		mem, d, err := g.join(i, via, sid)
		if err != nil {
			return res, err
		}
		res.joins = append(res.joins, d)
		// The new member notifies its successor, then its predecessor
		// (known here from the sorted membership) adopts it, so the
		// successor ring stays correct for the next join's lookup.
		pred := g.predecessorOf(mem)
		for _, x := range []*member{mem, pred} {
			g.tr.call("camcast.StabilizeOnce", sid, uint64(x.idx), func() error { x.m.StabilizeOnce(); return nil })
		}
	}
	res.joinReg = sumMembers(g.tcpMembers())
	converged := false
	for round := 0; round < 8 && !converged; round++ {
		for _, m := range g.members {
			g.tr.call("camcast.StabilizeOnce", sid, uint64(m.idx), func() error { m.m.StabilizeOnce(); return nil })
		}
		for _, m := range g.members {
			g.tr.call("camcast.FixAll", sid, uint64(m.idx), func() error { m.m.FixAll(); return nil })
		}
		converged = g.ringCorrect() == nil
	}
	if err := g.ringCorrect(); err != nil {
		return res, fmt.Errorf("ring not converged after 8 rounds: %w", err)
	}
	if err := g.verifyDelivery(rng, 8, sid); err != nil {
		return res, err
	}
	g.tr.end(sid, 0, 0, "setup", sstart, -1)
	res.dur = time.Since(t0)
	res.endReg = sumMembers(g.tcpMembers())
	return res, nil
}

// predecessorOf returns the live member preceding mem on the ring.
func (g *group) predecessorOf(mem *member) *member {
	var best *member
	id := mem.m.ID()
	for _, x := range g.liveMembers() {
		if x == mem {
			continue
		}
		if best == nil || id-x.m.ID() < id-best.m.ID() {
			best = x
		}
	}
	return best
}

// ringCorrect checks every live member's first successor and predecessor
// against the sorted membership.
func (g *group) ringCorrect() error {
	live := g.liveMembers()
	sort.Slice(live, func(i, j int) bool { return live[i].m.ID() < live[j].m.ID() })
	for i, m := range live {
		nb := m.m.Neighbors()
		next := live[(i+1)%len(live)].m.Addr()
		prev := live[(i+len(live)-1)%len(live)].m.Addr()
		if len(nb.Successors) == 0 || nb.Successors[0] != next {
			ids := map[string]uint64{}
			for _, x := range live {
				ids[x.m.Addr()] = x.m.ID()
			}
			return fmt.Errorf("member %d (id %d) successor %v (ids %v), want %s (id %d)", m.idx, m.m.ID(), nb.Successors, func() []uint64 {
				var o []uint64
				for _, a := range nb.Successors {
					o = append(o, ids[a])
				}
				return o
			}(), next, ids[next])
		}
		if nb.Predecessor != prev {
			return fmt.Errorf("member %d predecessor %q, want %s", m.idx, nb.Predecessor, prev)
		}
	}
	return nil
}

// verifyDelivery multicasts count messages from random members and
// requires every live member to get each exactly once. The operations use
// ledger slots from the top of the ledger, so the timed phase starts at
// sequence 0.
func (g *group) verifyDelivery(rng *rand.Rand, count int, parent uint64) error {
	live := g.liveMembers()
	payload := make([]byte, 1024)
	for i := 0; i < count; i++ {
		seq := uint64(len(g.led.ops) - 1 - i)
		src := live[rng.Intn(len(live))]
		putHeader(payload, seq, false, 0)
		err := g.tr.call("camcast.MulticastContext", parent, seq, func() error {
			_, err := src.m.MulticastContext(context.Background(), payload)
			return err
		})
		if err != nil {
			return fmt.Errorf("verification multicast from member %d: %w", src.idx, err)
		}
		var missing []int
		for attempt := 0; attempt < 20; attempt++ {
			missing = missing[:0]
			for _, m := range live {
				if !g.led.has(seq, m.idx) {
					missing = append(missing, m.idx)
				}
			}
			if len(missing) == 0 {
				break
			}
			time.Sleep(50 * time.Millisecond)
		}
		if len(missing) > 0 {
			return fmt.Errorf("verification multicast from member %d missed %d of %d members: %v", src.idx, len(missing), len(live), missing)
		}
		if d := g.led.ops[seq].dups.Load(); d > 0 {
			return fmt.Errorf("verification multicast from member %d delivered %d duplicates", src.idx, d)
		}
	}
	return nil
}
